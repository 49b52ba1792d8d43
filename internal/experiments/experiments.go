// Package experiments regenerates every table and figure of the
// paper's evaluation (Sect. 2 Table 1, Sect. 3 Fig. 1, Sect. 6
// Table 2, the routable-configuration comparison and the portfolio
// study), plus an encoding-size ablation. Results are rendered as
// Markdown so they can be diffed against EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
)

// Timing is the cost breakdown of one (instance, strategy, width)
// solve, mirroring the paper's "translation to graph coloring +
// translation to CNF + SAT solving" accounting.
type Timing struct {
	Translate time.Duration // netlist -> global routing -> conflict graph
	Encode    time.Duration // symmetry breaking + CNF generation into the solver
	Solve     time.Duration // SAT solving, plus decode and verify for Sat
	Status    sat.Status
	Conflicts int64
}

// Total returns the end-to-end time, the quantity Table 2 reports.
func (t Timing) Total() time.Duration { return t.Translate + t.Encode + t.Solve }

// RunStrategy times one strategy on a prebuilt conflict graph as a
// one-strategy portfolio run: the encoding streams into the solver,
// and a Sat model is decoded and verified inside the solve time. The
// translate duration is supplied by the caller (it is shared across
// strategies, but the paper charges it to every run, so we do too).
// A zero timeout means no timeout. pool, when non-nil, supplies the
// solver, so a sweep reuses clause-arena and watch-list capacity
// between runs; nil solves on a fresh solver. A lane failure (an
// invalid model, a crashed solve) panics.
func RunStrategy(g *graph.Graph, k int, s core.Strategy, translate time.Duration, timeout time.Duration, pool *sat.Pool) Timing {
	r := solveOne(g, k, s, timeout, portfolio.Options{Pool: pool})
	if r.Err != nil {
		panic(fmt.Sprintf("experiments: %s: %v", s.Name(), r.Err))
	}
	return Timing{
		Translate: translate,
		Encode:    r.EncodeTime,
		Solve:     r.SolveTime,
		Status:    r.Status,
		Conflicts: r.Stats.Conflicts,
	}
}

// solveOne solves the k-coloring of g under s as a one-strategy
// portfolio run, bounded by timeout (0 = none).
func solveOne(g *graph.Graph, k int, s core.Strategy, timeout time.Duration, opts portfolio.Options) portfolio.Result {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	_, all, _ := portfolio.Run(ctx, g, k, []core.Strategy{s}, opts)
	return all[0]
}

// BuildInstance regenerates an instance's conflict graph, returning it
// with the translation time (netlist generation + global routing +
// conflict-graph extraction).
func BuildInstance(in mcnc.Instance) (*graph.Graph, time.Duration, error) {
	start := time.Now()
	_, g, err := in.Build()
	if err != nil {
		return nil, 0, err
	}
	return g, time.Since(start), nil
}

// fmtDur renders a duration in seconds with adaptive precision, with a
// ">" prefix for runs that hit the timeout.
func fmtDur(d time.Duration, timedOut bool) string {
	prefix := ""
	if timedOut {
		prefix = ">"
	}
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%s%.0f", prefix, s)
	case s >= 10:
		return fmt.Sprintf("%s%.1f", prefix, s)
	default:
		return fmt.Sprintf("%s%.2f", prefix, s)
	}
}

// markdownTable renders rows as a Markdown table with the given
// header.
func markdownTable(header []string, rows [][]string) string {
	var sb strings.Builder
	sb.WriteString("| " + strings.Join(header, " | ") + " |\n")
	seps := make([]string, len(header))
	for i := range seps {
		seps[i] = "---"
	}
	sb.WriteString("| " + strings.Join(seps, " | ") + " |\n")
	for _, r := range rows {
		sb.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	return sb.String()
}
