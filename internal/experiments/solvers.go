package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
)

// SolverCompareConfig controls the solver-profile comparison that
// mirrors the paper's siege_v4-vs-MiniSat observation ("siege_v4 was
// faster by at least a factor of 2 when proving unsatisfiability ...
// while the satisfiable formulas were solved by either SAT solver in
// usually a fraction of a second, such that MiniSat had a small
// advantage").
type SolverCompareConfig struct {
	Instances []mcnc.Instance // defaults to the first 4 Table 2 instances
	Strategy  string          // defaults to "ITE-linear-2+muldirect/s1"
	Timeout   time.Duration
	Progress  io.Writer
	// Pool, when non-nil, supplies reusable solvers; nil measures on
	// fresh solvers.
	Pool *sat.Pool
}

// SolverCompareResult aggregates per-profile totals on the
// unsatisfiable (W-1) and satisfiable (W) sides.
type SolverCompareResult struct {
	Strategy   string
	Profiles   []string
	Instances  []string
	UnsatTimes [][]time.Duration // [instance][profile]
	SatTimes   [][]time.Duration
	UnsatTotal []time.Duration
	SatTotal   []time.Duration
}

// RunSolverCompare solves each instance's unroutable and routable
// configurations under every built-in solver profile with a fixed
// encoding strategy.
func RunSolverCompare(cfg SolverCompareConfig) (*SolverCompareResult, error) {
	if cfg.Instances == nil {
		cfg.Instances = mcnc.Table2Instances()[:4]
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "ITE-linear-2+muldirect/s1"
	}
	strategy, err := core.ParseStrategy(cfg.Strategy)
	if err != nil {
		return nil, err
	}
	profiles := sat.Profiles()
	res := &SolverCompareResult{Strategy: cfg.Strategy}
	for _, p := range profiles {
		res.Profiles = append(res.Profiles, p.Name)
	}
	res.UnsatTotal = make([]time.Duration, len(profiles))
	res.SatTotal = make([]time.Duration, len(profiles))
	for _, in := range cfg.Instances {
		g, _, err := BuildInstance(in)
		if err != nil {
			return nil, err
		}
		unsatRow := make([]time.Duration, len(profiles))
		satRow := make([]time.Duration, len(profiles))
		for pi, p := range profiles {
			for _, side := range []struct {
				w    int
				want sat.Status
				row  []time.Duration
				tot  *time.Duration
			}{
				{in.UnroutableW(), sat.Unsat, unsatRow, &res.UnsatTotal[pi]},
				{in.RoutableW, sat.Sat, satRow, &res.SatTotal[pi]},
			} {
				r := solveOne(g, side.w, strategy, cfg.Timeout, portfolio.Options{Pool: cfg.Pool, Solver: p.Opts})
				if r.Err != nil {
					return nil, fmt.Errorf("experiments: %s W=%d: %w", in.Name, side.w, r.Err)
				}
				if r.Status != side.want && r.Status != sat.Unknown {
					return nil, fmt.Errorf("experiments: %s W=%d: got %v, want %v",
						in.Name, side.w, r.Status, side.want)
				}
				elapsed := r.SolveTime
				side.row[pi] = elapsed
				*side.tot += elapsed
				if cfg.Progress != nil {
					fmt.Fprintf(cfg.Progress, "%-10s W=%d profile=%-10s %8.2fs %v\n",
						in.Name, side.w, p.Name, elapsed.Seconds(), r.Status)
				}
			}
		}
		res.Instances = append(res.Instances, in.Name)
		res.UnsatTimes = append(res.UnsatTimes, unsatRow)
		res.SatTimes = append(res.SatTimes, satRow)
	}
	return res, nil
}

// Markdown renders both sides of the comparison.
func (r *SolverCompareResult) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Solver-profile comparison (strategy %s)\n\n", r.Strategy)
	sb.WriteString("Analog of the paper's siege_v4 vs MiniSat study, using the built-in solver's profiles.\n\n")
	for _, side := range []struct {
		title string
		times [][]time.Duration
		total []time.Duration
	}{
		{"Unsatisfiable (W-1, unroutable)", r.UnsatTimes, r.UnsatTotal},
		{"Satisfiable (W, routable)", r.SatTimes, r.SatTotal},
	} {
		fmt.Fprintf(&sb, "**%s** [s]\n\n", side.title)
		header := append([]string{"Benchmark"}, r.Profiles...)
		var rows [][]string
		for ii, name := range r.Instances {
			row := []string{name}
			for _, d := range side.times[ii] {
				row = append(row, fmtDur(d, false))
			}
			rows = append(rows, row)
		}
		totalRow := []string{"**Total**"}
		for _, d := range side.total {
			totalRow = append(totalRow, fmtDur(d, false))
		}
		rows = append(rows, totalRow)
		sb.WriteString(markdownTable(header, rows))
		sb.WriteString("\n")
	}
	return sb.String()
}
