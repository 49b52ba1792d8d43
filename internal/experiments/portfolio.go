package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
)

// PortfolioConfig controls the portfolio study of Sect. 6.
type PortfolioConfig struct {
	Instances []mcnc.Instance // defaults to mcnc.Table2Instances()
	Timeout   time.Duration
	Progress  io.Writer
	// Obs, when non-nil, receives per-strategy portfolio telemetry
	// (encode/solve timers, CNF sizes, wins, winner margin).
	Obs *obs.Registry
	// Pool, when non-nil, supplies reusable solvers to the single-
	// strategy baseline and every portfolio lane; nil solves on fresh
	// solvers throughout.
	Pool *sat.Pool
	// Verify and VerifyUnsat enable paranoid-mode answer checking of
	// every portfolio run; LaneTimeout and MaxRetries configure the
	// per-lane watchdog and budgeted retry policy (see
	// portfolio.Options).
	Verify      bool
	VerifyUnsat bool
	LaneTimeout time.Duration
	MaxRetries  int
}

// PortfolioResult compares the best single strategy against the
// paper's 2- and 3-strategy portfolios on the unroutable
// configurations.
type PortfolioResult struct {
	Instances []string
	// Per instance: single strategy, portfolio of 2, portfolio of 3.
	Single, P2, P3 []time.Duration
	// Winners3[i] is the winning strategy of the 3-portfolio.
	Winners3    []string
	TotalSingle time.Duration
	TotalP2     time.Duration
	TotalP3     time.Duration
}

// RunPortfolio measures wall-clock time of (a) the best single
// strategy ITE-linear-2+muldirect/s1, (b) the paper's 2-strategy
// portfolio and (c) its 3-strategy portfolio on each unroutable
// configuration. Portfolio members run concurrently; on a single-core
// host the portfolio's advantage comes purely from strategy variance
// (see EXPERIMENTS.md).
func RunPortfolio(cfg PortfolioConfig) (*PortfolioResult, error) {
	if cfg.Instances == nil {
		cfg.Instances = mcnc.Table2Instances()
	}
	single, err := core.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		return nil, err
	}
	p2, err := portfolio.PaperPortfolio2()
	if err != nil {
		return nil, err
	}
	p3, err := portfolio.PaperPortfolio3()
	if err != nil {
		return nil, err
	}
	laneOpts := portfolio.Options{
		Metrics:     cfg.Obs,
		Pool:        cfg.Pool,
		Verify:      cfg.Verify,
		VerifyUnsat: cfg.VerifyUnsat,
		LaneTimeout: cfg.LaneTimeout,
		MaxRetries:  cfg.MaxRetries,
	}
	res := &PortfolioResult{}
	for _, in := range cfg.Instances {
		g, translate, err := BuildInstance(in)
		if err != nil {
			return nil, err
		}
		w := in.UnroutableW()

		t := RunStrategy(g, w, single, translate, cfg.Timeout, cfg.Pool)
		res.Single = append(res.Single, t.Total())
		res.TotalSingle += t.Total()

		for pi, members := range [][]core.Strategy{p2, p3} {
			start := time.Now()
			ctx := context.Background()
			cancel := context.CancelFunc(func() {})
			if cfg.Timeout > 0 {
				ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
			}
			winner, _, err := portfolio.Run(ctx, g, w, members, laneOpts)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s portfolio: %w", in.Name, err)
			}
			if winner.Status == sat.Sat {
				return nil, fmt.Errorf("experiments: %s at W=%d claims routable; calibration broken", in.Name, w)
			}
			elapsed := translate + time.Since(start)
			if pi == 0 {
				res.P2 = append(res.P2, elapsed)
				res.TotalP2 += elapsed
			} else {
				res.P3 = append(res.P3, elapsed)
				res.TotalP3 += elapsed
				res.Winners3 = append(res.Winners3, winner.Strategy.Name())
			}
			if cfg.Progress != nil {
				fmt.Fprintf(cfg.Progress, "%-10s portfolio-%d %8.2fs winner=%s\n",
					in.Name, pi+2, elapsed.Seconds(), winner.Strategy.Name())
			}
		}
		res.Instances = append(res.Instances, in.Name)
	}
	return res, nil
}

// SpeedupP2 returns total single / total 2-portfolio.
func (r *PortfolioResult) SpeedupP2() float64 {
	return r.TotalSingle.Seconds() / r.TotalP2.Seconds()
}

// SpeedupP3 returns total single / total 3-portfolio.
func (r *PortfolioResult) SpeedupP3() float64 {
	return r.TotalSingle.Seconds() / r.TotalP3.Seconds()
}

// Markdown renders the comparison.
func (r *PortfolioResult) Markdown() string {
	var sb strings.Builder
	sb.WriteString("### Portfolio study — wall-clock time [s] proving unroutability at W-1\n\n")
	header := []string{"Benchmark", "ITE-linear-2+muldirect/s1", "portfolio of 2", "portfolio of 3", "3-portfolio winner"}
	var rows [][]string
	for i, name := range r.Instances {
		rows = append(rows, []string{
			name,
			fmtDur(r.Single[i], false),
			fmtDur(r.P2[i], false),
			fmtDur(r.P3[i], false),
			r.Winners3[i],
		})
	}
	rows = append(rows, []string{"**Total**",
		fmtDur(r.TotalSingle, false), fmtDur(r.TotalP2, false), fmtDur(r.TotalP3, false), ""})
	rows = append(rows, []string{"**Speedup vs single**", "1.00×",
		fmt.Sprintf("%.2f×", r.SpeedupP2()), fmt.Sprintf("%.2f×", r.SpeedupP3()), ""})
	sb.WriteString(markdownTable(header, rows))
	return sb.String()
}
