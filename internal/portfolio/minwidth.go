package portfolio

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
	"fpgasat/internal/search"
)

// Metric names emitted by RunMinWidth, in addition to the
// search.minwidth.* metrics each member records under its strategy
// suffix.
const (
	// MetricMinWidthWins counts width-search portfolio wins per
	// strategy (suffixed ".<strategy>").
	MetricMinWidthWins = "portfolio.minwidth.wins"
)

// WidthResult is one strategy's outcome within a minimum-width
// portfolio run.
type WidthResult struct {
	Strategy core.Strategy
	// Search is the strategy's width-search result (possibly partial if
	// the member was cancelled); nil when Err is set before searching.
	Search  *search.Result
	Elapsed time.Duration
	Winner  bool
	Err     error
}

// RunMinWidth races the incremental minimum-width search across
// strategies: each member encodes once into its own incremental solver
// and walks the width range (opts.Lo..opts.Hi, descending or binary per
// opts) under assumptions. The first member to complete the search —
// prove its minimum width optimal — wins and the rest are cancelled.
// This races strategies on the whole search rather than on a single
// decision problem, so a strategy that is fast on Sat probes but slow
// on the final Unsat proof does not win on partial progress.
//
// opts.Strategy, opts.Metrics and opts.MetricSuffix are overridden per
// member (the suffix becomes the strategy name); opts.Pool, when
// non-nil, is shared by all members so sequential runs reuse lane
// solvers, and nil gives every member a fresh solver. Two members that
// both complete but disagree on the minimum width indicate an unsound
// encoding and surface as a loud error, mirroring Run's Sat/Unsat
// disagreement guard.
func RunMinWidth(ctx context.Context, g *graph.Graph, opts search.Options, strategies []core.Strategy, reg *obs.Registry) (WidthResult, []WidthResult, error) {
	if len(strategies) == 0 {
		return WidthResult{}, nil, fmt.Errorf("portfolio: no strategies")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]WidthResult, len(strategies))
	var wg sync.WaitGroup
	for i, s := range strategies {
		wg.Add(1)
		go func(i int, s core.Strategy) {
			defer wg.Done()
			memberOpts := opts
			memberOpts.Strategy = s
			memberOpts.Metrics = reg
			memberOpts.MetricSuffix = s.Name()
			start := time.Now()
			res, err := search.MinWidth(runCtx, g, memberOpts)
			if _, ok := robust.AsPanic(err); ok && reg != nil {
				// A crashed width-search lane degrades the portfolio to
				// the survivors, same as a crashed decision lane.
				reg.Counter(MetricPanics).Inc()
			}
			results[i] = WidthResult{
				Strategy: s,
				Search:   res,
				Elapsed:  time.Since(start),
				Err:      err,
			}
			if err == nil && res.ProvedOptimal {
				cancel() // first completed search terminates the rest
			}
		}(i, s)
	}
	wg.Wait()

	winner := -1
	for i, r := range results {
		if r.Err != nil || r.Search == nil || !r.Search.ProvedOptimal {
			continue
		}
		if winner >= 0 && r.Search.MinWidth != results[winner].Search.MinWidth {
			return WidthResult{}, results, fmt.Errorf(
				"portfolio: contradictory minimum widths: strategy %s proves %d but strategy %s proves %d; at least one encoding is unsound",
				results[winner].Strategy.Name(), results[winner].Search.MinWidth,
				r.Strategy.Name(), r.Search.MinWidth)
		}
		if winner < 0 || r.Elapsed < results[winner].Elapsed {
			winner = i
		}
	}
	if winner < 0 {
		for _, r := range results {
			if r.Err != nil {
				return WidthResult{}, results, fmt.Errorf("portfolio: strategy %s failed: %w",
					r.Strategy.Name(), r.Err)
			}
		}
		return WidthResult{}, results, fmt.Errorf("portfolio: no strategy completed the width search")
	}
	results[winner].Winner = true
	if reg != nil {
		reg.Counter(MetricMinWidthWins + "." + results[winner].Strategy.Name()).Inc()
	}
	return results[winner], results, nil
}
