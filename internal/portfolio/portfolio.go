// Package portfolio runs several (encoding, symmetry-heuristic)
// strategies on the same detailed-routing problem in parallel and
// returns the first answer, cancelling the rest — the multicore
// portfolio approach of the paper's Sect. 6. Each strategy runs in its
// own goroutine with its own solver; cancellation is context-based, so
// losers terminate promptly once a winner reports, and a caller's
// timeout or cancel propagates to every member.
package portfolio

import (
	"fmt"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/sat"
)

// Metric names emitted by Run. Per-strategy metrics append
// "." plus the strategy name (e.g. "portfolio.solve.ITE-log/s1").
const (
	MetricEncode       = "portfolio.encode"           // timer: CNF generation per strategy
	MetricSolve        = "portfolio.solve"            // timer: SAT solve + decode per strategy
	MetricCNFVars      = "portfolio.cnf_vars"         // gauge per strategy
	MetricCNFClauses   = "portfolio.cnf_clauses"      // gauge per strategy
	MetricWins         = "portfolio.wins"             // counter per strategy
	MetricWinnerMargin = "portfolio.winner_margin_ns" // gauge: runner-up lag behind the winner
)

// Result is the outcome of one strategy within a portfolio run.
type Result struct {
	Strategy core.Strategy
	Status   sat.Status
	Colors   []int // decoded coloring for Sat results
	Elapsed  time.Duration
	// Telemetry: where the strategy's time went and how big its CNF
	// was. EncodeTime + SolveTime ≈ Elapsed.
	EncodeTime time.Duration
	SolveTime  time.Duration
	Vars       int
	Clauses    int
	Stats      sat.Stats
	Winner     bool
	// Attempts counts how many times the lane ran, ≥ 2 when the retry
	// policy re-ran it with an escalated conflict budget.
	Attempts int
	// Err carries the lane's failure: a decode/verification failure, a
	// *robust.SoundnessError from paranoid mode, or a
	// *robust.PanicError when the lane crashed and was isolated.
	Err error
}

// combine selects the winner (the fastest error-free definite answer)
// and detects contradictory definite answers: if one strategy proved
// Sat and another proved Unsat, at least one encoding is unsound and
// the disagreement must surface as a loud error rather than being
// resolved in favour of the faster strategy.
func combine(results []Result) (winner int, err error) {
	winner = -1
	firstSat, firstUnsat := -1, -1
	for i, r := range results {
		if r.Err != nil || r.Status == sat.Unknown {
			continue
		}
		switch r.Status {
		case sat.Sat:
			if firstSat < 0 {
				firstSat = i
			}
		case sat.Unsat:
			if firstUnsat < 0 {
				firstUnsat = i
			}
		}
		if winner < 0 || r.Elapsed < results[winner].Elapsed {
			winner = i
		}
	}
	if firstSat >= 0 && firstUnsat >= 0 {
		return -1, fmt.Errorf(
			"portfolio: contradictory answers: strategy %s reports Sat but strategy %s reports Unsat; at least one encoding is unsound",
			results[firstSat].Strategy.Name(), results[firstUnsat].Strategy.Name())
	}
	return winner, nil
}

// winnerMargin returns how much later the best non-winning strategy
// finished. For cancelled losers this measures cancellation latency.
func winnerMargin(results []Result, winner int) (time.Duration, bool) {
	best := time.Duration(-1)
	for i, r := range results {
		if i == winner {
			continue
		}
		if best < 0 || r.Elapsed < best {
			best = r.Elapsed
		}
	}
	if best < 0 {
		return 0, false
	}
	margin := best - results[winner].Elapsed
	if margin < 0 {
		margin = 0 // a loser can time-stamp earlier than the winner's own Elapsed
	}
	return margin, true
}

// Strategies parses a list of strategy specs ("encoding/heuristic").
func Strategies(specs ...string) ([]core.Strategy, error) {
	out := make([]core.Strategy, len(specs))
	for i, s := range specs {
		st, err := core.ParseStrategy(s)
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}

// PaperPortfolio3 returns the paper's three-strategy portfolio:
// ITE-linear-2+muldirect/s1, muldirect-3+muldirect/s1 and
// ITE-linear-2+direct/s1.
func PaperPortfolio3() ([]core.Strategy, error) {
	return Strategies(
		"ITE-linear-2+muldirect/s1",
		"muldirect-3+muldirect/s1",
		"ITE-linear-2+direct/s1",
	)
}

// PaperPortfolio2 returns the paper's two-strategy portfolio (the
// first two members of PaperPortfolio3).
func PaperPortfolio2() ([]core.Strategy, error) {
	ss, err := PaperPortfolio3()
	if err != nil {
		return nil, err
	}
	return ss[:2], nil
}

// BandwidthPortfolio returns the lane set for bandwidth-coloring
// (distance-constrained) instances: the order/ladder encoding plus the
// distance-aware direct and log encodings, all without symmetry
// breaking — the color-permutation clique heuristics are unsound when
// |c(u)-c(v)| >= d(u,v) replaces plain disequality (only translation
// and reflection preserve solutions), so BuildCSP would ignore them
// anyway.
func BandwidthPortfolio() ([]core.Strategy, error) {
	specs := make([]string, len(core.BandwidthEncodingNames))
	for i, name := range core.BandwidthEncodingNames {
		specs[i] = name + "/-"
	}
	return Strategies(specs...)
}

// Replicate expands each strategy into n copies, interleaved so a
// truncated prefix stays balanced. The copies are identical strategy
// values: under a run with a Seed they diversify through
// per-lane solver seeds, and with sharing enabled they form one
// clause-exchange group — the configuration where a cooperating
// portfolio beats a blind race of the same lanes.
func Replicate(strategies []core.Strategy, n int) []core.Strategy {
	if n < 1 {
		n = 1
	}
	out := make([]core.Strategy, 0, len(strategies)*n)
	for i := 0; i < n; i++ {
		out = append(out, strategies...)
	}
	return out
}

// Must unwraps a (strategies, error) pair, panicking on error — for
// examples and tests where the specs are compile-time constants:
//
//	strategies := portfolio.Must(portfolio.PaperPortfolio3())
func Must(ss []core.Strategy, err error) []core.Strategy {
	if err != nil {
		panic(err)
	}
	return ss
}
