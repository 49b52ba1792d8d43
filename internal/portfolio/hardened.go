package portfolio

// This file is the fault-tolerant supervision layer around the
// portfolio: every lane runs under recover() so a panic in an
// encoding, the solver or the decoder degrades the run to the
// surviving lanes instead of crashing the process; definite answers
// can be independently re-verified before being crowned ("paranoid
// mode"); and lanes whose conflict budget ran out are retried with
// escalated budgets under a per-lane watchdog, so a stuck strategy
// degrades to "slower" rather than "hung".

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
	"fpgasat/internal/share"
)

// Robustness metric names emitted by Run (and by RunMinWidth
// for lane panics).
const (
	// MetricPanics counts portfolio lanes (decision and width-search)
	// that panicked and were converted into Result.Err.
	MetricPanics = "portfolio.panics"
	// MetricRetries counts lane re-runs after an exhausted conflict
	// budget or watchdog timeout.
	MetricRetries = "robust.retries"
	// MetricVerifySat and MetricVerifyUnsat count definite answers that
	// passed paranoid-mode verification (Sat answers re-checked against
	// the conflict edges; Unsat answers replayed through the DRAT
	// machinery).
	MetricVerifySat   = "robust.verify.sat"
	MetricVerifyUnsat = "robust.verify.unsat"
	// MetricAbandoned counts lanes that stayed unresponsive one full
	// LaneTimeout past cancellation and were abandoned by the watchdog.
	MetricAbandoned = "robust.watchdog.abandoned"
)

// Clause-sharing metric names emitted by Run when Options.Share
// is set, mirroring share.Stats.
const (
	MetricShareExported   = "portfolio.share.exported"
	MetricShareFiltered   = "portfolio.share.filtered"
	MetricShareDuplicates = "portfolio.share.duplicates"
	MetricShareDropped    = "portfolio.share.dropped"
	MetricShareImported   = "portfolio.share.imported"
	MetricShareRejected   = "portfolio.share.rejected"
)

// Options configures a portfolio run. The zero value is the classic
// first-answer-wins race: fresh solvers, no telemetry, no paranoid
// checks, no retries, no watchdog.
type Options struct {
	// Metrics receives per-strategy telemetry and the robustness
	// counters; nil disables telemetry.
	Metrics *obs.Registry
	// Pool supplies lane solvers (nil builds fresh ones). The pool's
	// owner publishes its gauges; Run only draws from it. A lane that
	// panics abandons its solver instead of returning it to the pool.
	Pool *sat.Pool
	// Solver is the base solver configuration of every lane; its
	// ConflictBudget (when positive) is the unit the retry schedule
	// escalates.
	Solver sat.Options
	// Verify enables paranoid mode for Sat answers: the decoded
	// coloring is re-checked against the graph's conflict edges before
	// the lane's answer can be crowned, and a violation surfaces as a
	// *robust.SoundnessError naming the strategy.
	Verify bool
	// VerifyUnsat additionally replays Unsat answers: the formula is
	// re-encoded and re-solved with a DRAT proof writer, and the proof
	// is checked with sat.CheckDRAT. A replay that finds a satisfying
	// assignment, or a rejected proof, is a *robust.SoundnessError.
	// (A replay cancelled mid-flight is inconclusive, not unsound.)
	VerifyUnsat bool
	// LaneTimeout bounds each lane attempt, and doubles as the
	// watchdog grace period: once the run is decided (winner found or
	// caller cancelled), lanes that stay unresponsive for one more
	// LaneTimeout are abandoned with an error rather than awaited
	// forever. 0 disables both.
	LaneTimeout time.Duration
	// MaxRetries re-runs a lane whose attempt ended Unknown with an
	// exhausted conflict budget or watchdog timeout, up to this many
	// extra attempts with budgets escalated per RetrySchedule.
	MaxRetries int
	// RetrySchedule escalates Solver.ConflictBudget across retry
	// attempts (geometric doubling by default, or Luby).
	RetrySchedule robust.RetrySchedule
	// Seed, when non-zero, makes lane behaviour replayable and
	// diversified: lane i's attempt a runs its solver with a
	// sat.Options.Seed derived from (Seed, i, a), and the clause
	// exchange's import schedule derives from the same seed. When Share
	// is set and Seed is 0, an effective seed of 1 is used — replicated
	// lanes of one strategy must not retrace identical trajectories, or
	// there is nothing to share.
	Seed int64
	// Share, when non-nil, connects lanes through a bounded
	// learnt-clause exchange (see internal/share). Clauses flow only
	// between lanes running the same strategy — different strategies
	// encode into different variable spaces — so a heterogeneous
	// portfolio shares within its same-strategy subsets; use Replicate
	// to build a same-strategy lane set worth sharing across. Lanes
	// whose strategy appears once run unhooked at zero overhead.
	// Share.Seed defaults to the run's effective Seed.
	Share *share.Options
}

// laneSetup carries a lane's identity-derived configuration: its
// solver seed base and its port into the clause exchange (nil when
// sharing is off or the lane has no same-strategy peer).
type laneSetup struct {
	seed  int64
	share *share.Lane
}

// Run solves the k-coloring of g with all strategies concurrently.
// The first error-free definite answer wins and cancels the rest (they
// report Unknown); the run also ends early when ctx is cancelled or
// its deadline passes. It returns the winning result and the
// per-strategy results in input order.
//
// Every lane runs under the supervision layer: panic isolation, and,
// as opts configures them, answer self-checking, budgeted retries and
// a lane watchdog. An error is returned if no strategy produced an
// answer, if two strategies produced contradictory definite answers,
// or if paranoid mode caught a soundness violation — an encoding bug
// must not be masked by crowning the faster lane.
func Run(ctx context.Context, g *graph.Graph, k int, strategies []core.Strategy, opts Options) (Result, []Result, error) {
	if len(strategies) == 0 {
		return Result{}, nil, fmt.Errorf("portfolio: no strategies")
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	seed := opts.Seed
	lanes := make([]laneSetup, len(strategies))
	var ex *share.Exchange
	if opts.Share != nil {
		if seed == 0 {
			seed = 1
		}
		so := *opts.Share
		if so.Seed == 0 {
			so.Seed = seed
		}
		groups := make([]string, len(strategies))
		for i, s := range strategies {
			groups[i] = s.Name()
		}
		ex = share.NewExchange(groups, so)
		defer ex.Close()
		// Unblock deterministic-mode waiters the moment the run is
		// decided or the caller cancels, not when the last lane exits.
		go func() {
			<-runCtx.Done()
			ex.Close()
		}()
		for i := range strategies {
			if l := ex.Lane(i); l.Peers() > 0 {
				lanes[i].share = l
			}
		}
	}
	if seed != 0 {
		for i := range lanes {
			lanes[i].seed = share.MixSeed(seed, int64(i))
		}
	}

	type laneOut struct {
		i   int
		res Result
	}
	// Buffered so abandoned lanes can still deliver (to nobody) without
	// leaking a blocked goroutine.
	ch := make(chan laneOut, len(strategies))
	for i, s := range strategies {
		go func(i int, s core.Strategy) {
			res := runLane(runCtx, g, k, s, opts, lanes[i])
			if res.Err == nil && res.Status != sat.Unknown {
				cancel() // first definite answer terminates the rest
			}
			ch <- laneOut{i, res}
		}(i, s)
	}

	results := make([]Result, len(strategies))
	received := make([]bool, len(strategies))
	remaining := len(strategies)
	var grace *time.Timer
	var graceC <-chan time.Time
	// The watchdog timer is armed inside the collect loop; stopping it
	// here (rather than after the loop) covers every exit path — early
	// returns below and any future ones — so fast runs never strand a
	// live timer.
	defer func() {
		if grace != nil {
			grace.Stop()
		}
	}()
collect:
	for remaining > 0 {
		doneC := runCtx.Done()
		if opts.LaneTimeout <= 0 || graceC != nil {
			doneC = nil // watchdog disabled, or grace period already armed
		}
		select {
		case out := <-ch:
			results[out.i] = out.res
			received[out.i] = true
			remaining--
		case <-doneC:
			// The run is decided; give stragglers one LaneTimeout of
			// grace before declaring them hung.
			grace = time.NewTimer(opts.LaneTimeout)
			graceC = grace.C
		case <-graceC:
			for i := range results {
				if received[i] {
					continue
				}
				results[i] = Result{
					Strategy: strategies[i],
					Status:   sat.Unknown,
					Err: fmt.Errorf("portfolio: lane %s unresponsive for %v after cancellation; abandoned by watchdog",
						strategies[i].Name(), opts.LaneTimeout),
				}
				if opts.Metrics != nil {
					opts.Metrics.Counter(MetricAbandoned).Inc()
				}
			}
			break collect
		}
	}
	if ex != nil && opts.Metrics != nil {
		// Sampled at decision time: lanes still draining after an early
		// break are not waited for, the counters reflect the exchange
		// activity that could have influenced this answer.
		ss := ex.Stats()
		opts.Metrics.Counter(MetricShareExported).Add(ss.Exported)
		opts.Metrics.Counter(MetricShareFiltered).Add(ss.Filtered)
		opts.Metrics.Counter(MetricShareDuplicates).Add(ss.Duplicates)
		opts.Metrics.Counter(MetricShareDropped).Add(ss.Dropped)
		opts.Metrics.Counter(MetricShareImported).Add(ss.Imported)
		opts.Metrics.Counter(MetricShareRejected).Add(ss.Rejected)
	}

	// A caught soundness violation must fail the run loudly — masking
	// it behind a faster healthy lane would hide a corrupted encoding.
	for i := range results {
		if se, ok := robust.AsSoundness(results[i].Err); ok {
			return Result{}, results, fmt.Errorf("portfolio: %w", se)
		}
	}

	winner, err := combine(results)
	if err != nil {
		return Result{}, results, err
	}
	if winner < 0 {
		for _, r := range results {
			if r.Err != nil {
				return Result{}, results, fmt.Errorf("portfolio: strategy %s failed: %w",
					r.Strategy.Name(), r.Err)
			}
		}
		return Result{}, results, fmt.Errorf("portfolio: no strategy answered within the timeout")
	}
	results[winner].Winner = true
	if opts.Metrics != nil {
		opts.Metrics.Counter(MetricWins + "." + results[winner].Strategy.Name()).Inc()
		if margin, ok := winnerMargin(results, winner); ok {
			opts.Metrics.Gauge(MetricWinnerMargin).Set(int64(margin))
		}
	}
	return results[winner], results, nil
}

// runLane supervises one portfolio member across its retry attempts.
// An attempt that ends Unknown with the parent context still live —
// an exhausted conflict budget or an expired per-attempt watchdog —
// is retried with an escalated budget, up to opts.MaxRetries times.
func runLane(ctx context.Context, g *graph.Graph, k int, s core.Strategy, opts Options, lane laneSetup) Result {
	if lane.share != nil {
		// A closed lane publishes its remaining clauses and releases any
		// deterministic-mode peer waiting on its next round, whether this
		// lane answered, was cancelled, or exhausted its retries.
		defer lane.share.Close()
	}
	base := opts.Solver.ConflictBudget
	var res Result
	for attempt := 0; ; attempt++ {
		solverOpts := opts.Solver
		if base > 0 {
			solverOpts.ConflictBudget = opts.RetrySchedule.Budget(base, attempt)
		}
		if lane.seed != 0 {
			// Re-derive per attempt so a retried lane does not retrace the
			// trajectory that just exhausted its budget.
			solverOpts.Seed = share.MixSeed(lane.seed, int64(attempt))
		}
		if lane.share != nil {
			solverOpts.Exchange = lane.share
		}
		attemptCtx := ctx
		var cancelAttempt context.CancelFunc
		if opts.LaneTimeout > 0 {
			attemptCtx, cancelAttempt = context.WithTimeout(ctx, opts.LaneTimeout)
		}
		res = runAttempt(attemptCtx, g, k, s, opts, solverOpts)
		if cancelAttempt != nil {
			cancelAttempt()
		}
		res.Attempts = attempt + 1
		switch {
		case res.Err != nil || res.Status != sat.Unknown:
			return res // answered, or failed in a way retrying cannot fix
		case ctx.Err() != nil:
			return res // the run is over; an extra attempt helps nobody
		case attempt >= opts.MaxRetries:
			return res
		case base <= 0 && opts.LaneTimeout <= 0:
			// Unknown without a budget or watchdog means an external
			// Stop; the identical attempt would just repeat it.
			return res
		}
		if opts.Metrics != nil {
			opts.Metrics.Counter(MetricRetries).Inc()
		}
	}
}

// runAttempt executes one lane attempt — encode, solve, decode, then
// the paranoid checks — under recover(): a panic anywhere in the
// attempt becomes a *robust.PanicError in Result.Err, increments the
// portfolio.panics counter, and abandons the lane's solver (a crashed
// solver's state is suspect and must not re-enter the pool).
func runAttempt(ctx context.Context, g *graph.Graph, k int, s core.Strategy, opts Options, solverOpts sat.Options) (res Result) {
	res = Result{Strategy: s, Status: sat.Unknown}
	name := s.Name()
	reg := opts.Metrics
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			res.Status = sat.Unknown
			res.Colors = nil
			res.Err = robust.NewPanicError("portfolio lane "+name, p)
			res.Elapsed = time.Since(start)
			if reg != nil {
				reg.Counter(MetricPanics).Inc()
			}
		}
	}()
	// Fired before the cancellation check so fault injection reaches
	// the lane even when a sibling already won the race.
	robust.Hit(robust.FPPortfolioLane, name)
	if ctx.Err() != nil {
		return res // cancelled before this member even encoded
	}

	var solver *sat.Solver
	if opts.Pool != nil {
		solver = opts.Pool.Get(solverOpts)
	} else {
		solver = sat.New(solverOpts)
	}

	span := reg.StartSpan(MetricEncode + "." + name)
	csp := core.BuildCSP(g, k, s.Symmetry)
	enc := core.EncodeInto(csp, s.Encoding, sat.SolverSink{S: solver})
	res.EncodeTime = span.End()
	res.Vars = enc.NumVars
	res.Clauses = enc.StructuralClauses + enc.ConflictClauses
	if reg != nil {
		reg.Gauge(MetricCNFVars + "." + name).Set(int64(res.Vars))
		reg.Gauge(MetricCNFClauses + "." + name).Set(int64(res.Clauses))
	}

	span = reg.StartSpan(MetricSolve + "." + name)
	st := solver.SolveAssumingContext(ctx)
	res.Status = st
	res.Stats = solver.Stats
	if st == sat.Sat {
		colors, err := enc.DecodeVerify(solver.Model())
		res.Colors = colors
		if err != nil {
			// A model that fails decode-verification is an encoding
			// soundness bug, not a lane hiccup.
			res.Err = &robust.SoundnessError{Strategy: name, Claim: "Sat", Err: err}
			res.Status = sat.Unknown
			res.Colors = nil
		}
	}
	res.SolveTime = span.End()
	// The solve is over and the model decoded: return the solver before
	// the (potentially slow) paranoid checks so other work can reuse it.
	if opts.Pool != nil {
		opts.Pool.Put(solver)
	}

	robust.Hit(robust.FPPortfolioLaneResult, name, &res)
	if res.Err == nil {
		verifyAnswer(ctx, g, k, s, opts, &res)
	}
	res.Elapsed = time.Since(start)
	return res
}

// verifyAnswer is paranoid mode: re-check a definite answer through an
// independent path before it can be crowned. Sat answers are verified
// against the graph's conflict edges directly (not through the
// encoding's own bookkeeping); Unsat answers are replayed through the
// DRAT machinery. Failures become *robust.SoundnessError.
func verifyAnswer(ctx context.Context, g *graph.Graph, k int, s core.Strategy, opts Options, res *Result) {
	reg := opts.Metrics
	switch res.Status {
	case sat.Sat:
		if !opts.Verify {
			return
		}
		if err := coloring.Verify(g, res.Colors, k); err != nil {
			res.Err = &robust.SoundnessError{Strategy: s.Name(), Claim: "Sat", Err: err}
			res.Status = sat.Unknown
			res.Colors = nil
			return
		}
		if reg != nil {
			reg.Counter(MetricVerifySat).Inc()
		}
	case sat.Unsat:
		if !opts.VerifyUnsat {
			return
		}
		verified, err := replayUnsat(ctx, g, k, s, opts.Pool)
		if err != nil {
			res.Err = &robust.SoundnessError{Strategy: s.Name(), Claim: "Unsat", Err: err}
			res.Status = sat.Unknown
			return
		}
		if verified && reg != nil {
			reg.Counter(MetricVerifyUnsat).Inc()
		}
	}
}

// replayUnsat re-encodes the lane's problem as a materialized formula,
// re-solves it with a DRAT proof writer and checks the proof — the
// strongest independent evidence of unsatisfiability this module can
// produce. The replay validates the solver, and cross-checks the
// lane's claim against a second solve; encoding-level unsoundness that
// both runs share is instead caught by the portfolio's Sat/Unsat and
// minimum-width disagreement guards. Returns (false, nil) when the
// replay was cancelled mid-flight: inconclusive, not unsound.
func replayUnsat(ctx context.Context, g *graph.Graph, k int, s core.Strategy, pool *sat.Pool) (bool, error) {
	enc := s.EncodeGraph(g, k)
	var proof bytes.Buffer
	r := sat.SolveCNFReusing(ctx, pool, enc.CNF, sat.Options{ProofWriter: &proof})
	switch r.Status {
	case sat.Sat:
		return false, fmt.Errorf("replay of the encoded formula found a satisfying assignment")
	case sat.Unknown:
		return false, nil
	}
	if err := sat.CheckDRAT(enc.CNF, bytes.NewReader(proof.Bytes())); err != nil {
		return false, fmt.Errorf("DRAT replay certificate rejected: %w", err)
	}
	return true, nil
}
