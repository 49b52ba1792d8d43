package fpgasat

// A Session is the facade-level entry point for callers that solve
// many problems — CLI batch runs, experiment sweeps, a long-lived
// service. It owns a solver pool so that every solve, width search and
// portfolio run draws an arena-backed solver whose clause storage,
// watch lists and trail keep the capacity of earlier problems, and it
// records the solver-reuse and arena gauges (sat.reset.*, sat.arena.*)
// into its metrics registry so the memory behaviour is visible in
// -metrics-out dumps.

import (
	"context"
	"fmt"

	"fpgasat/internal/portfolio"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
)

// Pool-related re-exports.
type (
	// SolverPool is a concurrency-safe pool of reusable solvers.
	SolverPool = sat.Pool
	// SolverPoolStats snapshots pool activity (gets, reuses, arena
	// footprint of the last returned solver).
	SolverPoolStats = sat.PoolStats
	// SolverArenaStats snapshots one solver's clause-arena state.
	SolverArenaStats = sat.ArenaStats
)

// Session metric names (gauges in the session's Metrics registry).
const (
	// MetricPoolSolvers is the cumulative number of solvers the session
	// pool handed out; MetricPoolReuses counts how many of those were
	// recycled instances rather than fresh allocations.
	MetricPoolSolvers = "sat.reset.solvers"
	MetricPoolReuses  = "sat.reset.count"
	// MetricArenaWords / MetricArenaCapWords sample the clause-arena
	// length and capacity of the most recently pooled solver.
	MetricArenaWords    = "sat.arena.words"
	MetricArenaCapWords = "sat.arena.cap_words"
	// MetricPoolFreedWords accumulates the arena words reclaimed by
	// garbage compaction across all pooled solvers.
	MetricPoolFreedWords = "sat.arena.freed_words"
	// MetricPoolOversized counts solvers the pool dropped instead of
	// retaining because their footprint exceeded the pool cap.
	MetricPoolOversized = "sat.reset.oversized"
)

// Session is a reusable solving context: one solver pool plus an
// optional metrics registry shared by all its operations. Create one
// per process (or per tenant) and use it for every request; it is safe
// for concurrent use.
type Session struct {
	pool    SolverPool
	metrics *Metrics
}

// NewSession returns a Session recording into m, which may be nil for
// no telemetry.
func NewSession(m *Metrics) *Session {
	return &Session{metrics: m}
}

// Pool exposes the session's solver pool, e.g. to thread into
// lower-level APIs (SearchOptions.Pool) or experiment runners.
func (s *Session) Pool() *SolverPool { return &s.pool }

// Metrics returns the session's registry (nil when none was given).
func (s *Session) Metrics() *Metrics { return s.metrics }

// PoolStats snapshots the session pool's reuse counters, publishing
// them to the session's metrics registry as a side effect — call it
// before dumping metrics when the pool was driven through Pool()
// rather than the Session methods.
func (s *Session) PoolStats() SolverPoolStats {
	s.recordPoolMetrics()
	return s.pool.Stats()
}

// recordPoolMetrics publishes the pool's reuse and arena gauges.
func (s *Session) recordPoolMetrics() {
	if s.metrics == nil {
		return
	}
	ps := s.pool.Stats()
	s.metrics.Gauge(MetricPoolSolvers).Set(ps.Gets)
	s.metrics.Gauge(MetricPoolReuses).Set(ps.Reuses)
	s.metrics.Gauge(MetricArenaWords).Set(ps.ArenaWords)
	s.metrics.Gauge(MetricArenaCapWords).Set(ps.ArenaCapWords)
	s.metrics.Gauge(MetricPoolFreedWords).Set(ps.FreedWords)
	s.metrics.Gauge(MetricPoolOversized).Set(ps.Oversized)
}

// SolveCNF solves a formula on a pooled solver with context-based
// cancellation — the session counterpart of SolveCNFContext. The solve
// is supervised: a panicking solver is converted into a
// *robust.PanicError in SolveResult.Err (Status Unknown) and its
// corrupted instance is abandoned instead of returning to the pool.
func (s *Session) SolveCNF(ctx context.Context, c *CNF, opts SolverOptions) SolveResult {
	var res SolveResult
	if err := robust.Capture("session CNF solve", func() {
		robust.Hit(robust.FPSessionSolve, "cnf")
		res = sat.SolveCNFReusing(ctx, &s.pool, c, opts)
	}); err != nil {
		res = SolveResult{Status: Unknown, Err: err}
	}
	s.recordPoolMetrics()
	return res
}

// SolveGraph solves the k-coloring of g under one strategy on a pooled
// solver: a one-strategy portfolio run, so the encoding streams
// straight into the solver's clause arena (no intermediate CNF). For
// Sat it returns the verified coloring; a timeout is Unknown with a nil
// error. The portfolio lane supervises the solve: a panic anywhere in
// encode, solve or decode comes back as a *robust.PanicError (Status
// Unknown) and the crashed solver is abandoned instead of returning to
// the pool, and a model that fails decode-verification comes back as
// Unknown with a *robust.SoundnessError.
func (s *Session) SolveGraph(ctx context.Context, g *Graph, k int, strategy Strategy, opts SolverOptions) (Status, []int, error) {
	if strategy.Encoding == nil {
		return Unknown, nil, fmt.Errorf("fpgasat: strategy lacks an encoding")
	}
	_, all, _ := portfolio.Run(ctx, g, k, []Strategy{strategy}, portfolio.Options{Pool: &s.pool, Solver: opts})
	s.recordPoolMetrics()
	r := all[0]
	return r.Status, r.Colors, r.Err
}

// MinWidth runs the incremental minimum-width search on a pooled
// solver, with the session's metrics registry filled in when the
// options leave it nil.
func (s *Session) MinWidth(ctx context.Context, g *Graph, opts SearchOptions) (*SearchResult, error) {
	if opts.Pool == nil {
		opts.Pool = &s.pool
	}
	if opts.Metrics == nil {
		opts.Metrics = s.metrics
	}
	res, err := search.MinWidth(ctx, g, opts)
	s.recordPoolMetrics()
	return res, err
}

// Portfolio races the strategies on the k-coloring of g (see
// RunPortfolio). opts.Pool and opts.Metrics default to the session's
// pool and registry, so every lane draws its solver from the session
// pool and records its telemetry into the session's metrics.
func (s *Session) Portfolio(ctx context.Context, g *Graph, k int, strategies []Strategy, opts PortfolioOptions) (PortfolioResult, []PortfolioResult, error) {
	if opts.Metrics == nil {
		opts.Metrics = s.metrics
	}
	if opts.Pool == nil {
		opts.Pool = &s.pool
	}
	win, all, err := portfolio.Run(ctx, g, k, strategies, opts)
	s.recordPoolMetrics()
	return win, all, err
}

// MinWidthPortfolio races the incremental width search across
// strategies, sharing the session pool between members.
func (s *Session) MinWidthPortfolio(ctx context.Context, g *Graph, opts SearchOptions, strategies []Strategy) (WidthResult, []WidthResult, error) {
	if opts.Pool == nil {
		opts.Pool = &s.pool
	}
	win, all, err := portfolio.RunMinWidth(ctx, g, opts, strategies, s.metrics)
	s.recordPoolMetrics()
	return win, all, err
}
