// Package serve is the solve-as-a-service layer behind cmd/fpgasatd:
// it turns the one-shot decide-routability-at-W flow into a
// long-running daemon that accepts solve jobs over HTTP, executes them
// on sharded pools of reusable solvers, and exposes its internals
// through the obs metrics registry.
//
// The architecture is a fixed set of size-class shards. Each shard
// owns a sat.Pool (so solvers recycle their clause arenas within a
// size class instead of ping-ponging between tiny and huge instances)
// and a group of worker goroutines draining a bounded admission queue.
// A job is classified by its conflict graph's vertex count at submit
// time; a full queue rejects the submit immediately (HTTP 429) rather
// than buffering unboundedly — callers are expected to back off and
// retry, which keeps tail latency honest under overload.
//
// Every job runs through portfolio.Run, so the daemon inherits
// the whole supervision stack: panic-isolated lanes, paranoid answer
// verification, budgeted conflict-budget retries and per-lane
// watchdogs. The per-job deadline becomes a context deadline on the
// run; a deadline that expires mid-solve surfaces as an UNDECIDED
// answer with TimedOut set and the per-lane attempt counts preserved.
//
// Shutdown is graceful: Drain stops admission (new submits fail with
// ErrDraining, /healthz flips to 503), lets the workers finish every
// queued and in-flight job, and only then returns. A drain context
// that expires instead cancels the in-flight solves, which unwind
// promptly through their cancellation polling.
package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
	"fpgasat/internal/share"
)

// Daemon metric names. Per-shard metrics append "." plus the shard
// name (e.g. "serve.queue.depth.small"); the gauges are refreshed on
// every /metrics scrape.
const (
	// MetricJobsSubmitted counts jobs admitted to a queue;
	// MetricJobsRejected counts submits refused with ErrQueueFull.
	MetricJobsSubmitted = "serve.jobs.submitted"
	MetricJobsRejected  = "serve.jobs.rejected"
	// MetricJobsCompleted counts jobs that ran to completion (any
	// answer); MetricJobsTimeout the subset whose deadline expired
	// mid-solve; MetricJobsFailed the subset that ended with an error
	// and no definite answer (lane panics, soundness violations).
	MetricJobsCompleted = "serve.jobs.completed"
	MetricJobsTimeout   = "serve.jobs.timeout"
	MetricJobsFailed    = "serve.jobs.failed"
	// MetricJobsRetained gauges the jobs currently held in the job
	// table (queued, running and done-but-not-yet-GCed).
	MetricJobsRetained = "serve.jobs.retained"
	// MetricQueueWait times how long jobs sat queued before a worker
	// picked them up; MetricSolve times the solve itself.
	MetricQueueWait = "serve.queue.wait"
	MetricSolve     = "serve.solve"
	// Per-shard gauges: current queue depth and capacity, busy and
	// total workers, and the shard pool's cumulative solver hand-outs
	// and reuses (reuses/gets is the pool hit rate).
	MetricQueueDepth  = "serve.queue.depth"
	MetricQueueCap    = "serve.queue.cap"
	MetricWorkersBusy = "serve.workers.busy"
	MetricWorkers     = "serve.workers"
	MetricPoolGets    = "serve.pool.gets"
	MetricPoolReuses  = "serve.pool.reuses"
	// MetricQueueBatch gauges the batch-class backlog per shard (the
	// main depth gauge counts both classes); MetricRetryAfter gauges
	// the Retry-After seconds the shard currently advertises on 429.
	MetricQueueBatch = "serve.queue.batch"
	MetricRetryAfter = "serve.retry.after"
	// Journal metrics: records appended, records replayed at startup,
	// unfinished jobs re-enqueued, completed results restored, torn or
	// corrupt tails truncated, write errors, and the fsync timer.
	MetricJournalRecords   = "serve.journal.records"
	MetricJournalReplayed  = "serve.journal.replayed"
	MetricJournalRecovered = "serve.journal.recovered"
	MetricJournalRestored  = "serve.journal.restored"
	MetricJournalTruncated = "serve.journal.truncated"
	MetricJournalErrors    = "serve.journal.errors"
	MetricJournalFsync     = "serve.journal.fsync"
	// Breaker metrics: the per-shard state gauge (0 closed, 1
	// half-open, 2 open), trips to open, and half-open probes admitted
	// (both per shard).
	MetricBreakerState  = "serve.breaker.state"
	MetricBreakerTrips  = "serve.breaker.trips"
	MetricBreakerProbes = "serve.breaker.probes"
	// Shed metrics: jobs rejected at dequeue because they sat queued
	// past the sojourn target, and jobs whose own deadline had already
	// expired when a worker picked them up.
	MetricShedSojourn  = "serve.shed.sojourn"
	MetricShedDeadline = "serve.shed.deadline"
)

// DefaultStrategy is the encoding/symmetry pair jobs solve with when
// the request names neither a strategy nor the portfolio: the paper's
// overall best single strategy.
const DefaultStrategy = "ITE-linear-2+muldirect/s1"

// Submit-time caps on the request knobs. A request outside these
// bounds is rejected with a *RequestError (HTTP 400) at submit instead
// of being admitted as a job doomed to fail or monopolize a shard.
const (
	// MaxSubmitWidth caps the channel width of any job: wider CSPs only
	// grow the variable count without changing routability on any
	// realistic architecture.
	MaxSubmitWidth = 1 << 16
	// MaxSubmitLanes caps lane replication per job so one request
	// cannot claim an unbounded slice of a shard's solver pool.
	MaxSubmitLanes = 64
	// MaxSubmitRetries caps the per-lane retry count (the Luby budget
	// schedule grows geometrically, so larger values are never useful
	// within a sane job deadline).
	MaxSubmitRetries = 32
)

// Sentinel errors of the admission path. The HTTP layer maps them to
// status codes (429, 503, 400).
var (
	// ErrQueueFull reports that the job's size-class shard had no queue
	// slot free. The job was not admitted; retry with backoff. Submit
	// returns it wrapped in a *QueueFullError carrying the shard's
	// adaptive Retry-After estimate.
	ErrQueueFull = fmt.Errorf("serve: shard queue full")
	// ErrDraining reports that the server has begun its graceful
	// shutdown and admits no new work.
	ErrDraining = fmt.Errorf("serve: server is draining")
	// ErrJournal reports that the job journal could not durably record
	// an accepted job; the submit is refused (retryable — the job was
	// not admitted) rather than accepted without a durability
	// guarantee.
	ErrJournal = fmt.Errorf("serve: journal write failed; job not accepted")
)

// QueueFullError is the concrete error of a queue-full rejection:
// errors.Is(err, ErrQueueFull) holds, and RetryAfter carries the
// shard's backlog-drain estimate for the 429's Retry-After header.
type QueueFullError struct {
	Shard      string
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: shard %s queue full (retry in %v)", e.Shard, e.RetryAfter.Round(time.Second))
}

// Is makes errors.Is(err, ErrQueueFull) succeed.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// RequestError marks a submit rejected because of the request itself
// (unknown instance, unparsable graph, invalid width); the HTTP layer
// maps it to 400 rather than 5xx.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return "serve: bad request: " + e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }

// badRequest wraps a validation failure as a *RequestError.
func badRequest(format string, args ...any) error {
	return &RequestError{Err: fmt.Errorf(format, args...)}
}

// ShardConfig sizes one size-class shard.
type ShardConfig struct {
	// Name labels the shard in metrics and job views.
	Name string
	// MaxVertices is the inclusive conflict-graph size bound of the
	// shard; jobs are routed to the first shard (in ascending bound
	// order) whose bound admits them. A bound <= 0 means unbounded —
	// the catch-all shard every configuration must end with.
	MaxVertices int
	// Workers is the number of concurrent solve workers (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a submit that finds the
	// queue full fails with ErrQueueFull (default 64).
	QueueDepth int
}

// DefaultShards returns the default three-class layout: "small" for
// MCNC-scale graphs, "medium" for the tile-templated scaled instances,
// and an unbounded "large" catch-all with few workers (large jobs are
// memory-hungry; fewer in flight keeps the arenas bounded).
func DefaultShards() []ShardConfig {
	return []ShardConfig{
		{Name: "small", MaxVertices: 4096, Workers: 4, QueueDepth: 256},
		{Name: "medium", MaxVertices: 1 << 18, Workers: 2, QueueDepth: 64},
		{Name: "large", MaxVertices: 0, Workers: 1, QueueDepth: 8},
	}
}

// Options configures a Server. The zero value serves with
// DefaultShards, a fresh metrics registry and the documented default
// deadlines and retention.
type Options struct {
	// Shards is the size-class layout; nil selects DefaultShards().
	// Shards are sorted by bound; exactly the unbounded ones must have
	// MaxVertices <= 0 and at least one is required as catch-all.
	Shards []ShardConfig
	// Metrics receives all daemon, portfolio and robustness telemetry;
	// nil creates a private registry (exposed via Metrics()).
	Metrics *obs.Registry
	// DefaultDeadline applies to jobs that set none (default 1m);
	// MaxDeadline clamps every job deadline (default 10m, <0 disables
	// the clamp).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Verify forces paranoid mode on every job regardless of the
	// request: Sat answers re-checked against conflict edges, Unsat
	// answers replayed through the DRAT checker.
	Verify bool
	// RetainJobs is how long completed jobs stay queryable before the
	// janitor deletes them (default 15m). MaxJobs additionally caps the
	// job table, evicting the oldest completed jobs first (default
	// 16384). GCInterval is the janitor period (default 30s).
	RetainJobs time.Duration
	MaxJobs    int
	GCInterval time.Duration
	// JournalDir enables the durable job journal: every accepted job is
	// fsynced to a WAL in this directory before the submit returns, and
	// NewServer replays it — re-enqueueing accepted-but-unfinished jobs
	// and restoring completed results. Empty disables journaling (a
	// restart loses all job state, as before).
	JournalDir string
	// SojournTarget is the CoDel-style shedding bound: a job that sat
	// queued longer than this is rejected at dequeue (completing as
	// UNDECIDED with Shed set) instead of being solved late. 0 selects
	// the 30s default; negative disables sojourn shedding. Jobs whose
	// own deadline already expired at dequeue are always shed.
	SojournTarget time.Duration
	// BreakerThreshold is the number of consecutive supervision
	// failures (lane panics, watchdog abandonments, soundness
	// violations, worker crashes) that trips a shard's circuit breaker
	// (default 5; negative disables the breakers). BreakerBackoff is
	// the first open period, doubling per consecutive failed probe up
	// to BreakerMaxBackoff (defaults 1s and 1m).
	BreakerThreshold  int
	BreakerBackoff    time.Duration
	BreakerMaxBackoff time.Duration
}

func (o Options) withDefaults() Options {
	if o.Shards == nil {
		o.Shards = DefaultShards()
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.DefaultDeadline <= 0 {
		o.DefaultDeadline = time.Minute
	}
	if o.MaxDeadline == 0 {
		o.MaxDeadline = 10 * time.Minute
	}
	if o.RetainJobs <= 0 {
		o.RetainJobs = 15 * time.Minute
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16384
	}
	if o.GCInterval <= 0 {
		o.GCInterval = 30 * time.Second
	}
	if o.SojournTarget == 0 {
		o.SojournTarget = 30 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerBackoff <= 0 {
		o.BreakerBackoff = time.Second
	}
	if o.BreakerMaxBackoff <= 0 {
		o.BreakerMaxBackoff = time.Minute
	}
	return o
}

// shard is one size class: two bounded admission queues (interactive
// drained before batch) behind atomic reservation counters, the
// sat.Pool the workers draw solvers from, the shard's service-time
// statistics and its circuit breaker.
type shard struct {
	cfg ShardConfig
	// q holds one queue per admission class; n counts each class's
	// reserved slots (reservation precedes the channel send so the
	// journal can be written between admission and publication without a
	// full-queue surprise after the fsync).
	q    [numClasses]chan *Job
	n    [numClasses]atomic.Int64
	pool sat.Pool
	busy atomic.Int64
	adm  admission
	brk  *breaker
}

// queued returns the shard's total reserved backlog across both
// classes.
func (sh *shard) queued() int { return int(sh.n[classInteractive].Load() + sh.n[classBatch].Load()) }

// reserve claims a queue slot in the given class, reporting false when
// the class queue is full.
func (sh *shard) reserve(class int) bool {
	if sh.n[class].Add(1) > int64(cap(sh.q[class])) {
		sh.n[class].Add(-1)
		return false
	}
	return true
}

// Server is the serving core: shards, workers, the job table and its
// janitor. Create one with NewServer and expose it over HTTP with
// Handler; it is safe for concurrent use.
type Server struct {
	opts   Options
	reg    *obs.Registry
	shards []*shard

	// admit serializes submits against the drain transition: Submit
	// holds the read side while it checks the draining flag and sends
	// on a shard queue, so Drain's queue close can never race a send.
	admit    sync.RWMutex
	draining bool

	baseCtx    context.Context
	cancelBase context.CancelFunc
	workers    sync.WaitGroup
	stopGC     chan struct{}
	gcDone     chan struct{}

	jobs    jobTable
	idSeq   atomic.Int64
	graphs  sync.Map // instance name -> instanceEntry
	journal *Journal // nil when journaling is disabled
}

// instanceEntry caches a built benchmark instance so repeated jobs on
// the same instance skip netlist generation and global routing.
type instanceEntry struct {
	g         *graph.Graph
	routableW int
	err       error
}

// NewServer builds and starts a server: workers and the job janitor
// begin running immediately. Returns an error for an invalid shard
// layout.
func NewServer(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	shards := append([]ShardConfig(nil), opts.Shards...)
	for i := range shards {
		if shards[i].Name == "" {
			return nil, fmt.Errorf("serve: shard %d has no name", i)
		}
		if shards[i].Workers <= 0 {
			shards[i].Workers = 2
		}
		if shards[i].QueueDepth <= 0 {
			shards[i].QueueDepth = 64
		}
	}
	// Ascending bound order with the unbounded catch-all(s) last.
	sort.SliceStable(shards, func(i, j int) bool {
		bi, bj := shards[i].MaxVertices, shards[j].MaxVertices
		switch {
		case bi <= 0:
			return false
		case bj <= 0:
			return true
		default:
			return bi < bj
		}
	})
	if shards[len(shards)-1].MaxVertices > 0 {
		return nil, fmt.Errorf("serve: shard layout needs an unbounded catch-all (MaxVertices <= 0)")
	}
	seen := map[string]bool{}
	for _, sc := range shards {
		if seen[sc.Name] {
			return nil, fmt.Errorf("serve: duplicate shard name %q", sc.Name)
		}
		seen[sc.Name] = true
	}

	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:       opts,
		reg:        opts.Metrics,
		baseCtx:    ctx,
		cancelBase: cancel,
		stopGC:     make(chan struct{}),
		gcDone:     make(chan struct{}),
		jobs:       jobTable{byID: map[string]*Job{}, byKey: map[string]*Job{}},
	}
	for i, sc := range shards {
		sh := &shard{cfg: sc}
		for c := range sh.q {
			sh.q[c] = make(chan *Job, sc.QueueDepth)
		}
		if opts.BreakerThreshold > 0 {
			name := sc.Name
			sh.brk = newBreaker(opts.BreakerThreshold, opts.BreakerBackoff, opts.BreakerMaxBackoff,
				time.Now().UnixNano()+int64(i), func(state int64) {
					s.reg.Gauge(MetricBreakerState + "." + name).Set(state)
					if state == breakerOpen {
						s.reg.Counter(MetricBreakerTrips + "." + name).Inc()
					}
				})
		}
		s.shards = append(s.shards, sh)
	}
	s.preregisterMetrics()

	// Replay the journal before any worker starts, so restored results
	// are visible in the job table from the first request and recovered
	// pending jobs keep their submission order.
	var pending []*Job
	if opts.JournalDir != "" {
		journal, recovered, maxID, err := OpenJournal(opts.JournalDir, s.reg)
		if err != nil {
			cancel()
			return nil, err
		}
		s.journal = journal
		s.idSeq.Store(maxID)
		pending = s.restoreRecovered(recovered)
	}

	for _, sh := range s.shards {
		for w := 0; w < sh.cfg.Workers; w++ {
			s.workers.Add(1)
			go s.worker(sh)
		}
	}
	if len(pending) > 0 {
		go s.requeueRecovered(pending)
	}
	go s.janitor()
	return s, nil
}

// restoreRecovered folds the journal's replayed jobs into the server:
// completed results go straight into the job table (idempotency keys
// included), accepted-but-unfinished jobs are rebuilt from their
// journaled requests and returned for re-enqueueing. Their deadlines
// restart from now — the original absolute deadline usually lies in
// the crashed process's past, and re-enqueueing a job only to shed it
// at dequeue would turn every recovery into a loss. A pending job whose
// request no longer resolves (e.g. an instance that left the registry)
// fails like a crashed worker's job: journaled, counted, never lost.
func (s *Server) restoreRecovered(recovered []RecoveredJob) []*Job {
	var pending []*Job
	for _, rj := range recovered {
		var err error
		if rj.View == nil {
			var job *Job
			if job, err = s.newJob(&rj.Req, time.Now()); err == nil {
				job.ID, job.key, job.view.ID = rj.ID, rj.Key, rj.ID
				s.jobs.addOrGet(job, s.opts.MaxJobs)
				s.reg.Counter(MetricJournalRecovered).Inc()
				pending = append(pending, job)
				continue
			}
		}
		job := &Job{ID: rj.ID, key: rj.Key, done: make(chan struct{})}
		if err != nil {
			job.view = JobView{ID: rj.ID, SubmittedAt: rj.SubmittedAt}
			s.failJob(job, fmt.Errorf("recovery: %w", err))
		} else {
			job.view, job.finished = *rj.View, rj.FinishedAt
			if job.finished.IsZero() {
				job.finished = time.Now()
			}
			close(job.done)
			s.reg.Counter(MetricJournalRestored).Inc()
		}
		s.jobs.addOrGet(job, s.opts.MaxJobs)
	}
	return pending
}

// requeueRecovered feeds the recovered pending jobs back into their
// shard queues. Sends block when a queue is momentarily full (the
// workers are already draining), and each send holds the admission
// read lock so it can never race a drain's queue close; a drain that
// begins mid-recovery strands the remainder in the journal, where the
// next startup recovers them again.
func (s *Server) requeueRecovered(pending []*Job) {
	for _, job := range pending {
		s.admit.RLock()
		if s.draining {
			s.admit.RUnlock()
			return
		}
		job.sh.n[job.class].Add(1)
		job.sh.q[job.class] <- job
		s.admit.RUnlock()
	}
}

// effectiveDeadline applies the server's default and clamp to a
// requested deadline.
func (s *Server) effectiveDeadline(deadlineMS int64) time.Duration {
	deadline := time.Duration(deadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.opts.DefaultDeadline
	}
	if s.opts.MaxDeadline > 0 && deadline > s.opts.MaxDeadline {
		deadline = s.opts.MaxDeadline
	}
	return deadline
}

// Metrics returns the server's registry (for -metrics-out style dumps
// alongside the /metrics endpoint).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// preregisterMetrics touches every metric the daemon can emit so a
// /metrics scrape shows zero values instead of omitting quiet
// counters — operators alert on absence otherwise.
func (s *Server) preregisterMetrics() {
	for _, name := range []string{
		MetricJobsSubmitted, MetricJobsRejected, MetricJobsCompleted,
		MetricJobsTimeout, MetricJobsFailed,
		MetricJournalRecords, MetricJournalReplayed, MetricJournalRecovered,
		MetricJournalRestored, MetricJournalTruncated, MetricJournalErrors,
		MetricShedSojourn, MetricShedDeadline,
	} {
		s.reg.Counter(name)
	}
	s.reg.Timer(MetricJournalFsync)
	for _, name := range []string{
		portfolio.MetricPanics, portfolio.MetricRetries,
		portfolio.MetricVerifySat, portfolio.MetricVerifyUnsat,
		portfolio.MetricAbandoned,
		portfolio.MetricShareExported, portfolio.MetricShareFiltered,
		portfolio.MetricShareDuplicates, portfolio.MetricShareDropped,
		portfolio.MetricShareImported, portfolio.MetricShareRejected,
	} {
		s.reg.Counter(name)
	}
	s.reg.Timer(MetricQueueWait)
	s.reg.Timer(MetricSolve)
	s.reg.Gauge(MetricJobsRetained)
	for _, sh := range s.shards {
		suffix := "." + sh.cfg.Name
		s.reg.Gauge(MetricQueueDepth + suffix)
		s.reg.Gauge(MetricQueueCap + suffix).Set(int64(sh.cfg.QueueDepth))
		s.reg.Gauge(MetricQueueBatch + suffix)
		s.reg.Gauge(MetricWorkersBusy + suffix)
		s.reg.Gauge(MetricWorkers + suffix).Set(int64(sh.cfg.Workers))
		s.reg.Gauge(MetricPoolGets + suffix)
		s.reg.Gauge(MetricPoolReuses + suffix)
		s.reg.Gauge(MetricRetryAfter + suffix)
		s.reg.Gauge(MetricBreakerState + suffix)
		s.reg.Counter(MetricBreakerTrips + suffix)
		s.reg.Counter(MetricBreakerProbes + suffix)
	}
}

// Scrape refreshes the point-in-time gauges (queue depths, busy
// workers, pool hit rates, retained jobs) and returns a snapshot of
// the registry — the payload of GET /metrics.
func (s *Server) Scrape() obs.Snapshot {
	for _, sh := range s.shards {
		suffix := "." + sh.cfg.Name
		s.reg.Gauge(MetricQueueDepth + suffix).Set(int64(sh.queued()))
		s.reg.Gauge(MetricQueueBatch + suffix).Set(sh.n[classBatch].Load())
		s.reg.Gauge(MetricWorkersBusy + suffix).Set(sh.busy.Load())
		ps := sh.pool.Stats()
		s.reg.Gauge(MetricPoolGets + suffix).Set(ps.Gets)
		s.reg.Gauge(MetricPoolReuses + suffix).Set(ps.Reuses)
		ra := sh.adm.retryAfter(sh.queued(), int(sh.busy.Load()), sh.cfg.Workers)
		s.reg.Gauge(MetricRetryAfter + suffix).Set(int64(retryAfterSeconds(ra)))
	}
	s.reg.Gauge(MetricJobsRetained).Set(int64(s.jobs.len()))
	return s.reg.Snapshot()
}

// Draining reports whether the server has begun shutdown.
func (s *Server) Draining() bool {
	s.admit.RLock()
	defer s.admit.RUnlock()
	return s.draining
}

// classify routes a conflict graph to its size-class shard: the first
// shard whose vertex bound admits it (the catch-all admits anything).
func (s *Server) classify(n int) *shard {
	for _, sh := range s.shards {
		if sh.cfg.MaxVertices <= 0 || n <= sh.cfg.MaxVertices {
			return sh
		}
	}
	return s.shards[len(s.shards)-1]
}

// resolveInstance builds (or fetches from cache) a benchmark
// instance's conflict graph and calibrated width.
func (s *Server) resolveInstance(name string) (instanceEntry, error) {
	if e, ok := s.graphs.Load(name); ok {
		ent := e.(instanceEntry)
		return ent, ent.err
	}
	in, err := mcnc.ByName(name)
	if err != nil {
		return instanceEntry{}, badRequest("%v", err)
	}
	_, g, err := in.Build()
	ent := instanceEntry{g: g, routableW: in.RoutableW, err: err}
	// Two racing builders compute identical graphs (builds are
	// deterministic), so last-store-wins is fine.
	s.graphs.Store(name, ent)
	return ent, err
}

// Submit validates a request, resolves its conflict graph, classifies
// it into a shard and enqueues it. It returns the registered job on
// success; *QueueFullError (errors.Is ErrQueueFull), ErrDraining,
// *BreakerOpenError, ErrJournal and *RequestError are the documented
// failure modes.
func (s *Server) Submit(req SolveRequest) (*Job, error) {
	job, _, err := s.SubmitDedup(req)
	return job, err
}

// SubmitDedup is Submit plus idempotency: when the request carries an
// IdempotencyKey already bound to a retained job, that job is returned
// with duplicate=true and nothing new is admitted — the client retry
// contract across crashes and timeouts.
func (s *Server) SubmitDedup(req SolveRequest) (job *Job, duplicate bool, err error) {
	now := time.Now()
	if job, err = s.newJob(&req, now); err != nil {
		return nil, false, err
	}
	sh := job.sh

	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.draining {
		return nil, false, ErrDraining
	}
	if req.IdempotencyKey != "" {
		if exist, ok := s.jobs.getByKey(req.IdempotencyKey); ok {
			return exist, true, nil
		}
	}
	probe := false
	if sh.brk != nil {
		ok, p, wait := sh.brk.allow()
		if !ok {
			return nil, false, &BreakerOpenError{Shard: sh.cfg.Name, RetryAfter: wait}
		}
		if probe = p; probe {
			s.reg.Counter(MetricBreakerProbes + "." + sh.cfg.Name).Inc()
		}
	}
	releaseProbe := func() {
		if probe {
			sh.brk.releaseProbe()
		}
	}
	// Reserve the queue slot before the durable accept: a full queue
	// must be discovered while no journal record exists, so rejected
	// submits can never reappear as replayed jobs.
	if !sh.reserve(job.class) {
		releaseProbe()
		s.reg.Counter(MetricJobsRejected).Inc()
		retry := sh.adm.retryAfter(sh.queued(), int(sh.busy.Load()), sh.cfg.Workers)
		return nil, false, &QueueFullError{Shard: sh.cfg.Name, RetryAfter: retry}
	}
	job.ID = fmt.Sprintf("j%08d", s.idSeq.Add(1))
	job.key, job.view.ID, job.probe = req.IdempotencyKey, job.ID, probe
	if exist, dup := s.jobs.addOrGet(job, s.opts.MaxJobs); dup {
		// Two submits raced the same fresh idempotency key; the loser
		// backs out and returns the winner.
		sh.n[job.class].Add(-1)
		releaseProbe()
		return exist, true, nil
	}
	// Durable accept: the submit record is fsynced before the job is
	// published to a worker or the caller — once Submit returns, a
	// crash cannot lose the job.
	rec := journalRecord{Kind: recSubmit, ID: job.ID, Key: job.key, Req: &req, At: now}
	if jerr := s.journal.append(rec, true); jerr != nil {
		sh.n[job.class].Add(-1)
		releaseProbe()
		s.jobs.remove(job)
		return nil, false, fmt.Errorf("%w: %v", ErrJournal, jerr)
	}
	sh.q[job.class] <- job // cannot block: the slot reservation guarantees room
	s.reg.Counter(MetricJobsSubmitted).Inc()
	return job, false, nil
}

// newJob is the one job constructor, shared by submit and recovery: it
// validates the request's knobs, resolves its conflict graph and lane
// set, starts its deadline at now and fixes its shard and admission
// class. The caller binds the job's ID and idempotency key.
func (s *Server) newJob(req *SolveRequest, now time.Time) (*Job, error) {
	if err := validateKnobs(req); err != nil {
		return nil, err
	}
	g, width, instName, err := s.resolveProblem(req)
	if err != nil {
		return nil, err
	}
	strategies, popts, err := s.resolveRun(req)
	if err != nil {
		return nil, err
	}
	deadline := s.effectiveDeadline(req.DeadlineMS)
	class := classInteractive
	if req.Priority == PriorityBatch {
		class = classBatch
	}
	job := &Job{
		g:          g,
		width:      width,
		strategies: strategies,
		popts:      popts,
		wantColors: req.WantColors,
		sh:         s.classify(g.N()),
		class:      class,
		deadline:   now.Add(deadline),
		done:       make(chan struct{}),
	}
	job.view = JobView{
		State:       StateQueued,
		Instance:    instName,
		Width:       width,
		Shard:       job.sh.cfg.Name,
		Priority:    classNames[class],
		Vertices:    g.N(),
		Edges:       g.M(),
		SubmittedAt: now,
		DeadlineMS:  deadline.Milliseconds(),
	}
	return job, nil
}

// validateKnobs bounds-checks every numeric solve knob before any
// graph building happens, so a malformed request costs nothing and
// fails with a 400 immediately.
func validateKnobs(req *SolveRequest) error {
	switch {
	case req.Width < 0:
		return badRequest("width must not be negative, got %d", req.Width)
	case req.Width > MaxSubmitWidth:
		return badRequest("width %d above the maximum %d", req.Width, MaxSubmitWidth)
	case req.Lanes < 0:
		return badRequest("lanes must not be negative, got %d", req.Lanes)
	case req.Lanes > MaxSubmitLanes:
		return badRequest("lanes %d above the maximum %d", req.Lanes, MaxSubmitLanes)
	case req.MaxRetries < 0:
		return badRequest("max_retries must not be negative, got %d", req.MaxRetries)
	case req.MaxRetries > MaxSubmitRetries:
		return badRequest("max_retries %d above the maximum %d", req.MaxRetries, MaxSubmitRetries)
	case req.ConflictBudget < 0:
		return badRequest("conflict_budget must not be negative, got %d", req.ConflictBudget)
	case req.DeadlineMS < 0:
		return badRequest("deadline_ms must not be negative, got %d", req.DeadlineMS)
	case req.LaneTimeoutMS < 0:
		return badRequest("lane_timeout_ms must not be negative, got %d", req.LaneTimeoutMS)
	case req.Priority != "" && req.Priority != PriorityInteractive && req.Priority != PriorityBatch:
		return badRequest("priority must be %q or %q, got %q", PriorityInteractive, PriorityBatch, req.Priority)
	}
	return nil
}

// resolveProblem turns the request's instance name or inline DIMACS
// graph into a conflict graph plus effective width.
func (s *Server) resolveProblem(req *SolveRequest) (*graph.Graph, int, string, error) {
	switch {
	case req.Instance != "" && req.Graph != "":
		return nil, 0, "", badRequest("give either an instance name or an inline graph, not both")
	case req.Instance != "":
		ent, err := s.resolveInstance(req.Instance)
		if err != nil {
			if _, ok := err.(*RequestError); ok {
				return nil, 0, "", err
			}
			return nil, 0, "", badRequest("building instance %s: %v", req.Instance, err)
		}
		width := req.Width
		if width == 0 {
			width = ent.routableW
		}
		if width < 1 {
			return nil, 0, "", badRequest("width must be >= 1, got %d", width)
		}
		return ent.g, width, req.Instance, nil
	case req.Graph != "":
		g, err := graph.ParseDIMACS(strings.NewReader(req.Graph))
		if err != nil {
			return nil, 0, "", badRequest("parsing graph: %v", err)
		}
		if req.Width < 1 {
			return nil, 0, "", badRequest("width must be >= 1 with an inline graph, got %d", req.Width)
		}
		return g, req.Width, "", nil
	default:
		return nil, 0, "", badRequest("request names neither an instance nor a graph")
	}
}

// resolveRun translates the request's solve knobs into the lane set
// and hardened-portfolio options the workers execute with.
func (s *Server) resolveRun(req *SolveRequest) ([]core.Strategy, portfolio.Options, error) {
	var strategies []core.Strategy
	switch {
	case req.Portfolio && req.Strategy != "":
		return nil, portfolio.Options{}, badRequest("portfolio and strategy are mutually exclusive")
	case req.Portfolio:
		ss, err := portfolio.PaperPortfolio3()
		if err != nil {
			return nil, portfolio.Options{}, err
		}
		strategies = ss
	default:
		spec := req.Strategy
		if spec == "" {
			spec = DefaultStrategy
		}
		st, err := core.ParseStrategy(spec)
		if err != nil {
			return nil, portfolio.Options{}, badRequest("%v", err)
		}
		strategies = []core.Strategy{st}
	}
	lanes := req.Lanes
	if req.Share && lanes < 2 {
		lanes = 2 // sharing needs same-strategy peers
	}
	if lanes > 1 {
		strategies = portfolio.Replicate(strategies, lanes)
	}

	popts := portfolio.Options{
		Metrics:     s.reg,
		Verify:      req.Verify || s.opts.Verify,
		VerifyUnsat: req.Verify || s.opts.Verify,
		MaxRetries:  req.MaxRetries,
		Seed:        req.Seed,
		LaneTimeout: time.Duration(req.LaneTimeoutMS) * time.Millisecond,
		Solver:      sat.Options{ConflictBudget: req.ConflictBudget},
	}
	if req.MaxRetries > 0 {
		popts.RetrySchedule = robust.LubyRetry
	}
	if req.Share {
		popts.Share = &share.Options{}
	}
	return strategies, popts, nil
}

// Lookup returns a job by ID.
func (s *Server) Lookup(id string) (*Job, bool) { return s.jobs.get(id) }

// JobCount returns the number of jobs currently retained in the table.
func (s *Server) JobCount() int { return s.jobs.len() }

// worker drains one shard's queues — interactive strictly before
// batch — until Drain closes them. Each job runs under the server's
// base context capped by the job deadline; the solve itself is
// supervised by portfolio.Run, and the worker loop itself is a
// panic boundary: a crash in the serve layer fails the one job (and
// feeds the shard's breaker) instead of killing the process.
func (s *Server) worker(sh *shard) {
	defer s.workers.Done()
	qs := sh.q // a class's entry goes nil once Drain closed and emptied it
	for qs[classInteractive] != nil || qs[classBatch] != nil {
		// Interactive first: a batch job is taken only when no
		// interactive job is waiting.
		var job *Job
		class := classInteractive
		select {
		case job = <-qs[classInteractive]:
		default:
			select {
			case job = <-qs[classInteractive]:
			case job = <-qs[classBatch]:
				class = classBatch
			}
		}
		if job == nil { // only a closed queue yields nil
			qs[class] = nil
			continue
		}
		sh.n[class].Add(-1)
		robust.Hit(robust.FPServeDequeue, sh.cfg.Name)
		sh.busy.Add(1)
		s.superviseJob(sh, job)
		sh.busy.Add(-1)
	}
}

// superviseJob runs one job under a panic boundary. A panic in the
// serve layer itself (not in a solver lane — those have their own
// supervision) fails the job and counts as a supervision failure for
// the shard's breaker.
func (s *Server) superviseJob(sh *shard, job *Job) {
	perr := robust.Capture("serve worker "+sh.cfg.Name, func() {
		s.runJob(sh, job)
	})
	if perr == nil {
		return
	}
	s.failJob(job, perr)
	s.breakerResult(sh, job, true)
}

// breakerResult feeds a job outcome into the shard's breaker.
func (s *Server) breakerResult(sh *shard, job *Job, failure bool) {
	if sh.brk != nil {
		sh.brk.onResult(failure, job.probe)
	}
}

// shedJob rejects a job at dequeue time: it completes immediately as
// UNDECIDED with Shed set instead of occupying a solver. reason is
// "sojourn" (sat queued past the target) or "deadline" (its own
// deadline had already expired).
func (s *Server) shedJob(sh *shard, job *Job, queued time.Duration, reason string) {
	if reason == "sojourn" {
		s.reg.Counter(MetricShedSojourn).Inc()
	} else {
		s.reg.Counter(MetricShedDeadline).Inc()
	}
	s.finishJob(job, func(v *JobView) {
		v.Answer = AnswerUndecided
		v.Shed = true
		v.QueuedMS = queued.Milliseconds()
		v.Error = fmt.Sprintf("serve: shed at dequeue (%s): queued %v", reason, queued.Round(time.Millisecond))
	})
	// Shedding is overload, not poison: the breaker learns nothing, and
	// a shed probe releases its claim so the next submit probes instead.
	if job.probe && sh.brk != nil {
		sh.brk.releaseProbe()
	}
}

// failJob completes a job that ended in an error without an answer: a
// serve-worker panic, or a journaled request that no longer resolves.
func (s *Server) failJob(job *Job, err error) {
	s.finishJob(job, func(v *JobView) {
		v.Answer = AnswerUndecided
		v.Error = err.Error()
		s.reg.Counter(MetricJobsFailed).Inc()
	})
}

// finishJob is the one completion path. It claims the job exactly once
// (the worker, the shed path and the panic boundary can race on a
// crashing worker), applies mutate to a copy of the view and journals
// the result; only then does it publish the view and close the done
// channel, so no reader sees a result a crash could still lose. A
// failed journal append is still published.
func (s *Server) finishJob(job *Job, mutate func(v *JobView)) {
	job.mu.Lock()
	claimed := !job.finishing
	job.finishing = true
	view := job.view
	job.mu.Unlock()
	if !claimed {
		return
	}
	finished := time.Now()
	// Publish even when mutate or the append panics, so no waiter hangs.
	defer func() {
		job.mu.Lock()
		job.view, job.finished = view, finished
		job.mu.Unlock()
		s.reg.Counter(MetricJobsCompleted).Inc()
		close(job.done)
	}()
	view.State = StateDone
	mutate(&view)
	_ = s.journal.append(journalRecord{Kind: recDone, ID: job.ID, Key: job.key, View: &view, At: finished}, true)
}

// runJob executes one job end to end and publishes its result.
func (s *Server) runJob(sh *shard, job *Job) {
	started := time.Now()
	job.mu.Lock()
	queued := started.Sub(job.view.SubmittedAt)
	job.mu.Unlock()
	s.reg.Timer(MetricQueueWait).Observe(queued)

	// CoDel-style early rejection: a job that would be solved late is
	// cheaper to shed now than to solve for nobody.
	if !job.deadline.IsZero() && started.After(job.deadline) {
		s.shedJob(sh, job, queued, "deadline")
		return
	}
	if s.opts.SojournTarget > 0 && queued > s.opts.SojournTarget {
		s.shedJob(sh, job, queued, "sojourn")
		return
	}

	job.mu.Lock()
	job.view.State = StateRunning
	job.view.QueuedMS = queued.Milliseconds()
	job.mu.Unlock()
	robust.Hit(robust.FPServeWorker, job.ID, sh.cfg.Name)
	// Advisory, no fsync: replay treats started and queued jobs alike.
	_ = s.journal.append(journalRecord{Kind: recStart, ID: job.ID, At: time.Now()}, false)

	ctx, cancel := context.WithDeadline(s.baseCtx, job.deadline)
	popts := job.popts
	popts.Pool = &sh.pool
	span := s.reg.StartSpan(MetricSolve)
	winner, all, err := portfolio.Run(ctx, job.g, job.width, job.strategies, popts)
	elapsed := span.End()
	deadlineExceeded := ctx.Err() == context.DeadlineExceeded
	cancel()
	sh.adm.observe(elapsed)

	s.finishJob(job, func(v *JobView) {
		v.SolveMS = elapsed.Milliseconds()
		v.Lanes = laneViews(all)
		switch {
		case err == nil && winner.Status == sat.Sat:
			v.Answer = AnswerRoutable
			v.Winner = winner.Strategy.Name()
			v.Attempts = winner.Attempts
			if job.wantColors {
				v.Colors = winner.Colors
			}
		case err == nil && winner.Status == sat.Unsat:
			v.Answer = AnswerUnroutable
			v.Winner = winner.Strategy.Name()
			v.Attempts = winner.Attempts
		default:
			v.Answer = AnswerUndecided
			v.Attempts = maxAttempts(all)
			if err != nil {
				v.Error = err.Error()
			}
			if deadlineExceeded {
				v.TimedOut = true
				s.reg.Counter(MetricJobsTimeout).Inc()
			} else {
				s.reg.Counter(MetricJobsFailed).Inc()
			}
		}
	})
	s.breakerResult(sh, job, supervisionFailure(err, all))
}

// supervisionFailure classifies a finished run for the circuit
// breaker: true only for the failure modes that indicate a poisoned
// shard — lane panics, watchdog abandonments and soundness violations.
// Timeouts, budget exhaustion and plain UNDECIDED answers are healthy
// overload behaviour and never trip a breaker.
func supervisionFailure(err error, all []portfolio.Result) bool {
	check := func(e error) bool {
		if e == nil {
			return false
		}
		if _, ok := robust.AsPanic(e); ok {
			return true
		}
		if _, ok := robust.AsSoundness(e); ok {
			return true
		}
		// The watchdog reports abandonment as a plain error (see
		// portfolio.Run); match its fixed message.
		return strings.Contains(e.Error(), "abandoned by watchdog")
	}
	if check(err) {
		return true
	}
	for _, r := range all {
		if check(r.Err) {
			return true
		}
	}
	return false
}

// laneViews condenses the per-lane portfolio results for the job view.
func laneViews(all []portfolio.Result) []LaneView {
	out := make([]LaneView, len(all))
	for i, r := range all {
		out[i] = LaneView{
			Strategy:  r.Strategy.Name(),
			Status:    r.Status.String(),
			Attempts:  r.Attempts,
			Conflicts: r.Stats.Conflicts,
			ElapsedMS: r.Elapsed.Milliseconds(),
		}
		if r.Err != nil {
			out[i].Error = r.Err.Error()
		}
	}
	return out
}

// maxAttempts reports the largest per-lane attempt count — the
// "partial attempt info" an undecided job still carries.
func maxAttempts(all []portfolio.Result) int {
	max := 0
	for _, r := range all {
		if r.Attempts > max {
			max = r.Attempts
		}
	}
	return max
}

// janitor garbage-collects completed jobs past their retention and
// enforces the table cap between scrapes.
func (s *Server) janitor() {
	defer close(s.gcDone)
	t := time.NewTicker(s.opts.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.jobs.gc(time.Now().Add(-s.opts.RetainJobs), s.opts.MaxJobs)
		case <-s.stopGC:
			return
		}
	}
}

// Drain performs the graceful shutdown: admission stops, queued and
// in-flight jobs run to completion, then workers exit. If ctx expires
// first, the base context is cancelled so in-flight solves unwind
// promptly (their jobs complete as UNDECIDED), and Drain still waits
// for the workers before returning ctx's error. Drain is idempotent;
// concurrent calls all block until the drain finishes.
func (s *Server) Drain(ctx context.Context) error {
	s.admit.Lock()
	if !s.draining {
		s.draining = true
		for _, sh := range s.shards {
			for _, q := range sh.q {
				close(q)
			}
		}
		close(s.stopGC)
	}
	s.admit.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		<-s.gcDone
	case <-ctx.Done():
		s.cancelBase() // abort in-flight solves; they exit via cancellation polling
		<-done
		<-s.gcDone
		err = ctx.Err()
	}
	_ = s.journal.Close()
	return err
}

// Crash simulates SIGKILL at the serve layer: the journal stops
// persisting immediately (records already fsynced survive, exactly
// what a real crash preserves), in-flight solves are cancelled, and
// the goroutines are reaped without any of the drain path's result
// publication reaching disk. The crash-only recovery contract — open a
// new Server on the same JournalDir and every accepted-but-unfinished
// job is re-enqueued, every journaled result restored — is what the
// chaos suite exercises through this method.
func (s *Server) Crash() {
	s.journal.kill()
	s.cancelBase()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(expired)
}

// ShardStatus is one shard's slice of the readiness report.
type ShardStatus struct {
	Name string `json:"name"`
	// Breaker is the circuit-breaker state: closed, half-open or open
	// ("disabled" when breakers are off).
	Breaker string `json:"breaker"`
	// Queued and Cap are the interactive backlog and its capacity; a
	// shard with a full interactive queue or an open breaker is not
	// ready.
	Queued int  `json:"queued"`
	Cap    int  `json:"cap"`
	Ready  bool `json:"ready"`
}

// Readiness reports whether the server should receive new traffic and
// the per-shard detail behind the verdict: not draining, and at least
// one shard with a closed (or half-open) breaker and a non-full
// interactive queue.
func (s *Server) Readiness() (bool, []ShardStatus) {
	draining := s.Draining()
	shards := make([]ShardStatus, 0, len(s.shards))
	anyReady := false
	for _, sh := range s.shards {
		st := ShardStatus{
			Name:    sh.cfg.Name,
			Breaker: "disabled",
			Queued:  int(sh.n[classInteractive].Load()),
			Cap:     cap(sh.q[classInteractive]),
		}
		open := false
		if sh.brk != nil {
			state := sh.brk.current()
			st.Breaker = breakerStateNames[state]
			open = state == breakerOpen
		}
		st.Ready = !draining && !open && st.Queued < st.Cap
		anyReady = anyReady || st.Ready
		shards = append(shards, st)
	}
	return !draining && anyReady, shards
}
