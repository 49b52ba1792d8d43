package serve

// The job model: the JSON request/response types of the HTTP API and
// the concurrency-safe job table behind /v1/jobs. A Job's mutable
// state lives in its JobView and is only touched under the job mutex;
// readers take consistent copies with View, and completion is
// published through the done channel so synchronous waiters need no
// polling.

import (
	"sync"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/portfolio"
)

// Job states reported in JobView.State.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
)

// Answers reported in JobView.Answer once a job is done.
const (
	AnswerRoutable   = "ROUTABLE"
	AnswerUnroutable = "UNROUTABLE"
	AnswerUndecided  = "UNDECIDED"
)

// SolveRequest is the JSON body of POST /v1/solve. Exactly one of
// Instance (a registered benchmark name) or Graph (an inline DIMACS
// edge-format conflict graph) selects the problem.
type SolveRequest struct {
	// Instance names a registered benchmark (see GET /v1/instances via
	// cmd/fpgasat -list); Width 0 defaults to its calibrated routable
	// width.
	Instance string `json:"instance,omitempty"`
	// Graph is an inline conflict graph in DIMACS edge (.col) format;
	// it requires an explicit Width.
	Graph string `json:"graph,omitempty"`
	// Width is the channel width W to decide routability at.
	Width int `json:"width,omitempty"`
	// Strategy selects a single encoding[/heuristic] lane (default
	// DefaultStrategy); Portfolio instead races the paper's 3-strategy
	// portfolio. The two are mutually exclusive.
	Strategy  string `json:"strategy,omitempty"`
	Portfolio bool   `json:"portfolio,omitempty"`
	// Lanes replicates the lane set n-fold (same-strategy lanes
	// diversify by seed); Share connects same-strategy lanes through
	// the learnt-clause exchange and implies Lanes >= 2.
	Lanes int  `json:"lanes,omitempty"`
	Share bool `json:"share,omitempty"`
	// Seed makes lane behaviour replayable and diversified (0 =
	// unseeded; sharing defaults it to 1).
	Seed int64 `json:"seed,omitempty"`
	// DeadlineMS bounds the whole job (queue wait + solve) in
	// milliseconds; 0 uses the server default and values above the
	// server maximum are clamped. A deadline that expires mid-solve
	// yields an UNDECIDED answer with TimedOut set.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ConflictBudget bounds each lane attempt's conflicts; with
	// MaxRetries > 0 exhausted attempts re-run under an escalating
	// (Luby) budget schedule.
	ConflictBudget int64 `json:"conflict_budget,omitempty"`
	MaxRetries     int   `json:"max_retries,omitempty"`
	// LaneTimeoutMS bounds each lane attempt and arms the watchdog
	// that abandons unresponsive lanes after the run is decided.
	LaneTimeoutMS int64 `json:"lane_timeout_ms,omitempty"`
	// Verify enables paranoid mode for this job: Sat answers re-checked
	// against the conflict edges, Unsat answers replayed through the
	// DRAT checker.
	Verify bool `json:"verify,omitempty"`
	// WantColors includes the decoded track assignment in the result.
	WantColors bool `json:"want_colors,omitempty"`
	// Wait makes POST /v1/solve synchronous: the response is the
	// completed job (200), or 504 with partial attempt info when the
	// job deadline expires first.
	Wait bool `json:"wait,omitempty"`
	// IdempotencyKey deduplicates retries: a resubmit carrying the key
	// of an already-accepted job returns that job instead of creating a
	// new one, including across a crash and journal replay. Keys are
	// client-chosen and should be unique per logical request.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Priority selects the admission class: "interactive" (default)
	// jobs are always dequeued before "batch" jobs on the same shard.
	Priority string `json:"priority,omitempty"`
}

// LaneView is the per-lane slice of a job result: one portfolio lane's
// strategy, answer, attempt count and conflict work.
type LaneView struct {
	Strategy  string `json:"strategy"`
	Status    string `json:"status"`
	Attempts  int    `json:"attempts"`
	Conflicts int64  `json:"conflicts"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Error     string `json:"error,omitempty"`
}

// JobView is the JSON representation of a job returned by POST
// /v1/solve and GET /v1/jobs/{id}.
type JobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Problem identity: the instance name (when submitted by name),
	// width, and the conflict graph's size plus the shard it routed to.
	Instance string `json:"instance,omitempty"`
	Width    int    `json:"width"`
	Shard    string `json:"shard"`
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	// Priority is the admission class the job was accepted under.
	Priority string `json:"priority,omitempty"`
	// Result: the answer, the winning strategy, its attempt count (or
	// the largest lane attempt count when undecided), and the decoded
	// coloring when requested. TimedOut marks an UNDECIDED answer
	// caused by the job deadline expiring mid-solve; Shed marks one the
	// admission controller dropped at dequeue (deadline already expired
	// or sojourn past the target) without running a solver.
	Answer   string     `json:"answer,omitempty"`
	Winner   string     `json:"winner,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	TimedOut bool       `json:"timed_out,omitempty"`
	Shed     bool       `json:"shed,omitempty"`
	Error    string     `json:"error,omitempty"`
	Colors   []int      `json:"colors,omitempty"`
	Lanes    []LaneView `json:"lanes,omitempty"`
	// Timing: submission time, effective deadline, queue wait and
	// solve wall clock.
	SubmittedAt time.Time `json:"submitted_at"`
	DeadlineMS  int64     `json:"deadline_ms"`
	QueuedMS    int64     `json:"queued_ms"`
	SolveMS     int64     `json:"solve_ms"`
}

// Job is one submitted solve: immutable inputs, the mutable view, and
// the completion channel synchronous waiters block on.
type Job struct {
	ID string

	// Immutable after Submit.
	g          *graph.Graph
	width      int
	strategies []core.Strategy
	popts      portfolio.Options
	wantColors bool
	deadline   time.Time
	key        string // idempotency key ("" = none)
	sh         *shard // size-class shard the job queues on
	class      int    // admission class: classInteractive or classBatch
	probe      bool   // this job is a half-open circuit-breaker probe

	mu        sync.Mutex
	view      JobView
	finishing bool // claimed by finishJob; view and done follow once journaled
	finished  time.Time

	done chan struct{}
}

// View returns a consistent copy of the job's current state. The
// Lanes and Colors slices are shared with the job but never mutated
// after publication.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.view
}

// Done is closed when the job completes (any answer).
func (j *Job) Done() <-chan struct{} { return j.done }

// finishedAt returns the completion time (zero while not done).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// jobTable is the ID-indexed job registry with insertion order kept
// for cap eviction and an idempotency-key index for duplicate-free
// retries.
type jobTable struct {
	mu    sync.Mutex
	byID  map[string]*Job
	byKey map[string]*Job
	order []*Job
}

// addOrGet registers j unless another job already holds its
// idempotency key, in which case the existing job is returned with
// dup=true and j is discarded. The check-and-insert is atomic, so two
// racing submits with the same key register exactly one job.
func (t *jobTable) addOrGet(j *Job, maxJobs int) (*Job, bool) {
	t.mu.Lock()
	if j.key != "" {
		if prev, ok := t.byKey[j.key]; ok {
			t.mu.Unlock()
			return prev, true
		}
		t.byKey[j.key] = j
	}
	t.byID[j.ID] = j
	t.order = append(t.order, j)
	t.mu.Unlock()
	if maxJobs > 0 {
		t.gc(time.Time{}, maxJobs)
	}
	return j, false
}

func (t *jobTable) get(id string) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byID[id]
	return j, ok
}

func (t *jobTable) getByKey(key string) (*Job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.byKey[key]
	return j, ok
}

// remove unregisters a job that failed after registration (journal
// write error); the backing order slice entry is dropped lazily by the
// next gc pass.
func (t *jobTable) remove(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byID, j.ID)
	if j.key != "" && t.byKey[j.key] == j {
		delete(t.byKey, j.key)
	}
	for i, o := range t.order {
		if o == j {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

func (t *jobTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// gc deletes completed jobs finished before cutoff, then — oldest
// first — evicts further completed jobs until the table fits maxJobs.
// Queued and running jobs are never evicted: the table can exceed
// maxJobs only by the number of in-flight jobs, which the bounded
// queues already cap.
func (t *jobTable) gc(cutoff time.Time, maxJobs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kept := t.order[:0]
	for _, j := range t.order {
		fin := j.finishedAt()
		doneAndExpired := !fin.IsZero() && fin.Before(cutoff)
		doneAndOverCap := !fin.IsZero() && maxJobs > 0 && len(t.byID) > maxJobs
		if doneAndExpired || doneAndOverCap {
			delete(t.byID, j.ID)
			if j.key != "" && t.byKey[j.key] == j {
				delete(t.byKey, j.key)
			}
			continue
		}
		kept = append(kept, j)
	}
	// Zero the evicted tail so the backing array does not pin jobs.
	for i := len(kept); i < len(t.order); i++ {
		t.order[i] = nil
	}
	t.order = kept
}
