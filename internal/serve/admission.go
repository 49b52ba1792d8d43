package serve

// Adaptive admission control. Three mechanisms, all per shard:
//
//   - Service-time tracking: an EWMA plus a sliding window of recent
//     solve times. The EWMA drives the backlog-drain estimate behind
//     Retry-After; the window's median is the floor — the daemon never
//     advertises a retry sooner than half the work it has recently
//     been doing per job takes, no matter how empty the queue looks.
//
//   - CoDel-style sojourn shedding: a worker that dequeues a job which
//     sat queued past the sojourn target (or whose own deadline has
//     already expired) sheds it — the job completes immediately as
//     UNDECIDED with Shed set — instead of burning a solver on an
//     answer that would arrive too late anyway. Shedding at dequeue
//     (rather than submit) is what CoDel gets right: the decision uses
//     the job's actual sojourn time, so short bursts ride through and
//     only standing queues shed.
//
//   - Priority classes: every shard runs two queues, interactive
//     (default) and batch. Workers always drain interactive first and
//     only pick up batch work when no interactive job is waiting, so a
//     flood of batch sweeps cannot add queueing delay to interactive
//     traffic beyond the one job already being solved.

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Priority classes of SolveRequest.Priority.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// Admission classes index a shard's queues and reservation counters;
// workers drain classInteractive before classBatch.
const (
	classInteractive = iota
	classBatch
	numClasses
)

// classNames maps an admission class to its priority name.
var classNames = [numClasses]string{PriorityInteractive, PriorityBatch}

// admWindow is the number of recent service-time samples kept for the
// median estimate.
const admWindow = 64

// ewmaAlpha weights the newest sample in the service-time EWMA; ~0.2
// reacts within a handful of jobs without chasing single outliers.
const ewmaAlpha = 0.2

// admission is one shard's service-time statistics.
type admission struct {
	mu      sync.Mutex
	ewmaNS  float64
	samples []int64 // ring buffer of recent service times (ns)
	next    int
}

// observe records one completed solve's wall clock.
func (a *admission) observe(d time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ns := float64(d)
	if a.ewmaNS == 0 {
		a.ewmaNS = ns
	} else {
		a.ewmaNS = ewmaAlpha*ns + (1-ewmaAlpha)*a.ewmaNS
	}
	if len(a.samples) < admWindow {
		a.samples = append(a.samples, int64(d))
	} else {
		a.samples[a.next] = int64(d)
	}
	a.next = (a.next + 1) % admWindow
}

// ewma returns the current service-time EWMA (0 before any sample).
func (a *admission) ewma() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return time.Duration(a.ewmaNS)
}

// median returns the median of the recent service-time window (0
// before any sample).
func (a *admission) median() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.samples) == 0 {
		return 0
	}
	sorted := append([]int64(nil), a.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return time.Duration(sorted[len(sorted)/2])
}

// retryAfter computes the Retry-After advertised on a 429 from this
// shard: the estimated time to drain the current backlog (queued jobs
// plus the ones being solved, at one EWMA service time each across the
// shard's workers), floored at the observed median service time —
// never tell a client to come back sooner than a typical job takes —
// and at one second, the smallest honest value HTTP's integer-seconds
// header can carry.
func (a *admission) retryAfter(queued, busy, workers int) time.Duration {
	if workers < 1 {
		workers = 1
	}
	ewma := a.ewma()
	backlog := time.Duration(math.Ceil(float64(queued+busy)/float64(workers))) * ewma
	if floor := a.median(); backlog < floor {
		backlog = floor
	}
	if backlog < time.Second {
		backlog = time.Second
	}
	return backlog
}

// retryAfterSeconds renders a Retry-After duration as the HTTP
// header's integer seconds, rounding up so the advertised wait is
// never shorter than the estimate.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
