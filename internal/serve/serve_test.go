package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"fpgasat/internal/graph"
	"fpgasat/internal/robust"
)

// triangleCol is a 3-vertex conflict graph needing exactly 3 tracks —
// the smallest non-trivial job body.
const triangleCol = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"

// newTestServer builds a server with a compact single-shard layout
// unless cfg overrides it, and drains it at test end.
func newTestServer(t testing.TB, opts Options) *Server {
	t.Helper()
	if opts.Shards == nil {
		opts.Shards = []ShardConfig{{Name: "only", MaxVertices: 0, Workers: 2, QueueDepth: 16}}
	}
	if opts.GCInterval == 0 {
		opts.GCInterval = time.Hour // keep the janitor quiet unless the test wants it
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

// waitDone blocks until the job completes or the test deadline nears.
func waitDone(t *testing.T, j *Job) JobView {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not complete", j.ID)
	}
	return j.View()
}

func TestClassifyRoutesBySize(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "large", MaxVertices: 0, Workers: 1, QueueDepth: 1},
		{Name: "small", MaxVertices: 10, Workers: 1, QueueDepth: 1},
		{Name: "medium", MaxVertices: 1000, Workers: 1, QueueDepth: 1},
	}})
	// NewServer sorts by bound, so classification is by ascending size.
	for _, tc := range []struct {
		n    int
		want string
	}{{1, "small"}, {10, "small"}, {11, "medium"}, {1000, "medium"}, {1001, "large"}} {
		if got := s.classify(tc.n).cfg.Name; got != tc.want {
			t.Errorf("classify(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestNewServerRejectsBadLayouts(t *testing.T) {
	if _, err := NewServer(Options{Shards: []ShardConfig{{Name: "a", MaxVertices: 10}}}); err == nil {
		t.Error("layout without an unbounded catch-all was accepted")
	}
	if _, err := NewServer(Options{Shards: []ShardConfig{
		{Name: "a", MaxVertices: 10}, {Name: "a", MaxVertices: 0},
	}}); err == nil {
		t.Error("duplicate shard names were accepted")
	}
	if _, err := NewServer(Options{Shards: []ShardConfig{{MaxVertices: 0}}}); err == nil {
		t.Error("unnamed shard was accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	for name, req := range map[string]SolveRequest{
		"empty":                   {},
		"both inputs":             {Instance: "alu2", Graph: triangleCol},
		"graph without width":     {Graph: triangleCol},
		"unknown instance":        {Instance: "no-such-instance"},
		"bad graph":               {Graph: "p edge nonsense", Width: 3},
		"bad strategy":            {Graph: triangleCol, Width: 3, Strategy: "no-such-encoding"},
		"portfolio plus strategy": {Graph: triangleCol, Width: 3, Portfolio: true, Strategy: DefaultStrategy},
		"negative width":          {Graph: triangleCol, Width: -1},
		"oversized width":         {Graph: triangleCol, Width: MaxSubmitWidth + 1},
		"negative lanes":          {Graph: triangleCol, Width: 3, Lanes: -2},
		"oversized lanes":         {Graph: triangleCol, Width: 3, Lanes: MaxSubmitLanes + 1},
		"negative retries":        {Graph: triangleCol, Width: 3, MaxRetries: -1},
		"oversized retries":       {Graph: triangleCol, Width: 3, MaxRetries: MaxSubmitRetries + 1},
		"negative budget":         {Graph: triangleCol, Width: 3, ConflictBudget: -5},
		"negative deadline":       {Graph: triangleCol, Width: 3, DeadlineMS: -1},
		"negative lane timeout":   {Graph: triangleCol, Width: 3, LaneTimeoutMS: -1},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("%s: Submit accepted an invalid request", name)
		} else if _, ok := err.(*RequestError); !ok {
			t.Errorf("%s: error %v is not a *RequestError", name, err)
		}
	}
}

func TestSolveInlineGraph(t *testing.T) {
	s := newTestServer(t, Options{})
	job, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3, WantColors: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, job)
	if v.Answer != AnswerRoutable {
		t.Fatalf("triangle at W=3: answer %s (error %q), want ROUTABLE", v.Answer, v.Error)
	}
	if len(v.Colors) != 3 {
		t.Fatalf("want_colors returned %d colors, want 3", len(v.Colors))
	}
	if v.Winner == "" || v.Attempts < 1 {
		t.Errorf("winner %q attempts %d: incomplete result", v.Winner, v.Attempts)
	}

	job, err = s.Submit(SolveRequest{Graph: triangleCol, Width: 2, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitDone(t, job); v.Answer != AnswerUnroutable {
		t.Fatalf("triangle at W=2: answer %s, want UNROUTABLE", v.Answer)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: 1},
	}})
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { <-release })
	// Cleanups run LIFO, so this fires before newTestServer's Drain —
	// a failed test must not leave the worker parked on the failpoint.
	t.Cleanup(func() {
		robust.ClearFailpoint(robust.FPPortfolioLane)
		releaseAll()
	})

	running, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the single worker has dequeued the stalled job, so the
	// next submit occupies the one queue slot deterministically.
	for running.View().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit returned %v, want ErrQueueFull", err)
	} else {
		var qf *QueueFullError
		if !errors.As(err, &qf) || qf.RetryAfter < time.Second {
			t.Fatalf("queue-full error %#v should carry a Retry-After of at least 1s", err)
		}
	}
	if got := s.reg.Counter(MetricJobsRejected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobsRejected, got)
	}

	releaseAll()
	waitDone(t, running)
	waitDone(t, queued)
}

func TestDrainFinishesInFlightJobsAndStopsAdmission(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "only", MaxVertices: 0, Workers: 2, QueueDepth: 16},
	}})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		v := j.View()
		if v.State != StateDone || v.Answer != AnswerRoutable {
			t.Errorf("job %s after drain: state %s answer %s, want done/ROUTABLE", j.ID, v.State, v.Answer)
		}
	}
	if !s.Draining() {
		t.Error("Draining() = false after Drain")
	}
	if _, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3}); err != ErrDraining {
		t.Errorf("submit after drain returned %v, want ErrDraining", err)
	}
	// Idempotent: a second drain returns immediately.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

func TestDrainTimeoutCancelsInFlightSolves(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "only", MaxVertices: 0, Workers: 1, QueueDepth: 4},
	}})
	// A pigeonhole refutation (K18 at 17 colors, no symmetry breaking)
	// cannot finish inside the drain window; the solver stays busy
	// until the expired drain cancels it.
	job, err := s.Submit(SolveRequest{Graph: cliqueDIMACS(18), Width: 17, Strategy: "log", DeadlineMS: 120_000})
	if err != nil {
		t.Fatal(err)
	}
	for job.View().State != StateRunning {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = s.Drain(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("drain returned %v, want context.DeadlineExceeded", err)
	}
	// The cancelled solve must still have completed its job record.
	v := waitDone(t, job)
	if v.State != StateDone {
		t.Errorf("job state %s after cancelled drain, want done", v.State)
	}
}

// cliqueDIMACS renders K_n in DIMACS edge format; coloring it with
// n-1 colors and no symmetry breaking is a pigeonhole refutation, the
// canonical exponentially-hard CDCL input.
func cliqueDIMACS(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "p edge %d %d\n", n, n*(n-1)/2)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			fmt.Fprintf(&b, "e %d %d\n", u, v)
		}
	}
	return b.String()
}

// TestScrapePoolGaugesPerShard is the regression test for pool gauges
// leaking out of the portfolio layer: each shard owns its solver pool,
// so only the per-shard serve.pool.* gauges may report it. An
// unsuffixed sat.reset.* or sat.arena.* gauge would describe whichever
// shard's job happened to finish last.
func TestScrapePoolGaugesPerShard(t *testing.T) {
	s := newTestServer(t, Options{Shards: []ShardConfig{
		{Name: "small", MaxVertices: 10, Workers: 1, QueueDepth: 8},
		{Name: "large", MaxVertices: 0, Workers: 1, QueueDepth: 8},
	}})
	var jobs []*Job
	for _, req := range []SolveRequest{
		{Graph: triangleCol, Width: 3, Portfolio: true},
		{Graph: cliqueDIMACS(12), Width: 12, Portfolio: true},
		{Graph: triangleCol, Width: 2, Portfolio: true},
	} {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if v := waitDone(t, j); v.State != StateDone || v.Error != "" {
			t.Fatalf("job %s: state %s error %q", j.ID, v.State, v.Error)
		}
	}
	snap := s.Scrape()
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "sat.reset.") || strings.HasPrefix(name, "sat.arena.") {
			t.Errorf("scrape carries unsuffixed pool gauge %s = %d", name, snap.Gauges[name])
		}
	}
	for _, sh := range s.shards {
		ps := sh.pool.Stats()
		if ps.Gets == 0 {
			t.Errorf("shard %s: pool never used", sh.cfg.Name)
		}
		if got := snap.Gauges[MetricPoolGets+"."+sh.cfg.Name]; got != ps.Gets {
			t.Errorf("%s.%s = %d, want the shard pool's %d", MetricPoolGets, sh.cfg.Name, got, ps.Gets)
		}
		if got := snap.Gauges[MetricPoolReuses+"."+sh.cfg.Name]; got != ps.Reuses {
			t.Errorf("%s.%s = %d, want the shard pool's %d", MetricPoolReuses, sh.cfg.Name, got, ps.Reuses)
		}
	}
}

func TestJobGC(t *testing.T) {
	s := newTestServer(t, Options{
		RetainJobs: 10 * time.Millisecond,
		GCInterval: 5 * time.Millisecond,
	})
	job, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)
	deadline := time.Now().Add(10 * time.Second)
	for s.JobCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("job table still holds %d jobs after retention expired", s.JobCount())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := s.Lookup(job.ID); ok {
		t.Error("completed job still resolvable after GC")
	}
}

func TestJobTableCapEvictsOldestDone(t *testing.T) {
	s := newTestServer(t, Options{MaxJobs: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID)
	}
	if n := s.JobCount(); n > 2 {
		t.Errorf("job table holds %d jobs, cap is 2", n)
	}
	if _, ok := s.Lookup(ids[0]); ok {
		t.Error("oldest completed job survived the cap eviction")
	}
	if _, ok := s.Lookup(ids[3]); !ok {
		t.Error("newest job was evicted")
	}
}

func TestDeadlineMapsToUndecidedWithAttempts(t *testing.T) {
	s := newTestServer(t, Options{})
	// Stall the lane past the job deadline; the solve then observes the
	// expired context and returns Unknown with its attempt recorded.
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { time.Sleep(150 * time.Millisecond) })
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLane) })

	job, err := s.Submit(SolveRequest{Graph: triangleCol, Width: 3, DeadlineMS: 30})
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, job)
	if v.Answer != AnswerUndecided || !v.TimedOut {
		t.Fatalf("answer %s timed_out %v, want UNDECIDED with timed_out", v.Answer, v.TimedOut)
	}
	if v.Attempts < 1 || len(v.Lanes) != 1 || v.Lanes[0].Attempts < 1 {
		t.Errorf("partial attempt info missing: attempts %d lanes %+v", v.Attempts, v.Lanes)
	}
	if got := s.reg.Counter(MetricJobsTimeout).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MetricJobsTimeout, got)
	}
}

func TestInstanceCacheIsReused(t *testing.T) {
	s := newTestServer(t, Options{})
	e1, err := s.resolveInstance("alu2")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.resolveInstance("alu2")
	if err != nil {
		t.Fatal(err)
	}
	if e1.g != e2.g {
		t.Error("second resolveInstance rebuilt the graph instead of using the cache")
	}
	if _, err := graph.ParseDIMACS(strings.NewReader(triangleCol)); err != nil {
		t.Fatal(err)
	}
}

// FuzzSolveRequest feeds arbitrary JSON through the shared job
// constructor: every request either fails with a *RequestError or
// yields a runnable job — width at least 1, at least one strategy and a
// shard — and none panics.
func FuzzSolveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"graph":"p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n","width":3}`,
		`{"instance":"term1","priority":"batch","portfolio":true,"lanes":2}`,
		`{"instance":"term1","strategy":"log/-","share":true,"deadline_ms":5}`,
		`{"graph":"p edge 2 1\ne 1 2\n","width":-1,"priority":"urgent"}`,
		`{"instance":"no-such-instance","max_retries":3,"conflict_budget":100}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	s := newTestServer(f, Options{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SolveRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		job, err := s.newJob(&req, time.Now())
		if err != nil {
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("request %s: error %v is not a *RequestError", data, err)
			}
			return
		}
		if job.width < 1 || len(job.strategies) == 0 || job.sh == nil {
			t.Fatalf("request %s: job width %d, %d strategies, shard %v", data, job.width, len(job.strategies), job.sh)
		}
	})
}
