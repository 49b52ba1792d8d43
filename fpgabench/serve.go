package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/sat"
	"fpgasat/internal/serve"
)

// The serve-mixed load: an open loop of async submits on a seeded
// Poisson schedule at one fixed rate. The daemon saturates near 185
// jobs/s on a 2-CPU host; at half that, latencies on a shared host
// swung 2-5x between runs, at 45 jobs/s far less (see README.md). 45
// jobs/s still gives a 30-second run over 1,000 interactive and 100
// batch completions, enough for their p99 and p90.
const (
	serveRate      = 45.0 // offered jobs per second
	batchShare     = 0.10 // verified W-1 batch jobs
	inlineShare    = 0.20 // interactive jobs sent as inline DIMACS graphs
	portfolioShare = 0.05 // interactive classic jobs raced as a portfolio
	dratReps       = 5    // direct DRAT replays timed by a traced run
)

// Interactive jobs are routable-W decisions on small instances, drawn
// with the weights below: mostly term1, whose latency is HTTP, journal
// fsync and queue hand-off, and a few of the larger 9symml, tseng,
// alu2 and too_large. term1 and its companion make up 88% of them,
// about 79% of all jobs, so the median job falls in the middle of that
// one class; at 70% it sat near the class's upper edge, where a seed's
// draw of larger jobs moved it. The crosstalk companions solve under
// the order encoding.
// Batch jobs refute 9symml at W-1 with verify, which replays the DRAT
// proof; under muldirect/s1 the replay costs about 50ms on a 2-CPU
// host, a third of the default strategy's, so batch jobs load the host
// less and interactive latencies stay steady.
var (
	interactiveMix = []struct {
		name   string
		weight int
	}{
		{"term1", 85}, {"term1.x2", 3}, {"9symml", 2}, {"9symml.x2", 2},
		{"tseng", 2}, {"tseng.x2", 2}, {"alu2", 2}, {"alu2.x2", 1}, {"too_large", 1},
	}
	batchInstance = "9symml"
	batchStrategy = "muldirect/s1"
)

// pickInteractive draws an interactive instance by weight.
func pickInteractive(rng *rand.Rand) string {
	total := 0
	for _, m := range interactiveMix {
		total += m.weight
	}
	r := rng.Intn(total)
	for _, m := range interactiveMix {
		if r < m.weight {
			return m.name
		}
		r -= m.weight
	}
	panic("unreachable: weights sum to total")
}

// serveInput is one instance as the benchmark knows it: the conflict
// graph (for checking returned colors) and its DIMACS text.
type serveInput struct {
	name   string
	g      *graph.Graph
	w      int
	xtalk  bool
	dimacs string
}

// serveReq is one scheduled request.
type serveReq struct {
	due    time.Duration // offset from the start of the load
	body   []byte
	batch  bool
	in     *serveInput
	width  int
	expect string
}

// serveObs is what the client saw of one request.
type serveObs struct {
	sent, done time.Time
	view       serve.JobView
	err        error
}

func buildServeInputs() (map[string]*serveInput, error) {
	out := map[string]*serveInput{}
	names := []string{batchInstance}
	for _, m := range interactiveMix {
		names = append(names, m.name)
	}
	for _, name := range names {
		if out[name] != nil {
			continue
		}
		in, err := mcnc.ByName(name)
		if err != nil {
			return nil, err
		}
		_, g, err := in.Build()
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		if err := graph.WriteDIMACS(&sb, g); err != nil {
			return nil, err
		}
		out[name] = &serveInput{name: name, g: g, w: in.RoutableW, xtalk: in.Crosstalk >= 2, dimacs: sb.String()}
	}
	return out, nil
}

// makeSchedule draws the request schedule from the seed: Poisson
// arrivals at serveRate over the window, batchShare of them batch
// jobs at seeded positions, and a seeded mix of instances, inline
// graphs and portfolio jobs among the interactive ones.
func makeSchedule(seed int64, inputs map[string]*serveInput, window time.Duration) ([]serveReq, error) {
	rng := rand.New(rand.NewSource(seed))
	// A Poisson process conditioned on its count: the arrival times of
	// exactly rate×window requests are independent and uniform over the
	// window, so every run offers the same number of jobs.
	dues := make([]time.Duration, int(serveRate*window.Seconds()))
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	isBatch := make([]bool, len(dues))
	for _, i := range rng.Perm(len(dues))[:int(math.Round(batchShare*float64(len(dues))))] {
		isBatch[i] = true
	}
	sched := make([]serveReq, len(dues))
	for i, due := range dues {
		r := serveReq{due: due, batch: isBatch[i]}
		var req serve.SolveRequest
		if r.batch {
			r.in = inputs[batchInstance]
			r.width, r.expect = r.in.w-1, serve.AnswerUnroutable
			req = serve.SolveRequest{Instance: r.in.name, Width: r.width, Strategy: batchStrategy,
				Verify: true, Priority: serve.PriorityBatch}
		} else {
			r.in = inputs[pickInteractive(rng)]
			r.width, r.expect = r.in.w, serve.AnswerRoutable
			req = serve.SolveRequest{Instance: r.in.name, Width: r.width, WantColors: true}
			if rng.Float64() < inlineShare {
				req.Instance, req.Graph = "", r.in.dimacs
			}
			if r.in.xtalk {
				req.Strategy = "order"
			} else if rng.Float64() < portfolioShare {
				req.Portfolio = true
			}
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		r.body = body
		sched[i] = r
	}
	return sched, nil
}

// serveEnv is a running daemon: the server with its journal in a
// temporary directory, served over a loopback listener.
type serveEnv struct {
	srv *serve.Server
	hs  *http.Server
	url string
	dir string
}

// startServe starts a server and warms its instance cache with one
// synchronous job per instance.
func startServe(workdir string, inputs map[string]*serveInput) (*serveEnv, error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Options{JournalDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Drain(context.Background())
		os.RemoveAll(dir)
		return nil, err
	}
	env := &serveEnv{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/solve", dir: dir}
	go env.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	for _, in := range inputs {
		req := serve.SolveRequest{Instance: in.name}
		if in.xtalk {
			req.Strategy = "order"
		}
		job, err := srv.Submit(req)
		if err != nil {
			env.stop()
			return nil, fmt.Errorf("warming %s: %w", in.name, err)
		}
		<-job.Done()
		if v := job.View(); v.Answer != serve.AnswerRoutable {
			env.stop()
			return nil, fmt.Errorf("warming %s: answered %s %s", in.name, v.Answer, v.Error)
		}
	}
	return env, nil
}

// stop shuts the listener, drains the server (cancelling solves still
// running after 10s) and removes the journal.
func (e *serveEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx)
	_ = e.srv.Drain(ctx)
	os.RemoveAll(e.dir)
}

// runServe measures the serve-mixed workload.
func runServe(cfg runConfig) (*report, error) {
	rep := newReport()
	window := time.Duration(cfg.seconds) * time.Second
	var env *serveEnv
	var inputs map[string]*serveInput
	var sched []serveReq
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.stop()
		}
		c0 := processCPU()
		var err error
		if inputs, err = buildServeInputs(); err != nil {
			return nil, err
		}
		if sched, err = makeSchedule(cfg.seed, inputs, window); err != nil {
			return nil, err
		}
		if env, err = startServe(cfg.workdir, inputs); err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
	}
	rep.metrics.setMedian("setup_s", setups)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	before := env.srv.Scrape()
	c0 := processCPU()
	obsv, start, backlog := offerLoad(env, sched, tr)
	cpu := processCPU() - c0
	after := env.srv.Scrape()
	env.stop()

	ok := evaluateServe(rep, sched, obsv, start, tr != nil)
	rep.metrics.set("jobs_per_cpu_s", float64(ok)/cpu.Seconds())
	serveLayers(rep, before, after, len(sched))
	rep.meta["offered_rate_jobs_s"] = serveRate
	rep.meta["requests"] = len(sched)
	rep.meta["connections"] = runtime.NumCPU()
	rep.meta["backlog_samples"] = backlog
	grew := backlogGrew(backlog)
	rep.meta["backlog_grew"] = grew
	if grew {
		rep.warnings = append(rep.warnings, "serve backlog grew during the run: offered rate above capacity")
	}
	if cfg.trace {
		if err := dratLayer(rep, inputs, tr); err != nil {
			return nil, err
		}
		rep.spans = tr.snapshot()
	}
	return rep, nil
}

// offerLoad plays the schedule against the daemon from one generator
// over at most nproc connections and waits for every accepted job.
// It returns the observations, the load's start time and the backlog
// (requests due but not yet completed, whether still waiting for a
// connection, queued or solving) sampled every 250ms. With a tracer,
// every even-numbered request records a root span from its due time
// to its completion, with the submit round trip as its child.
func offerLoad(env *serveEnv, sched []serveReq, tr *tracer) ([]serveObs, time.Time, []int64) {
	conns := runtime.NumCPU()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	obsv := make([]serveObs, len(sched))
	// Sized to the number of sends, so the generator never blocks on a
	// slow sender and its lag is measured, not hidden.
	work := make(chan int, len(sched))
	var outstanding atomic.Int64
	var senders, waiters sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)

	stopMon := make(chan struct{})
	monDone := make(chan []int64)
	go func() {
		var samples []int64
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, outstanding.Load())
			case <-stopMon:
				monDone <- samples
				return
			}
		}
	}()

	for k := 0; k < conns; k++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range work {
				o := &obsv[i]
				root, sub := 0, 0
				if tr != nil && i%2 == 0 {
					id := fmt.Sprintf("req%d/%s", i, sched[i].in.name)
					due := start.Add(sched[i].due)
					root = tr.add("serve.job", id, 0, due, due)
					sub = tr.begin("serve.submit", id, root)
				}
				job, err := submit(client, env, sched[i].body, o)
				tr.end(sub)
				if err != nil {
					o.err = err
					tr.end(root)
					outstanding.Add(-1)
					continue
				}
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					<-job.Done()
					o.done = time.Now()
					tr.end(root)
					o.view = job.View()
					outstanding.Add(-1)
				}()
			}
		}()
	}
	for i, r := range sched {
		time.Sleep(time.Until(start.Add(r.due)))
		outstanding.Add(1)
		work <- i
	}
	close(work)
	close(stopMon) // the backlog is sampled over the schedule window only
	backlog := <-monDone
	senders.Wait()

	finished := make(chan struct{})
	go func() {
		waiters.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		// Cancel what is still running; the jobs complete UNDECIDED and
		// count as failures.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = env.srv.Drain(ctx)
		<-finished
	}
	return obsv, start, backlog
}

// submit POSTs one request and resolves the accepted job in-process.
func submit(client *http.Client, env *serveEnv, body []byte, o *serveObs) (*serve.Job, error) {
	o.sent = time.Now()
	resp, err := client.Post(env.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var v serve.JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	job, ok := env.srv.Lookup(v.ID)
	if !ok {
		return nil, fmt.Errorf("accepted job %s not found", v.ID)
	}
	return job, nil
}

// checkView checks a finished job against ground truth: the expected
// answer, no error, shed or timeout, and for ROUTABLE answers colors
// that pass the benchmark's own coloring check.
func checkView(v serve.JobView, r serveReq) error {
	switch {
	case v.State != serve.StateDone:
		return fmt.Errorf("job %s not done: %s", v.ID, v.State)
	case v.Shed:
		return fmt.Errorf("job %s shed: %s", v.ID, v.Error)
	case v.TimedOut:
		return fmt.Errorf("job %s timed out", v.ID)
	case v.Error != "":
		return fmt.Errorf("job %s: %s", v.ID, v.Error)
	case v.Answer != r.expect:
		return fmt.Errorf("job %s: %s at W=%d answered %s, want %s", v.ID, r.in.name, r.width, v.Answer, r.expect)
	}
	if v.Answer == serve.AnswerRoutable {
		if err := checkColoring(r.in.g, v.Colors, r.width); err != nil {
			return fmt.Errorf("job %s: %s at W=%d: %w", v.ID, r.in.name, r.width, err)
		}
	}
	return nil
}

// checkColoring checks that colors is a coloring of g with w colors
// that keeps every edge's endpoints at least its distance apart.
func checkColoring(g *graph.Graph, colors []int, w int) error {
	if len(colors) != g.N() {
		return fmt.Errorf("%d colors for %d vertices", len(colors), g.N())
	}
	for v, c := range colors {
		if c < 0 || c >= w {
			return fmt.Errorf("vertex %d color %d outside [0,%d)", v, c, w)
		}
	}
	var bad error
	g.ForEachWeightedEdge(func(u, v, d int) {
		diff := colors[u] - colors[v]
		if diff < 0 {
			diff = -diff
		}
		if bad == nil && diff < d {
			bad = fmt.Errorf("edge %d-%d needs distance %d, colors %d and %d", u, v, d, colors[u], colors[v])
		}
	})
	return bad
}

// evaluateServe checks every request, derives the latency metrics and
// returns the number of correct answers. Latency runs from each
// request's due time to the observed completion. In a traced run the
// tracing overhead compares the traced (even-numbered) interactive
// requests with the others.
func evaluateServe(rep *report, sched []serveReq, obsv []serveObs, start time.Time, traced bool) int {
	var all, inter, batch, lags, overhead, queued, solved []float64
	var tracedLat, untracedLat []float64
	var lastDone time.Time
	ok, attempts := 0, 0
	for i, r := range sched {
		o := obsv[i]
		due := start.Add(r.due)
		if !o.sent.IsZero() {
			lags = append(lags, ms(o.sent.Sub(due)))
		}
		err := o.err
		if err == nil {
			err = checkView(o.view, r)
		}
		rep.tally.record(err)
		if o.err != nil {
			continue
		}
		lat := ms(o.done.Sub(due))
		all = append(all, lat)
		if r.batch {
			batch = append(batch, lat)
		} else {
			inter = append(inter, lat)
			if i%2 == 0 {
				tracedLat = append(tracedLat, lat)
			} else {
				untracedLat = append(untracedLat, lat)
			}
		}
		overhead = append(overhead, lat-float64(o.view.QueuedMS+o.view.SolveMS))
		queued = append(queued, float64(o.view.QueuedMS))
		solved = append(solved, float64(o.view.SolveMS))
		for _, l := range o.view.Lanes {
			attempts += l.Attempts
		}
		if o.done.After(lastDone) {
			lastDone = o.done
		}
		if err == nil {
			ok++
		}
	}
	m := rep.metrics
	m.setMedian("job_p50_ms", all)
	rep.setTail("job_tail_ms", all, 99.99)
	m.setMedian("serve.interactive_p50_ms", inter)
	rep.setTail("serve.interactive_p99_ms", inter, 99)
	m.setMedian("serve.batch_p50_ms", batch)
	rep.setTail("serve.batch_p90_ms", batch, 90)
	if span := lastDone.Sub(start); span > 0 {
		m.set("serve.goodput_jobs_s", float64(ok)/span.Seconds())
	}
	rep.setTail("bench.gen_lag_p99_ms", lags, 99)
	m.setMedian("serve.overhead_p50_ms", overhead)
	m.setMedian("serve.queue_wait_p50_ms", queued)
	rep.setTail("serve.queue_wait_p99_ms", queued, 99)
	m.setMedian("serve.solve_p50_ms", solved)
	m.set("portfolio.attempts", float64(attempts))
	rep.meta["interactive_completions"] = len(inter)
	rep.meta["batch_completions"] = len(batch)
	if traced && len(untracedLat) > 0 {
		m.set("bench.trace_overhead_ratio", median(tracedLat)/median(untracedLat))
	}
	return ok
}

// serveLayers derives the daemon's layer metrics from the registry
// delta over the load: journal fsyncs, pool reuse, sheds, rejections.
func serveLayers(rep *report, before, after obs.Snapshot, jobs int) {
	m := rep.metrics
	fb, fa := before.Timers[serve.MetricJournalFsync], after.Timers[serve.MetricJournalFsync]
	if n := fa.Count - fb.Count; n > 0 {
		m.set("serve.journal_fsync_mean_ms", ms(fa.Total-fb.Total)/float64(n))
		m.set("serve.journal_fsyncs_per_job", float64(n)/float64(jobs))
	}
	m.set("serve.journal_fsync_max_ms", ms(fa.Max))
	var gets, reuses int64
	for name, v := range after.Gauges {
		switch {
		case strings.HasPrefix(name, serve.MetricPoolGets+"."):
			gets += v - before.Gauges[name]
		case strings.HasPrefix(name, serve.MetricPoolReuses+"."):
			reuses += v - before.Gauges[name]
		}
	}
	if gets > 0 {
		m.set("serve.pool_reuse_ratio", float64(reuses)/float64(gets))
	}
	delta := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	m.set("serve.shed", delta(serve.MetricShedSojourn)+delta(serve.MetricShedDeadline))
	m.set("serve.rejected", delta(serve.MetricJobsRejected))
}

// backlogGrew flags a run whose backlog of unfinished jobs kept
// rising: the mean of the last third of the samples exceeds twice the
// mean of the first third by more than a few jobs.
func backlogGrew(samples []int64) bool {
	if len(samples) < 6 {
		return false
	}
	third := len(samples) / 3
	mean := func(xs []int64) float64 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	first, last := mean(samples[:third]), mean(samples[len(samples)-third:])
	return last > 2*first+5
}

// dratLayer times the DRAT checker directly: the batch configuration
// is re-solved with a ProofWriter, outside the daemon, and its proof
// replayed through sat.CheckDRAT, dratReps times.
func dratLayer(rep *report, inputs map[string]*serveInput, tr *tracer) error {
	st, err := core.ParseStrategy(batchStrategy)
	if err != nil {
		return err
	}
	in := inputs[batchInstance]
	w := in.w - 1
	var checkMS []float64
	lemmas := 0
	for i := 0; i < dratReps; i++ {
		id := fmt.Sprintf("drat%d/%s", i, in.name)
		root := tr.begin("drat.job", id, 0)
		sp := tr.begin(spanSymmetry, id, root)
		csp := core.BuildCSP(in.g, w, st.Symmetry)
		tr.end(sp)
		sp = tr.begin(spanEncode, id, root)
		enc := core.Encode(csp, st.Encoding)
		tr.end(sp)
		var proof bytes.Buffer
		sp = tr.begin(spanSolve, id, root)
		s := sat.New(sat.Options{ProofWriter: &proof})
		s.Load(enc.CNF) // a refutation while loading still leaves Solve to close the proof
		status := s.Solve()
		tr.end(sp)
		if status != sat.Unsat {
			tr.end(root)
			return fmt.Errorf("%s at W=%d: answered %v, want UNSAT", in.name, w, status)
		}
		if err := s.ProofError(); err != nil {
			tr.end(root)
			return err
		}
		lemmas = 0
		for _, line := range bytes.Split(proof.Bytes(), []byte("\n")) {
			if len(line) > 0 && line[0] != 'd' && line[0] != 'c' {
				lemmas++
			}
		}
		t0 := time.Now()
		sp = tr.begin("sat.drat_check", id, root)
		err := sat.CheckDRAT(enc.CNF, bytes.NewReader(proof.Bytes()))
		tr.end(sp)
		checkMS = append(checkMS, msSince(t0))
		tr.end(root)
		if err != nil {
			return fmt.Errorf("DRAT check of %s at W=%d: %w", in.name, w, err)
		}
	}
	rep.metrics.setMedian("sat.drat_check_ms", checkMS)
	rep.metrics.set("sat.proof_lemmas", float64(lemmas))
	return nil
}
