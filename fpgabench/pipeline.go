package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
)

// Span names of the pipeline layers, one per public call the benchmark
// times; spanJob is the root span of one configuration.
const (
	spanJob      = "job"
	spanGenerate = "fpga.generate"
	spanRoute    = "fpga.route"
	spanConflict = "fpga.conflict"
	spanSymmetry = "symmetry.break"
	spanEncode   = "core.encode"
	spanSolve    = "sat.solve"
	spanDecode   = "core.decode"
	spanAssign   = "fpga.assign"
)

var pipelineLayers = []string{spanGenerate, spanRoute, spanConflict, spanSymmetry,
	spanEncode, spanSolve, spanDecode, spanAssign}

// pipelineJob is one configuration: an instance at a width under a
// strategy, with the answer its calibration guarantees.
type pipelineJob struct {
	inst  mcnc.Instance
	width int
	strat core.Strategy
	want  sat.Status
}

func (j pipelineJob) String() string {
	return fmt.Sprintf("%s W=%d %s", j.inst.Name, j.width, j.strat.Name())
}

// table2Jobs are the paper's headline: the eight Table-2 instances
// refuted at RoutableW-1 under its best strategy.
func table2Jobs() ([]pipelineJob, error) {
	st, err := core.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		return nil, err
	}
	var jobs []pipelineJob
	for _, in := range mcnc.Table2Instances() {
		jobs = append(jobs, pipelineJob{inst: in, width: in.UnroutableW(), strat: st, want: sat.Unsat})
	}
	return jobs, nil
}

// routableJobs are the eleven classic instances at RoutableW under
// muldirect without symmetry breaking, plus the five crosstalk
// companions at RoutableW under the order encoding.
func routableJobs() ([]pipelineJob, error) {
	classic, err := core.ParseStrategy("muldirect/-")
	if err != nil {
		return nil, err
	}
	order, err := core.ParseStrategy("order")
	if err != nil {
		return nil, err
	}
	var jobs []pipelineJob
	for _, in := range mcnc.Instances() {
		st := classic
		if in.Crosstalk >= 2 {
			st = order
		}
		jobs = append(jobs, pipelineJob{inst: in, width: in.RoutableW, strat: st, want: sat.Sat})
	}
	return jobs, nil
}

// jobCounts is the work one configuration did, as exact counts.
type jobCounts struct {
	stats                          sat.Stats
	vertices, edges, vars, clauses int
}

// runJob runs one configuration afresh through every layer —
// generate, route, conflict graph, symmetry breaking, encode, solve
// and, for SAT answers, decode/verify and track assignment — and
// checks the answer against ground truth. tr (may be nil) records a
// span around each call; corrupt (nil outside tests) rewrites the
// solver's answer before it is checked.
func runJob(j pipelineJob, tr *tracer, id string, corrupt func(*sat.Result)) (jobCounts, error) {
	var c jobCounts
	root := tr.begin(spanJob, id, 0)
	defer tr.end(root)

	sp := tr.begin(spanGenerate, id, root)
	nl, err := fpga.Generate(j.inst.Name, j.inst.Gen)
	tr.end(sp)
	if err != nil {
		return c, err
	}
	sp = tr.begin(spanRoute, id, root)
	gr, _, err := fpga.RouteGlobal(nl, j.inst.Route)
	tr.end(sp)
	if err != nil {
		return c, err
	}
	sp = tr.begin(spanConflict, id, root)
	g := gr.ConflictGraphXtalk(j.inst.Crosstalk)
	tr.end(sp)
	c.vertices, c.edges = g.N(), g.M()

	sp = tr.begin(spanSymmetry, id, root)
	csp := core.BuildCSP(g, j.width, j.strat.Symmetry)
	tr.end(sp)
	sp = tr.begin(spanEncode, id, root)
	enc := core.Encode(csp, j.strat.Encoding)
	tr.end(sp)
	c.vars, c.clauses = enc.CNF.NumVars, enc.CNF.NumClauses()

	sp = tr.begin(spanSolve, id, root)
	res := sat.SolveCNFContext(context.Background(), enc.CNF, sat.Options{})
	tr.end(sp)
	c.stats = res.Stats
	if corrupt != nil {
		corrupt(&res)
	}
	if res.Status != j.want {
		return c, fmt.Errorf("%v: answered %v, want %v", j, res.Status, j.want)
	}
	if res.Status != sat.Sat {
		return c, nil
	}
	sp = tr.begin(spanDecode, id, root)
	colors, err := enc.DecodeVerify(res.Model)
	tr.end(sp)
	if err != nil {
		return c, fmt.Errorf("%v: %w", j, err)
	}
	sp = tr.begin(spanAssign, id, root)
	_, err = fpga.AssignTracks(gr, colors, j.width) // validates the detailed routing
	tr.end(sp)
	if err != nil {
		return c, fmt.Errorf("%v: %w", j, err)
	}
	return c, nil
}

// setupPipeline is one set-up of a pipeline workload: the front end of
// every configuration is built once (generate, route, conflict graph),
// so lazy initialization and heap growth happen before timing and a
// broken instance fails before any pass.
func setupPipeline(jobs []pipelineJob) error {
	for _, j := range jobs {
		if _, _, err := j.inst.Build(); err != nil {
			return err
		}
	}
	return nil
}

// passRecord is one pass over a pipeline workload.
type passRecord struct {
	dur      time.Duration // wall time
	cpu      time.Duration // process CPU time
	traced   bool
	lo, hi   int // span index range of the pass (traced passes)
	counts   jobCounts
	jobsDone int
}

// minPasses is the fewest passes a pipeline run makes, so its pass
// time is a true median even when a pass takes a third of the run.
const minPasses = 3

// runPipeline measures a pipeline workload: whole passes over its
// configurations in a seeded order, as many as fit in cfg.seconds and
// at least minPasses. In a traced run every other pass records spans.
//
// Passes and jobs are timed in process CPU time, not wall time: on a
// shared virtual host the hypervisor takes the CPU away for whole
// stretches, which the guest kernel leaves out of a process's CPU time
// but not out of its wall time, and the work runs on one goroutine
// with nothing else in the process to wait for. The pass's wall time
// is table2.total_s or routable.total_s.
func runPipeline(totalMetric string, jobs []pipelineJob, cfg runConfig) (*report, error) {
	rep := newReport()
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		c0 := processCPU()
		if err := setupPipeline(jobs); err != nil {
			return nil, err
		}
		setups = append(setups, (processCPU() - c0).Seconds())
	}
	rep.metrics.setMedian("setup_s", setups)

	rng := rand.New(rand.NewSource(cfg.seed))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var passes []passRecord
	jobCPU := make([][]float64, len(jobs)) // per configuration, ms
	budget := time.Duration(cfg.seconds) * time.Second
	start := time.Now()
	for len(passes) < minPasses || time.Since(start)+passes[len(passes)-1].dur <= budget {
		p := passRecord{traced: cfg.trace && len(passes)%2 == 0}
		ptr := tr
		if !p.traced {
			ptr = nil
		}
		p.lo = tr.count()
		order := rng.Perm(len(jobs))
		p0, c0 := time.Now(), processCPU()
		for _, i := range order {
			j0 := processCPU()
			c, err := runJob(jobs[i], ptr, fmt.Sprintf("pass%d/%s", len(passes), jobs[i].inst.Name), nil)
			jobCPU[i] = append(jobCPU[i], ms(processCPU()-j0))
			rep.tally.record(err)
			p.counts.add(c)
			if err == nil {
				p.jobsDone++
			}
		}
		p.dur, p.cpu = time.Since(p0), processCPU()-c0
		p.hi = tr.count()
		passes = append(passes, p)
	}

	// Pass times come from untraced passes whenever there are any.
	var traced, untraced, tracedCPU, untracedCPU []float64
	okJobs := 0
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p.dur.Seconds())
			tracedCPU = append(tracedCPU, p.cpu.Seconds())
		} else {
			untraced = append(untraced, p.dur.Seconds())
			untracedCPU = append(untracedCPU, p.cpu.Seconds())
		}
		okJobs += p.jobsDone
	}
	timed, timedCPU := untraced, untracedCPU
	if len(timed) == 0 {
		timed, timedCPU = traced, tracedCPU
	}
	rep.metrics.setMedian(totalMetric, timed)
	rep.metrics.setMedian("bench.pass_cpu_s", timedCPU)
	passCPU := rep.metrics["bench.pass_cpu_s"].value
	rep.metrics.set("jobs_per_cpu_s", float64(okJobs)/float64(len(passes))/passCPU)
	// Each configuration's time is the median over its passes; the
	// metrics summarize those, so which configuration sits at a rank
	// does not turn on single samples.
	perJob := make([]float64, len(jobs))
	slowest := 0
	for i, xs := range jobCPU {
		perJob[i] = median(xs)
		if perJob[i] > perJob[slowest] {
			slowest = i
		}
	}
	rep.metrics.setMedian("job_p50_ms", perJob)
	rep.metrics.set("job_tail_ms", perJob[slowest])
	rep.meta["slowest_job"] = jobs[slowest].String()
	rep.meta["passes"] = len(passes)
	rep.meta["jobs_per_pass"] = len(jobs)

	last := passes[len(passes)-1].counts
	rep.metrics.set("sat.conflicts", float64(last.stats.Conflicts))
	rep.metrics.set("sat.decisions", float64(last.stats.Decisions))
	rep.metrics.set("sat.propagations", float64(last.stats.Propagations))
	rep.metrics.set("sat.restarts", float64(last.stats.Restarts))
	rep.metrics.set("graph.vertices", float64(last.vertices))
	rep.metrics.set("graph.edges", float64(last.edges))
	rep.metrics.set("core.vars", float64(last.vars))
	rep.metrics.set("core.clauses", float64(last.clauses))
	if cfg.trace {
		summarizePipelineTrace(rep, tr.snapshot(), passes, traced, untraced)
	}
	return rep, nil
}

func (c *jobCounts) add(o jobCounts) {
	c.stats.Conflicts += o.stats.Conflicts
	c.stats.Decisions += o.stats.Decisions
	c.stats.Propagations += o.stats.Propagations
	c.stats.Restarts += o.stats.Restarts
	c.vertices += o.vertices
	c.edges += o.edges
	c.vars += o.vars
	c.clauses += o.clauses
}

// instanceShare is one configuration's traced wall time split into
// layer self times; the unattributed part is the root span's own self
// time.
type instanceShare struct {
	Job          string             `json:"job"`
	WallMS       float64            `json:"wall_ms"`
	LayerMS      map[string]float64 `json:"layer_ms"`
	UnattribMS   float64            `json:"unattributed_ms"`
	UnattribFrac float64            `json:"unattributed_frac"`
}

// summarizePipelineTrace turns the traced passes' spans into per-layer
// metrics (median per-pass self time of each layer), per-configuration
// shares, the unattributed remainder and the tracing overhead.
func summarizePipelineTrace(rep *report, spans []span, passes []passRecord, traced, untraced []float64) {
	self := selfTimes(spans)
	layerMS := map[string][]float64{}
	var rootSelf, rootWall time.Duration
	var shares []instanceShare
	for _, p := range passes {
		if !p.traced {
			continue
		}
		perLayer := map[string]time.Duration{}
		for i := p.lo; i < p.hi; i++ {
			s := spans[i]
			if s.Parent == 0 {
				wall := time.Duration(s.End - s.Start)
				rootSelf += self[i]
				rootWall += wall
				shares = append(shares, instanceShare{Job: s.Job, WallMS: ms(wall),
					LayerMS: map[string]float64{}, UnattribMS: ms(self[i]),
					UnattribFrac: float64(self[i]) / float64(wall)})
				continue
			}
			perLayer[s.Name] += self[i]
			shares[len(shares)-1].LayerMS[s.Name] += ms(self[i]) // children follow their root
		}
		for _, l := range pipelineLayers {
			layerMS[l] = append(layerMS[l], ms(perLayer[l]))
		}
	}
	for _, l := range pipelineLayers {
		rep.metrics.setMedian(l+"_ms", layerMS[l])
	}
	solveS := rep.metrics["sat.solve_ms"].value / 1000
	encodeS := rep.metrics["core.encode_ms"].value / 1000
	if solveS > 0 {
		rep.metrics.set("sat.props_per_s", rep.metrics["sat.propagations"].value/solveS)
		rep.metrics.set("sat.conflicts_per_s", rep.metrics["sat.conflicts"].value/solveS)
	}
	if encodeS > 0 {
		rep.metrics.set("core.clauses_per_s", rep.metrics["core.clauses"].value/encodeS)
	}
	if rootWall > 0 {
		rep.metrics.set("bench.unattributed_ratio", float64(rootSelf)/float64(rootWall))
	}
	if len(untraced) > 0 {
		rep.metrics.set("bench.trace_overhead_ratio", median(traced)/median(untraced))
	}
	rep.layerShares = layerShares(layerMS, median(traced))
	rep.spans = spans
	rep.traceSummary = shares
}

// layerShares is each layer's median per-pass self time as a share of
// the median traced pass.
func layerShares(layerMS map[string][]float64, passS float64) map[string]float64 {
	out := map[string]float64{}
	if passS <= 0 {
		return out
	}
	for l, v := range layerMS {
		out[l] = median(v) / 1000 / passS
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }
