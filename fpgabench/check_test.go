package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
	"fpgasat/internal/serve"
)

var errTest = errors.New("injected")

func mustJobs(t *testing.T, build func() ([]pipelineJob, error)) []pipelineJob {
	t.Helper()
	jobs, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func findJob(t *testing.T, jobs []pipelineJob, name string) pipelineJob {
	t.Helper()
	for _, j := range jobs {
		if j.inst.Name == name {
			return j
		}
	}
	t.Fatalf("no job for %s", name)
	return pipelineJob{}
}

// TestPipelineWrongAnswerFails injects wrong solver answers into
// otherwise correct configurations: a flipped status and a corrupted
// model must each fail the ground-truth check and raise failed_ratio.
func TestPipelineWrongAnswerFails(t *testing.T) {
	routable := findJob(t, mustJobs(t, routableJobs), "term1")
	refute := findJob(t, mustJobs(t, table2Jobs), "alu2")
	if _, err := runJob(routable, nil, "ok", nil); err != nil {
		t.Fatalf("correct run failed: %v", err)
	}
	injections := []struct {
		name    string
		job     pipelineJob
		corrupt func(*sat.Result)
	}{
		{"SAT reported as UNSAT", routable, func(r *sat.Result) { r.Status = sat.Unsat }},
		{"UNSAT reported as SAT", refute, func(r *sat.Result) { r.Status = sat.Sat }},
		{"model with every variable false", routable, func(r *sat.Result) {
			for i := range r.Model {
				r.Model[i] = false
			}
		}},
		{"model with every variable true", routable, func(r *sat.Result) {
			for i := range r.Model {
				r.Model[i] = true
			}
		}},
	}
	var tl tally
	tl.record(nil) // one correct answer
	for _, in := range injections {
		_, err := runJob(in.job, nil, in.name, in.corrupt)
		if err == nil {
			t.Errorf("%s: wrong answer passed the check", in.name)
		}
		tl.record(err)
	}
	if want := float64(len(injections)) / float64(len(injections)+1); tl.failedRatio() != want {
		t.Fatalf("failed_ratio = %v, want %v", tl.failedRatio(), want)
	}
}

// TestServeWrongAnswerFails feeds evaluateServe observations with one
// correct and several wrong daemon answers.
func TestServeWrongAnswerFails(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	si := &serveInput{name: in.Name, g: g, w: in.RoutableW}
	good := solveColors(t, g, in.RoutableW)
	routable := serveReq{in: si, width: in.RoutableW, expect: serve.AnswerRoutable}
	done := serve.JobView{ID: "j1", State: serve.StateDone, Answer: serve.AnswerRoutable, Colors: good}
	if err := checkView(done, routable); err != nil {
		t.Fatalf("correct view rejected: %v", err)
	}
	badColors := append([]int(nil), good...)
	g.ForEachEdge(func(u, v int) { badColors[u] = badColors[v] })
	wrong := []serve.JobView{
		withView(done, func(v *serve.JobView) { v.Answer = serve.AnswerUnroutable }),
		withView(done, func(v *serve.JobView) { v.Answer = serve.AnswerUndecided }),
		withView(done, func(v *serve.JobView) { v.Colors = badColors }),
		withView(done, func(v *serve.JobView) { v.Colors = nil }),
		withView(done, func(v *serve.JobView) { v.Shed = true }),
		withView(done, func(v *serve.JobView) { v.Error = "lane panicked" }),
	}
	sched := []serveReq{routable}
	start := time.Now()
	obsv := []serveObs{{sent: start, done: start.Add(time.Millisecond), view: done}}
	for _, v := range wrong {
		if checkView(v, routable) == nil {
			t.Errorf("wrong view passed: %+v", v)
		}
		sched = append(sched, routable)
		obsv = append(obsv, serveObs{sent: start, done: start.Add(time.Millisecond), view: v})
	}
	sched = append(sched, routable)
	obsv = append(obsv, serveObs{sent: start, err: errTest}) // a non-2xx submit
	rep := newReport()
	evaluateServe(rep, sched, obsv, start, false)
	if want := float64(len(wrong)+1) / float64(len(sched)); rep.tally.failedRatio() != want {
		t.Fatalf("failed_ratio = %v, want %v", rep.tally.failedRatio(), want)
	}
}

func withView(v serve.JobView, f func(*serve.JobView)) serve.JobView {
	f(&v)
	return v
}

// solveColors returns a known-good w-coloring of g, solved in-process.
func solveColors(t *testing.T, g *graph.Graph, w int) []int {
	t.Helper()
	enc := core.Encode(core.BuildCSP(g, w, ""), core.NewSimple(core.KindMuldirect))
	res := sat.SolveCNFContext(context.Background(), enc.CNF, sat.Options{})
	if res.Status != sat.Sat {
		t.Fatalf("W=%d answered %v", w, res.Status)
	}
	colors, err := enc.DecodeVerify(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkColoring(g, colors, w); err != nil {
		t.Fatal(err)
	}
	return colors
}

func TestCheckColoringDistances(t *testing.T) {
	g := graph.FromWeightedEdgeStream(3, func(emit func(u, v, d int)) {
		emit(0, 1, 2)
		emit(1, 2, 1)
	})
	if err := checkColoring(g, []int{0, 2, 1}, 3); err != nil {
		t.Errorf("valid bandwidth coloring rejected: %v", err)
	}
	if checkColoring(g, []int{0, 1, 2}, 3) == nil {
		t.Error("distance violation accepted")
	}
	if checkColoring(g, []int{0, 2, 3}, 3) == nil {
		t.Error("color outside the width accepted")
	}
}

// TestSeedDrivesOnlyInputs runs one table2-refute pass under each of
// two workload seeds, in the seeded order a pass uses: the order
// differs, the solver's work must not, because the solver seed stays 0.
func TestSeedDrivesOnlyInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full table2-refute passes")
	}
	jobs := mustJobs(t, table2Jobs)
	var orders [][]int
	var conflicts []int64
	for _, seed := range []int64{1, 2} {
		order := rand.New(rand.NewSource(seed)).Perm(len(jobs))
		var total int64
		for _, i := range order {
			c, err := runJob(jobs[i], nil, "seed", nil)
			if err != nil {
				t.Fatal(err)
			}
			total += c.stats.Conflicts
		}
		orders = append(orders, order)
		conflicts = append(conflicts, total)
	}
	if reflect.DeepEqual(orders[0], orders[1]) {
		t.Fatal("both seeds visit the instances in the same order")
	}
	if conflicts[0] == 0 || conflicts[0] != conflicts[1] {
		t.Fatalf("sat.conflicts differ across workload seeds: %v", conflicts)
	}
}

// TestScheduleSizeAndDeterminism checks that one serve-mixed run offers
// enough work for its tails (at least 1,000 interactive and 100 batch
// jobs), that a seed reproduces its schedule and that seeds differ.
func TestScheduleSizeAndDeterminism(t *testing.T) {
	inputs, err := buildServeInputs()
	if err != nil {
		t.Fatal(err)
	}
	window := 30 * time.Second
	a, err := makeSchedule(7, inputs, window)
	if err != nil {
		t.Fatal(err)
	}
	inter, batch := 0, 0
	for _, r := range a {
		if r.due < 0 || r.due >= window {
			t.Fatalf("request due at %v outside the window", r.due)
		}
		if r.batch {
			batch++
		} else {
			inter++
		}
	}
	if inter < 1000 || batch < 100 {
		t.Fatalf("schedule has %d interactive and %d batch jobs", inter, batch)
	}
	b, _ := makeSchedule(7, inputs, window)
	c, _ := makeSchedule(8, inputs, window)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	for _, c := range []struct {
		set  []metricDef
		spec []struct{ Name, Unit string }
	}{{endToEndMetrics, spec.EndToEnd}, {perLayerMetrics, spec.PerLayer}} {
		if len(c.set) != len(c.spec) {
			t.Errorf("BENCHMARK.json lists %d metrics, program prints %d", len(c.spec), len(c.set))
			continue
		}
		for i, d := range c.set {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestServeMixedShortRun drives a two-second serve-mixed run end to end
// (run it with -race to check the load generator).
func TestServeMixedShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the daemon three times")
	}
	rep, err := runServe(runConfig{seed: 3, seconds: 2, trace: true, workdir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.tally.attempted != int(2*serveRate) || rep.tally.failed != 0 {
		t.Fatalf("%d attempted, %d failed: %v", rep.tally.attempted, rep.tally.failed, rep.tally.errors)
	}
	for _, name := range []string{"job_p50_ms", "serve.batch_p50_ms", "sat.drat_check_ms", "serve.journal_fsync_mean_ms"} {
		if rep.metrics[name].value <= 0 {
			t.Errorf("%s = %v", name, rep.metrics[name].value)
		}
	}
}
