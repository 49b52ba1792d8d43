package main

import (
	"math"
	"sort"
)

// Every metric the benchmark reports, with its unit. The end-to-end
// set is printed by an untraced run and judged against the bounds in
// BENCHMARK.json; the per-layer set is printed by a traced run. Both
// sets are printed in full on every workload: a layer the workload
// does not exercise reads 0 (see README.md for the per-workload
// meaning of each name).
//
// The end-to-end set holds only what repeats within its bounds on a
// shared virtual host: set-up and work in process CPU time, memory and
// correctness. Wall-clock times, the daemon's latencies among them,
// follow the neighbours' load there (see README.md "Steadiness") and
// are per-layer metrics.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"jobs_per_cpu_s", "1/s"},
}

var perLayerMetrics = []metricDef{
	// Per-job times: CPU time per configuration on the pipeline
	// workloads, latency from due time on serve-mixed.
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	// Workload headlines, also reported in every untraced run's report.
	{"table2.total_s", "s"},
	{"routable.total_s", "s"},
	{"serve.interactive_p50_ms", "ms"},
	{"serve.interactive_p99_ms", "ms"},
	{"serve.batch_p50_ms", "ms"},
	{"serve.batch_p90_ms", "ms"},
	{"serve.goodput_jobs_s", "1/s"},
	{"failed_ratio", "ratio"},
	// Solver.
	{"sat.solve_ms", "ms"},
	{"sat.props_per_s", "1/s"},
	{"sat.conflicts_per_s", "1/s"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.restarts", "count"},
	// Front end: netlist generation, global routing, conflict graph.
	{"fpga.generate_ms", "ms"},
	{"fpga.route_ms", "ms"},
	{"fpga.conflict_ms", "ms"},
	{"graph.vertices", "count"},
	{"graph.edges", "count"},
	// CSP construction, encoding, decoding, track assignment.
	{"symmetry.break_ms", "ms"},
	{"core.encode_ms", "ms"},
	{"core.vars", "count"},
	{"core.clauses", "count"},
	{"core.clauses_per_s", "1/s"},
	{"core.decode_ms", "ms"},
	{"fpga.assign_ms", "ms"},
	// DRAT replay behind verify.
	{"sat.drat_check_ms", "ms"},
	{"sat.proof_lemmas", "count"},
	// Daemon.
	{"serve.journal_fsync_mean_ms", "ms"},
	{"serve.journal_fsync_max_ms", "ms"},
	{"serve.journal_fsyncs_per_job", "count/job"},
	{"serve.overhead_p50_ms", "ms"},
	{"serve.pool_reuse_ratio", "ratio"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.solve_p50_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.rejected", "count"},
	{"portfolio.attempts", "count"},
	// The benchmark itself.
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.pass_cpu_s", "s"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.unattributed_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// measured is one metric of a run: the reported value plus the samples
// it summarizes (passes, set-up repetitions), for the min/median/max
// in the run metadata.
type measured struct {
	value   float64
	samples []float64
}

// metricSet collects a run's metrics by name.
type metricSet map[string]measured

// set records a single-valued metric.
func (m metricSet) set(name string, v float64) { m[name] = measured{value: v} }

// setMedian records the median of samples as the metric's value.
func (m metricSet) setMedian(name string, samples []float64) {
	m[name] = measured{value: median(samples), samples: samples}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of xs and the
// number of samples strictly beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	// The epsilon keeps float rounding (99.9/100 is not exact) from
	// pushing an exact rank up by one.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s) - rank
}

// tailLadder are the percentiles a tail is reported at, lowest first.
var tailLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// tail is a reported tail percentile with its sample counts.
type tail struct {
	P       float64 `json:"p"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// tailOf returns the highest ladder percentile of xs, at most maxP,
// that still has at least minBeyond samples beyond it. With too few
// samples for even the median, the median is returned with its
// (short) counts.
func tailOf(xs []float64, maxP float64) tail {
	best := tail{P: 50, Samples: len(xs)}
	best.Value, best.Beyond = percentile(xs, 50)
	for _, p := range tailLadder {
		if p > maxP {
			break
		}
		v, beyond := percentile(xs, p)
		if beyond < minBeyond {
			break
		}
		best = tail{P: p, Value: v, Samples: len(xs), Beyond: beyond}
	}
	return best
}

// tally counts attempted and failed operations; failures keep a few
// messages for the report.
type tally struct {
	attempted, failed int
	errors            []string
}

const keptErrors = 5

// record counts one attempt, failed when err is non-nil.
func (t *tally) record(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errors) < keptErrors {
		t.errors = append(t.errors, err.Error())
	}
}

func (t *tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
