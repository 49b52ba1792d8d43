// Command fpgabench is the repository's benchmark: one command that
// runs a named workload against the routing pipeline or the serving
// daemon, checks every answer against ground truth and prints every
// metric by name with its unit. The last line of standard output is
// the machine-readable result.
//
//	bash fpgabench/run.sh --workload table2-refute --seed 1 --seconds 30 --trace 0
//
// Workloads: table2-refute, routable, serve-mixed (see README.md).
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run that prints the per-layer metrics and writes its spans
// under the work directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, in process CPU time (see runPipeline on why CPU time).
const setupReps = 3

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	commit   string
}

// report is what a workload run produced.
type report struct {
	tally        tally
	metrics      metricSet
	tails        map[string]tail
	meta         map[string]any
	warnings     []string
	layerShares  map[string]float64
	spans        []span
	traceSummary any // per-configuration shares of a traced pipeline run
}

func newReport() *report {
	return &report{metrics: metricSet{}, tails: map[string]tail{}, meta: map[string]any{}}
}

// setTail records the tail of xs (see tailOf) as metric name.
func (r *report) setTail(name string, xs []float64, maxP float64) {
	t := tailOf(xs, maxP)
	r.metrics.set(name, t.Value)
	r.tails[name] = t
}

var workloads = map[string]func(runConfig) (*report, error){
	"table2-refute": func(cfg runConfig) (*report, error) {
		jobs, err := table2Jobs()
		if err != nil {
			return nil, err
		}
		return runPipeline("table2.total_s", jobs, cfg)
	},
	"routable": func(cfg runConfig) (*report, error) {
		jobs, err := routableJobs()
		if err != nil {
			return nil, err
		}
		return runPipeline("routable.total_s", jobs, cfg)
	},
	"serve-mixed": runServe,
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: table2-refute, routable or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: visiting order, serve schedule and request mix")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 makes a traced run that prints the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/fpgabench", "directory for journals and traces")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision recorded in the result")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fpgabench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, out io.Writer) error {
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	rep, err := w(cfg)
	if err != nil {
		return err
	}
	rep.metrics.set("peak_rss_mb", peakRSSMB())
	rep.metrics.set("failed_ratio", rep.tally.failedRatio())
	rep.metrics.set("ok_ratio", 1-rep.tally.failedRatio())

	meta := runMeta(cfg, rep)
	if cfg.trace {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		summary := map[string]any{"layer_shares": rep.layerShares, "instances": rep.traceSummary}
		if err := writeTrace(path, rep.spans, summary); err != nil {
			return err
		}
		meta["trace_file"] = path
	}
	printReport(out, cfg, rep)
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(metaLine))
	return printResult(out, cfg.trace, rep)
}

// printReport prints every metric of both sets by name with its unit,
// the tails with their sample counts, and a traced run's layer shares.
func printReport(out io.Writer, cfg runConfig, rep *report) {
	fmt.Fprintf(out, "fpgabench %s seed=%d seconds=%d trace=%v: %d attempted, %d failed\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, rep.tally.attempted, rep.tally.failed)
	for _, e := range rep.tally.errors {
		fmt.Fprintln(out, "  FAILED:", e)
	}
	for _, w := range rep.warnings {
		fmt.Fprintln(out, "  WARNING:", w)
	}
	for _, set := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range set {
			m, ok := rep.metrics[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-30s %14.4f %s", d.name, m.value, d.unit)
			if t, ok := rep.tails[d.name]; ok {
				line += fmt.Sprintf("  (p%g of %d samples, %d beyond)", t.P, t.Samples, t.Beyond)
			} else if len(m.samples) > 1 {
				line += fmt.Sprintf("  (min %.4f, max %.4f, n=%d)", minOf(m.samples), maxOf(m.samples), len(m.samples))
			}
			fmt.Fprintln(out, line)
		}
	}
	if len(rep.layerShares) > 0 {
		fmt.Fprintln(out, "  layer self time as a share of a traced pass:")
		names := make([]string, 0, len(rep.layerShares))
		for l := range rep.layerShares {
			names = append(names, l)
		}
		sort.Slice(names, func(i, j int) bool { return rep.layerShares[names[i]] > rep.layerShares[names[j]] })
		for _, l := range names {
			fmt.Fprintf(out, "    %-16s %6.2f%%\n", l, 100*rep.layerShares[l])
		}
	}
}

// printResult prints the final line: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one, each metric
// of the set present (0 for a layer the workload does not run).
func printResult(out io.Writer, traced bool, rep *report) error {
	set := endToEndMetrics
	if traced {
		set = perLayerMetrics
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range set {
		metrics[d.name] = value{rep.metrics[d.name].value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.tally.failed == 0 && rep.tally.attempted > 0, rep.tally.attempted, rep.tally.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// runMeta is the run metadata recorded with every result: the machine,
// the toolchain, the source, the workload settings and each metric's
// min/median/max over the run's samples.
func runMeta(cfg runConfig, rep *report) map[string]any {
	meta := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     cfg.commit,
		"source":     sourceDigest(),
		"tails":      rep.tails,
		"errors":     rep.tally.errors,
	}
	for k, v := range rep.meta {
		meta[k] = v
	}
	spread := map[string]map[string]float64{}
	for name, m := range rep.metrics {
		if len(m.samples) > 0 {
			spread[name] = map[string]float64{"min": minOf(m.samples), "median": median(m.samples),
				"max": maxOf(m.samples), "n": float64(len(m.samples))}
		}
	}
	meta["samples"] = spread
	return meta
}

func minOf(xs []float64) float64 { return sortedCopy(xs)[0] }

func maxOf(xs []float64) float64 { s := sortedCopy(xs); return s[len(s)-1] }

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// processCPU is the CPU time the process has used, user and system,
// on all of its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the
// working directory, identifying the code measured even where no
// revision is known. Hidden directories (the build directory among
// them) are skipped.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}
