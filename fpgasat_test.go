package fpgasat_test

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	fpgasat "fpgasat"
)

// TestPublicAPIEndToEnd drives the complete flow through the public
// facade only: generate, route, encode, solve, decode, verify, prove
// unroutability, and round-trip the DIMACS formats.
func TestPublicAPIEndToEnd(t *testing.T) {
	netlist, err := fpgasat.Generate("api", fpgasat.GenParams{
		Rows: 5, Cols: 5, NumNets: 20, MinPins: 2, MaxPins: 3, Locality: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	global, _, err := fpgasat.RouteGlobal(netlist, fpgasat.RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conflict := global.ConflictGraph()

	// Heuristic upper bound, then SAT at that width.
	_, ub := fpgasat.DSATUR(conflict)
	strategy, err := fpgasat.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}
	enc := strategy.EncodeGraph(conflict, ub)
	res := fpgasat.SolveCNFContext(context.Background(), enc.CNF, fpgasat.SolverOptions{})
	if res.Status != fpgasat.Sat {
		t.Fatalf("status %v at DSATUR bound", res.Status)
	}
	colors, err := enc.Decode(res.Model)
	if err != nil {
		t.Fatal(err)
	}
	if err := fpgasat.VerifyColoring(conflict, colors, ub); err != nil {
		t.Fatal(err)
	}
	if _, err := fpgasat.AssignTracks(global, colors, ub); err != nil {
		t.Fatal(err)
	}

	// DIMACS round trips.
	var buf bytes.Buffer
	if err := fpgasat.WriteGraphDIMACS(&buf, conflict, "api test"); err != nil {
		t.Fatal(err)
	}
	g2, err := fpgasat.ParseGraphDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != conflict.N() || g2.M() != conflict.M() {
		t.Fatal("graph DIMACS roundtrip mismatch")
	}
	buf.Reset()
	if err := fpgasat.WriteCNFDIMACS(&buf, enc.CNF); err != nil {
		t.Fatal(err)
	}
	if _, err := fpgasat.ParseCNFDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIEncodings(t *testing.T) {
	if len(fpgasat.PaperEncodingNames) != 15 {
		t.Fatalf("%d paper encodings", len(fpgasat.PaperEncodingNames))
	}
	for _, name := range fpgasat.PaperEncodingNames {
		if _, err := fpgasat.EncodingByName(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fpgasat.NewHierarchical([]fpgasat.Level{{Kind: fpgasat.KindITELog, Vars: 2}},
		fpgasat.KindMuldirect); err != nil {
		t.Fatal(err)
	}
	tree := fpgasat.NewITETree("bal", fpgasat.BalancedShape)
	if !strings.Contains(tree.Name(), "bal") {
		t.Fatal("tree name lost")
	}
	if fpgasat.NewSimple(fpgasat.KindLog).Name() != "log" {
		t.Fatal("simple name wrong")
	}
}

func TestPublicAPIBenchmarks(t *testing.T) {
	if len(fpgasat.Benchmarks()) < 10 {
		t.Fatal("too few benchmarks")
	}
	in, err := fpgasat.BenchmarkByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	winner, _, err := fpgasat.RunPortfolio(ctx, g, in.RoutableW, fpgasat.MustStrategies(fpgasat.PaperPortfolio3()), fpgasat.PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if winner.Status != fpgasat.Sat {
		t.Fatalf("portfolio status %v", winner.Status)
	}
}

func TestPublicAPICSP(t *testing.T) {
	g, err := fpgasat.ParseGraphDIMACS(strings.NewReader(
		"p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	csp := fpgasat.NewCSP(g, 2)
	enc := fpgasat.EncodeCSP(csp, fpgasat.NewSimple(fpgasat.KindMuldirect))
	res := fpgasat.SolveCNFContext(context.Background(), enc.CNF, fpgasat.SolverOptions{})
	if res.Status != fpgasat.Unsat {
		t.Fatalf("triangle with 2 colors: %v", res.Status)
	}
}

// TestPublicAPIObservability drives the context-based API variants and
// the metrics registry through the facade: a portfolio run with
// telemetry, a context solve with a Progress hook, and snapshot
// serialization.
func TestPublicAPIObservability(t *testing.T) {
	netlist, err := fpgasat.Generate("obs", fpgasat.GenParams{
		Rows: 5, Cols: 5, NumNets: 20, MinPins: 2, MaxPins: 3, Locality: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	global, _, err := fpgasat.RouteGlobal(netlist, fpgasat.RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	conflict := global.ConflictGraph()
	_, ub := fpgasat.DSATUR(conflict)

	metrics := fpgasat.NewMetrics()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	winner, all, err := fpgasat.RunPortfolio(ctx, conflict, ub, fpgasat.MustStrategies(fpgasat.PaperPortfolio3()),
		fpgasat.PortfolioOptions{Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if winner.Status != fpgasat.Sat {
		t.Fatalf("status %v at DSATUR bound", winner.Status)
	}
	if err := fpgasat.VerifyColoring(conflict, winner.Colors, ub); err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("expected 3 per-strategy results, got %d", len(all))
	}
	snap := metrics.Snapshot()
	if len(snap.Timers) == 0 {
		t.Fatal("portfolio run recorded no timers")
	}
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "portfolio.solve.") {
		t.Fatalf("metrics JSON missing per-strategy solve timer:\n%s", buf.String())
	}

	// Context solve with a Progress snapshot hook.
	strategy, err := fpgasat.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}
	enc := strategy.EncodeGraph(conflict, ub)
	var progressCalls int
	res := fpgasat.SolveCNFContext(ctx, enc.CNF, fpgasat.SolverOptions{
		Progress: func(st fpgasat.SolverStats) { progressCalls++ },
	})
	if res.Status != fpgasat.Sat {
		t.Fatalf("context solve status %v", res.Status)
	}
	_ = progressCalls // tiny instances may finish before the first poll interval
}

// TestPublicAPIBandwidth drives the bandwidth-coloring flow through
// the facade: a weighted graph built from a distance edge stream,
// solved by the bandwidth portfolio through a Session (zero options:
// lanes draw from the session pool and record into its registry),
// minimized with the incremental width search under the order
// encoding, and round-tripped through weighted DIMACS.
func TestPublicAPIBandwidth(t *testing.T) {
	// A distance-2 5-cycle: chromatic number 3, bandwidth minimum 5
	// (e.g. colors 0 2 0 2 4).
	g := fpgasat.GraphFromWeightedEdgeStream(5, func(emit func(u, v, d int)) {
		for i := 0; i < 5; i++ {
			emit(i, (i+1)%5, 2)
		}
	})
	if !g.Weighted() || g.MaxEdgeWeight() != 2 {
		t.Fatalf("weighted stream produced Weighted()=%v max=%d", g.Weighted(), g.MaxEdgeWeight())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	metrics := fpgasat.NewMetrics()
	session := fpgasat.NewSession(metrics)
	lanes := fpgasat.MustStrategies(fpgasat.BandwidthPortfolio())
	gets := session.PoolStats().Gets
	winner, all, err := session.Portfolio(ctx, g, 5, lanes, fpgasat.PortfolioOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A lane cancelled before it encoded never takes a solver; every
	// lane that ran must have drawn its solver from the session pool.
	ran := 0
	for _, r := range all {
		if r.Vars > 0 {
			ran++
		}
	}
	if got := session.PoolStats().Gets - gets; ran == 0 || got != int64(ran) {
		t.Fatalf("session pool handed out %d solvers to %d running lanes (of %d)", got, ran, len(lanes))
	}
	snap := metrics.Snapshot()
	if snap.Timers["portfolio.solve."+winner.Strategy.Name()].Count == 0 {
		t.Fatalf("session registry missing the winner's solve timer: %+v", snap.Timers)
	}
	if snap.Gauges[fpgasat.MetricPoolSolvers] != int64(ran) {
		t.Fatalf("%s = %d, want %d", fpgasat.MetricPoolSolvers, snap.Gauges[fpgasat.MetricPoolSolvers], ran)
	}
	if winner.Status != fpgasat.Sat {
		t.Fatalf("bandwidth portfolio at width 5: %v", winner.Status)
	}
	if err := fpgasat.VerifyColoring(g, winner.Colors, 5); err != nil {
		t.Fatal(err)
	}

	order, err := fpgasat.ParseStrategy("ladder/-")
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.MinWidth(ctx, g, fpgasat.SearchOptions{Strategy: order, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.MinWidth != 5 || !res.ProvedOptimal {
		t.Fatalf("MinWidth=%d proved=%v, want 5/true", res.MinWidth, res.ProvedOptimal)
	}

	var buf bytes.Buffer
	if err := fpgasat.WriteGraphDIMACS(&buf, g, "bandwidth api test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "e 1 2 2") {
		t.Fatalf("weighted DIMACS lacks distances:\n%s", buf.String())
	}
	g2, err := fpgasat.ParseGraphDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Weighted() || g2.MaxEdgeWeight() != 2 || g2.M() != g.M() {
		t.Fatal("weighted DIMACS roundtrip mismatch")
	}
}
