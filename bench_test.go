// Benchmarks regenerating the measurements behind every table and
// figure of the paper. Table 2 and the portfolio study involve
// multi-second unsatisfiability proofs by design, so by default those
// benchmarks run on the faster half of the suite; set
// FPGASAT_BENCH_FULL=1 to measure all eight Table 2 instances exactly
// as cmd/experiments does (the recorded results live in
// EXPERIMENTS.md).
package fpgasat_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"fpgasat/internal/core"
	"fpgasat/internal/experiments"
	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
	"fpgasat/internal/search"
	"fpgasat/internal/share"
)

// benchInstances returns the Table 2 instances measured by default:
// the two smallest challenging ones, or all eight with
// FPGASAT_BENCH_FULL=1.
func benchInstances(b *testing.B) []mcnc.Instance {
	b.Helper()
	insts := mcnc.Table2Instances()
	if os.Getenv("FPGASAT_BENCH_FULL") == "" {
		return insts[:2]
	}
	return insts
}

func mustInstance(b *testing.B, name string) mcnc.Instance {
	b.Helper()
	in, err := mcnc.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func mustGraph(b *testing.B, in mcnc.Instance) *graph.Graph {
	b.Helper()
	_, g, err := in.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func mustStrategy(b *testing.B, spec string) core.Strategy {
	b.Helper()
	s, err := core.ParseStrategy(spec)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1Encodings measures the generation of the paper's
// Table 1 example (the three previously known encodings on two
// adjacent vertices with three colors).
func BenchmarkTable1Encodings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.RunTable1(); len(tbl.Rows) != 3 {
			b.Fatal("wrong table")
		}
	}
}

// BenchmarkFigure1Trees measures construction of the four ITE-tree
// encodings of Figure 1 for a 13-value domain.
func BenchmarkFigure1Trees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFigure1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2 measures the unroutability proof (translate + encode
// + solve at W-1) per instance and strategy column — the grid of the
// paper's Table 2.
func BenchmarkTable2(b *testing.B) {
	for _, in := range benchInstances(b) {
		g := mustGraph(b, in)
		w := in.UnroutableW()
		for _, col := range experiments.Table2Columns {
			s := mustStrategy(b, col)
			b.Run(fmt.Sprintf("%s/W=%d/%s", in.Name, w, col), func(b *testing.B) {
				b.ReportAllocs()
				var conflicts int64
				for i := 0; i < b.N; i++ {
					t := experiments.RunStrategy(g, w, s, 0, 0, nil)
					if t.Status != sat.Unsat {
						b.Fatalf("got %v, want Unsat", t.Status)
					}
					conflicts += t.Conflicts
				}
				b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
			})
		}
	}
}

// BenchmarkRoutable measures the satisfiable side (finding a detailed
// routing at W) for every paper encoding — the paper's observation
// that routable configurations are fast under all encodings.
func BenchmarkRoutable(b *testing.B) {
	in := mustInstance(b, "alu2")
	g := mustGraph(b, in)
	for _, encName := range core.PaperEncodingNames {
		s := mustStrategy(b, encName+"/s1")
		b.Run(fmt.Sprintf("%s/W=%d/%s", in.Name, in.RoutableW, encName), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t := experiments.RunStrategy(g, in.RoutableW, s, 0, 0, nil)
				if t.Status != sat.Sat {
					b.Fatalf("got %v, want Sat", t.Status)
				}
			}
		})
	}
}

// BenchmarkPortfolio measures the paper's 2- and 3-strategy portfolios
// against the best single strategy on an unroutability proof.
func BenchmarkPortfolio(b *testing.B) {
	in := mustInstance(b, "alu2")
	g := mustGraph(b, in)
	w := in.UnroutableW()
	single := mustStrategy(b, "ITE-linear-2+muldirect/s1")
	b.Run("single/"+single.Name(), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if t := experiments.RunStrategy(g, w, single, 0, 0, nil); t.Status != sat.Unsat {
				b.Fatal(t.Status)
			}
		}
	})
	for name, members := range map[string][]core.Strategy{
		"portfolio2": portfolio.Must(portfolio.PaperPortfolio2()),
		"portfolio3": portfolio.Must(portfolio.PaperPortfolio3()),
	} {
		b.Run(name, func(b *testing.B) {
			var pool sat.Pool
			for i := 0; i < b.N; i++ {
				winner, _, err := portfolio.Run(context.Background(), g, w, members, portfolio.Options{Pool: &pool})
				if err != nil || winner.Status != sat.Unsat {
					b.Fatalf("%v %v", winner.Status, err)
				}
			}
		})
	}
}

// BenchmarkPortfolioBlind and BenchmarkPortfolioShared contrast a
// seeded portfolio of replicated same-strategy lanes racing blind
// against the same lanes cooperating through the learnt-clause
// exchange — the saving measured in the clause-sharing study
// (EXPERIMENTS.md, BENCH_portfolio.json).
func BenchmarkPortfolioBlind(b *testing.B)  { benchSharedPortfolio(b, false) }
func BenchmarkPortfolioShared(b *testing.B) { benchSharedPortfolio(b, true) }

func benchSharedPortfolio(b *testing.B, shared bool) {
	in := mustInstance(b, "alu2")
	g := mustGraph(b, in)
	w := in.UnroutableW()
	lanes := portfolio.Replicate([]core.Strategy{mustStrategy(b, "ITE-linear-2+muldirect/s1")}, 2)
	b.ReportAllocs()
	var conflicts int64
	for i := 0; i < b.N; i++ {
		opts := portfolio.Options{Seed: 1}
		if shared {
			opts.Share = &share.Options{}
		}
		winner, all, err := portfolio.Run(context.Background(), g, w, lanes, opts)
		if err != nil || winner.Status != sat.Unsat {
			b.Fatalf("%v %v", winner.Status, err)
		}
		for _, r := range all {
			conflicts += r.Stats.Conflicts
		}
	}
	b.ReportMetric(float64(conflicts)/float64(b.N), "conflicts/op")
}

// BenchmarkEncodingSizes measures pure CNF generation (the
// "translation to CNF" column of the paper's time accounting) per
// encoding.
func BenchmarkEncodingSizes(b *testing.B) {
	in := mustInstance(b, "9symml")
	g := mustGraph(b, in)
	w := in.UnroutableW()
	for _, encName := range core.PaperEncodingNames {
		enc, err := core.ByName(encName)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(encName, func(b *testing.B) {
			var clauses int
			for i := 0; i < b.N; i++ {
				e := core.Encode(core.NewCSP(g, w), enc)
				clauses = e.CNF.NumClauses()
			}
			b.ReportMetric(float64(clauses), "clauses")
		})
	}
}

// countSink is a minimal ClauseSink: it absorbs clauses without
// retaining them, isolating pure emission cost from CNF storage.
type countSink struct{ clauses int }

func (s *countSink) AddClause(lits ...int) { s.clauses++ }

// BenchmarkEncodeMaterialized measures the classic pipeline step:
// build the full CNF clause list in memory (the input to DIMACS export
// or a fresh solver).
func BenchmarkEncodeMaterialized(b *testing.B) {
	in := mustInstance(b, "9symml")
	g := mustGraph(b, in)
	csp := core.NewCSP(g, in.UnroutableW())
	enc, err := core.ByName("ITE-linear-2+muldirect")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if e := core.Encode(csp, enc); e.CNF.NumClauses() == 0 {
			b.Fatal("empty CNF")
		}
	}
}

// BenchmarkEncodeInto measures the same encoding streamed through the
// ClauseSink interface with no CNF buffer — the path the incremental
// search uses to feed a solver directly.
func BenchmarkEncodeInto(b *testing.B) {
	in := mustInstance(b, "9symml")
	g := mustGraph(b, in)
	csp := core.NewCSP(g, in.UnroutableW())
	enc, err := core.ByName("ITE-linear-2+muldirect")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink := &countSink{}
		if st := core.EncodeInto(csp, enc, sink); sink.clauses == 0 || st.NumVars == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkMinWidthSingleShot measures the pre-incremental width
// search: one fresh encode + solve per width, descending from the
// DSATUR bound until the Unsat proof.
func BenchmarkMinWidthSingleShot(b *testing.B) {
	in := mustInstance(b, "9symml")
	g := mustGraph(b, in)
	s := mustStrategy(b, "ITE-linear-2+muldirect/s1")
	hi := in.RoutableW + 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		found := 0
		for w := hi; w >= 1; w-- {
			e := core.Encode(core.BuildCSP(g, w, s.Symmetry), s.Encoding)
			res := sat.SolveCNFContext(context.Background(), e.CNF, sat.Options{})
			if res.Status != sat.Sat {
				break
			}
			found = w
		}
		if found != in.RoutableW {
			b.Fatalf("found W=%d, want %d", found, in.RoutableW)
		}
	}
}

// BenchmarkMinWidthIncremental measures the same search on one
// incremental solver: a single encode at the upper bound, then one
// assumption probe per width with learnt clauses carried across
// probes. Compare against BenchmarkMinWidthSingleShot.
func BenchmarkMinWidthIncremental(b *testing.B) {
	in := mustInstance(b, "9symml")
	g := mustGraph(b, in)
	s := mustStrategy(b, "ITE-linear-2+muldirect/s1")
	hi := in.RoutableW + 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := search.MinWidth(context.Background(), g, search.Options{
			Strategy: s,
			Lo:       1,
			Hi:       hi,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.MinWidth != in.RoutableW || !res.ProvedOptimal {
			b.Fatalf("MinWidth=%d ProvedOptimal=%v, want %d/true",
				res.MinWidth, res.ProvedOptimal, in.RoutableW)
		}
	}
}

// scaleFactors returns the scale multipliers the scaling benchmarks
// cover: the full 1×/10×/100× ladder (the 100× fabric exceeds 10⁵
// nets and is cheap for generation and encode).
var scaleFactors = []int{1, 10, 100}

// BenchmarkScaleConflictGraph measures tile-templated conflict-graph
// generation straight into CSR storage at each scale point.
func BenchmarkScaleConflictGraph(b *testing.B) {
	for _, factor := range scaleFactors {
		p := fpga.ScaledFabric(factor)
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			b.ReportAllocs()
			var stats fpga.ScaleStats
			for i := 0; i < b.N; i++ {
				g, s, err := fpga.GenerateScaled(p)
				if err != nil {
					b.Fatal(err)
				}
				if g.N() == 0 {
					b.Fatal("empty graph")
				}
				stats = s
			}
			b.ReportMetric(float64(stats.Nets), "nets")
			b.ReportMetric(float64(stats.GraphBytes), "graph_bytes")
		})
	}
}

// BenchmarkScaleEncode measures the streaming encode of each scale
// point's conflict graph at its channel width — the clauses/sec the
// scaling study records in BENCH_scale.json.
func BenchmarkScaleEncode(b *testing.B) {
	enc, err := core.ByName("ITE-linear-2+muldirect")
	if err != nil {
		b.Fatal(err)
	}
	for _, factor := range scaleFactors {
		p := fpga.ScaledFabric(factor)
		g, _, err := fpga.GenerateScaled(p)
		if err != nil {
			b.Fatal(err)
		}
		csp := core.NewCSP(g, p.ChannelWidth)
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			b.ReportAllocs()
			var clauses int
			for i := 0; i < b.N; i++ {
				sink := &countSink{}
				if st := core.EncodeInto(csp, enc, sink); st.NumVars == 0 {
					b.Fatal("empty encoding")
				}
				clauses = sink.clauses
			}
			b.ReportMetric(float64(clauses), "clauses")
		})
	}
}

// BenchmarkScaleMinWidth measures the incremental width search on the
// scaled instances, converging to the first routable width with one
// track of slack (W+1). The instances are tight by construction
// (χ = clique = W), and the zero-slack point is a CDCL hardness wall at
// every fabric size — even the direct encoding needs minutes beyond the
// 1× fabric, and the W-1 refutation means a from-scratch pigeonhole
// proof inside a fabric-sized formula (see the scaling notes in
// EXPERIMENTS.md). So the benchmark brackets the search at
// [CliqueLB+1, CliqueLB+2]: two full encode+solve probes over the
// scaled formula, with optimality from the trusted clique bound. The
// strategy is direct/s1, the fastest on these fabrics. The 100× point
// solves a 10⁵-net instance in ~10s; it runs only with
// FPGASAT_BENCH_FULL=1.
func BenchmarkScaleMinWidth(b *testing.B) {
	s := mustStrategy(b, "direct/s1")
	for _, factor := range scaleFactors {
		if factor >= 100 && os.Getenv("FPGASAT_BENCH_FULL") == "" {
			continue
		}
		p := fpga.ScaledFabric(factor)
		g, stats, err := fpga.GenerateScaled(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%dx", factor), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := search.MinWidth(context.Background(), g, search.Options{
					Strategy: s,
					Lo:       stats.CliqueLB + 1,
					Hi:       stats.CliqueLB + 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.MinWidth != p.ChannelWidth+1 || !res.ProvedOptimal {
					b.Fatalf("MinWidth=%d ProvedOptimal=%v, want %d/true",
						res.MinWidth, res.ProvedOptimal, p.ChannelWidth+1)
				}
			}
		})
	}
}

// BenchmarkGlobalRouter measures the PathFinder-style global router
// (the "translation to graph coloring" cost).
func BenchmarkGlobalRouter(b *testing.B) {
	in := mustInstance(b, "alu2")
	nl, err := fpga.Generate(in.Name, in.Gen)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		gr, _, err := fpga.RouteGlobal(nl, in.Route)
		if err != nil {
			b.Fatal(err)
		}
		if gr.ConflictGraph().N() == 0 {
			b.Fatal("empty conflict graph")
		}
	}
}

// BenchmarkSolverPigeonhole measures the raw CDCL solver on a classic
// unsatisfiable family.
func BenchmarkSolverPigeonhole(b *testing.B) {
	for _, holes := range []int{6, 7, 8} {
		b.Run(fmt.Sprintf("PHP%d", holes), func(b *testing.B) {
			cnf := &sat.CNF{}
			v := func(p, h int) int { return p*holes + h + 1 }
			for p := 0; p <= holes; p++ {
				cl := make([]int, holes)
				for h := 0; h < holes; h++ {
					cl[h] = v(p, h)
				}
				cnf.AddClause(cl...)
			}
			for h := 0; h < holes; h++ {
				for p1 := 0; p1 <= holes; p1++ {
					for p2 := p1 + 1; p2 <= holes; p2++ {
						cnf.AddClause(-v(p1, h), -v(p2, h))
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := sat.SolveCNFContext(context.Background(), cnf, sat.Options{}); res.Status != sat.Unsat {
					b.Fatal(res.Status)
				}
			}
		})
	}
}

// BenchmarkSolverRandom3SAT measures the solver on satisfiable random
// instances near ratio 3.
func BenchmarkSolverRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cnf := &sat.CNF{NumVars: 300}
	for i := 0; i < 900; i++ {
		var cl []int
		for len(cl) < 3 {
			v := rng.Intn(300) + 1
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl = append(cl, v)
		}
		cnf.AddClause(cl...)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := sat.SolveCNFContext(context.Background(), cnf, sat.Options{}); res.Status != sat.Sat {
			b.Fatal(res.Status)
		}
	}
}

// BenchmarkSolverReuse contrasts a fresh solver per solve against one
// solver Reset() between solves of the same problem — the saving the
// session pool captures: the arena, watch lists and trail keep their
// capacity, so a warm solve allocates almost nothing.
func BenchmarkSolverReuse(b *testing.B) {
	in := mustInstance(b, "9symml")
	g := mustGraph(b, in)
	s := mustStrategy(b, "ITE-linear-2+muldirect/s1")
	w := in.RoutableW
	solveOn := func(b *testing.B, solver *sat.Solver) {
		csp := core.BuildCSP(g, w, s.Symmetry)
		enc := core.EncodeInto(csp, s.Encoding, sat.SolverSink{S: solver})
		if st := solver.SolveAssumingContext(context.Background()); st != sat.Sat {
			b.Fatal(st)
		}
		if _, err := enc.DecodeVerify(solver.Model()); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			solveOn(b, sat.New(sat.Options{}))
		}
	})
	b.Run("reset", func(b *testing.B) {
		b.ReportAllocs()
		solver := sat.New(sat.Options{})
		for i := 0; i < b.N; i++ {
			solver.Reset(sat.Options{})
			solveOn(b, solver)
		}
	})
}
