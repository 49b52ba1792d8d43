// Command fpgasat is the end-to-end SAT-based FPGA detailed router:
// it generates (or looks up) a benchmark netlist, computes a global
// routing, translates the detailed-routing problem to graph coloring
// and then to CNF under a chosen encoding/symmetry strategy, runs the
// CDCL solver, and either prints the detailed routing (track
// assignment) or reports a proof of unroutability.
//
// Usage:
//
//	fpgasat -instance vda -w 7 -strategy ITE-linear-2+muldirect/s1
//	fpgasat -instance alu2 -findmin             # minimum channel width
//	fpgasat -instance k2 -w 8 -col out.col      # emit DIMACS graph
//	fpgasat -instance k2 -w 8 -cnf out.cnf      # emit DIMACS CNF
//	fpgasat -instance apex7 -w 8 -tracks        # print track assignment
//	fpgasat -instance alu2 -portfolio           # paper's 3-strategy portfolio
//	fpgasat -instance alu2 -trace               # per-stage timing report
//	fpgasat -instance alu2 -metrics-out m.json  # dump metrics as JSON
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"fpgasat"
	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/fpga"
	"fpgasat/internal/graph"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/obs"
	"fpgasat/internal/sat"
)

// reg collects per-stage spans (pipeline.translate / encode / solve /
// decode), solver progress gauges and, in -portfolio mode, the
// per-strategy portfolio telemetry. It is dumped by -trace and
// -metrics-out.
var reg = obs.NewRegistry()

// session owns the process-wide solver pool: plain solves, the width
// search and portfolio lanes all draw arena-backed solvers from it,
// and its sat.reset.* / sat.arena.* gauges land in reg.
var session = fpgasat.NewSession(reg)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpgasat: ")
	var (
		instName     = flag.String("instance", "alu2", "benchmark instance name (see -list)")
		netFile      = flag.String("netlist", "", "route an external netlist file instead of a benchmark instance")
		rtFile       = flag.String("routing", "", "use an external global-routing file (requires -netlist)")
		list         = flag.Bool("list", false, "list available instances and exit")
		w            = flag.Int("w", 0, "channel width W (default: the instance's routable width)")
		strategy     = flag.String("strategy", "ITE-linear-2+muldirect/s1", "encoding[/heuristic]")
		usePortfolio = flag.Bool("portfolio", false, "solve with the paper's 3-strategy portfolio instead of -strategy")
		findMin      = flag.Bool("findmin", false, "find the minimum routable channel width")
		colOut       = flag.String("col", "", "write the conflict graph in DIMACS edge format to this file")
		cnfOut       = flag.String("cnf", "", "write the CNF in DIMACS format to this file")
		tracks       = flag.Bool("tracks", false, "print the full track assignment when routable")
		proof        = flag.String("proof", "", "on UNROUTABLE, write a DRAT unroutability certificate here and verify it")
		timeout      = flag.Duration("timeout", 5*time.Minute, "solve timeout (0 = none)")
		trace        = flag.Bool("trace", false, "print the per-stage (and per-strategy) timing report")
		metricsOut   = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file")
		verify       = flag.Bool("verify", false, "paranoid mode: re-verify Sat answers against the conflict graph and replay Unsat answers through the DRAT checker (with -portfolio)")
		laneTimeout  = flag.Duration("lane-timeout", 0, "per-lane attempt timeout and watchdog grace period for -portfolio (0 = none)")
		maxRetries   = flag.Int("max-retries", 0, "re-run a budget-exhausted portfolio lane up to this many times with escalated budgets")
		shareOn      = flag.Bool("share", false, "with -portfolio: replicate each strategy into -share-lanes seeded lanes exchanging learnt clauses")
		shareLBD     = flag.Int("share-lbd", 4, "with -share: export only learnt clauses with LBD at most this")
		shareMax     = flag.Int("share-max", 8, "with -share: export only learnt clauses with at most this many literals")
		shareLanes   = flag.Int("share-lanes", 2, "with -share: same-strategy lanes per portfolio member")
		seed         = flag.Int64("seed", 0, "diversification seed for -portfolio lanes (0 = unseeded; -share defaults it to 1)")
	)
	flag.Parse()

	if *list {
		for _, name := range mcnc.Names() {
			in, _ := mcnc.ByName(name)
			fmt.Printf("%-10s %2dx%-2d %4d nets  routable W=%d\n",
				in.Name, in.Gen.Cols, in.Gen.Rows, in.Gen.NumNets, in.RoutableW)
		}
		return
	}

	s, err := core.ParseStrategy(*strategy)
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	span := reg.StartSpan("pipeline.translate")
	var gr *fpga.GlobalRouting
	var g *graph.Graph
	name := *instName
	if *netFile != "" {
		gr = loadExternal(*netFile, *rtFile)
		name = gr.Netlist.Name
		if *w == 0 {
			log.Fatal("-w is required with -netlist")
		}
		g = gr.ConflictGraph()
	} else {
		in, err := mcnc.ByName(*instName)
		if err != nil {
			log.Fatal(err)
		}
		if *w == 0 {
			*w = in.RoutableW
		}
		// Build returns the instance's conflict graph with crosstalk
		// distances applied; recomputing it via ConflictGraph() would
		// silently drop them.
		gr, g, err = in.Build()
		if err != nil {
			log.Fatal(err)
		}
	}
	span.End()
	fmt.Printf("instance %s: %dx%d array, %d nets, %d 2-pin nets\n",
		name, gr.Netlist.Arch.Cols, gr.Netlist.Arch.Rows, len(gr.Netlist.Nets), len(gr.Routes))
	fmt.Printf("conflict graph: %d vertices, %d edges, max congestion %d (translate %v)\n",
		g.N(), g.M(), gr.MaxCongestion(), time.Since(start).Round(time.Millisecond))

	if *colOut != "" {
		if err := writeCol(*colOut, g, name); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote conflict graph to %s\n", *colOut)
	}

	defer dumpMetrics(*trace, *metricsOut)

	if *findMin {
		findMinimum(gr, g, s, *timeout)
		return
	}

	if *usePortfolio {
		opts := fpgasat.PortfolioOptions{
			Verify:      *verify,
			VerifyUnsat: *verify,
			LaneTimeout: *laneTimeout,
			MaxRetries:  *maxRetries,
			Seed:        *seed,
		}
		if *shareOn {
			opts.Share = &fpgasat.ShareOptions{MaxLBD: int32(*shareLBD), MaxSize: *shareMax}
		}
		runPortfolio(gr, g, *w, *timeout, *tracks, *shareLanes, opts)
		return
	}

	var enc *core.Encoded
	if *cnfOut != "" || *proof != "" {
		// -cnf and -proof need the materialized formula (to write it
		// out, and to check the DRAT certificate against it). The solve
		// below streams the same clauses in the same order, so its
		// proof checks against this formula.
		span = reg.StartSpan("pipeline.encode")
		enc = s.EncodeGraph(g, *w)
		span.End()
		reg.Gauge("pipeline.cnf_vars").Set(int64(enc.CNF.NumVars))
		reg.Gauge("pipeline.cnf_clauses").Set(int64(enc.CNF.NumClauses()))
	}
	if *cnfOut != "" {
		if err := writeCnf(*cnfOut, enc.CNF); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote CNF to %s (%d vars, %d clauses)\n",
			*cnfOut, enc.CNF.NumVars, enc.CNF.NumClauses())
	}

	opts := solverOptions()
	var proofFile *os.File
	if *proof != "" {
		proofFile, err = os.Create(*proof)
		if err != nil {
			log.Fatal(err)
		}
		opts.ProofWriter = proofFile
	}
	st, colors := solveStreamed(g, *w, s, opts, *timeout)
	if proofFile != nil {
		if err := proofFile.Close(); err != nil {
			log.Fatal(err)
		}
		if st == sat.Unsat {
			pf, err := os.Open(*proof)
			if err != nil {
				log.Fatal(err)
			}
			err = sat.CheckDRAT(enc.CNF, pf)
			pf.Close()
			if err != nil {
				log.Fatalf("unroutability certificate failed verification: %v", err)
			}
			fmt.Printf("unroutability certificate written to %s and verified (DRAT)\n", *proof)
		}
	}
	switch st {
	case sat.Sat:
		span = reg.StartSpan("pipeline.decode")
		dr, err := fpga.AssignTracks(gr, colors, *w)
		span.End()
		if err != nil {
			log.Fatalf("decoded routing invalid: %v", err)
		}
		fmt.Printf("ROUTABLE with W=%d tracks (strategy %s)\n", *w, s.Name())
		if *tracks {
			printTracks(dr)
		}
	case sat.Unsat:
		fmt.Printf("UNROUTABLE with W=%d tracks — proven by %s\n", *w, s.Name())
	default:
		dumpMetrics(*trace, *metricsOut)
		fmt.Printf("UNDECIDED within %v\n", *timeout)
		os.Exit(1)
	}
}

// solverOptions wires the solver's Progress hook into the metrics
// registry so the last restart snapshot is visible in the report.
func solverOptions() sat.Options {
	conflicts := reg.Gauge("solver.conflicts")
	propagations := reg.Gauge("solver.propagations")
	restarts := reg.Gauge("solver.restarts")
	learntDB := reg.Gauge("solver.learnt_db")
	trailDepth := reg.Gauge("solver.trail_depth")
	return sat.Options{
		Progress: func(st sat.Stats) {
			conflicts.Set(st.Conflicts)
			propagations.Set(st.Propagations)
			restarts.Set(st.Restarts)
			learntDB.Set(int64(st.LearntDB))
			trailDepth.Set(int64(st.TrailDepth))
		},
	}
}

// runPortfolio solves with the paper's 3-strategy portfolio, printing
// the per-strategy telemetry table. The run goes through the hardened
// supervision layer: lanes are panic-isolated, and opts enables
// paranoid answer checking, watchdog timeouts and budgeted retries.
func runPortfolio(gr *fpga.GlobalRouting, g *graph.Graph, w int, timeout time.Duration, tracks bool, shareLanes int, opts fpgasat.PortfolioOptions) {
	registerRobustnessMetrics()
	if opts.Share != nil {
		for _, name := range fpgasat.ShareMetricNames() {
			reg.Counter(name)
		}
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	members, err := fpgasat.PaperPortfolio3()
	if err != nil {
		log.Fatal(err)
	}
	if opts.Share != nil {
		// Clauses only flow between lanes of one strategy, so give every
		// member enough same-strategy peers to make sharing worthwhile.
		members = fpgasat.ReplicateStrategies(members, shareLanes)
	}
	span := reg.StartSpan("pipeline.solve")
	winner, all, err := session.Portfolio(ctx, g, w, members, opts)
	span.End()
	fmt.Println("portfolio strategies:")
	for _, r := range all {
		mark := " "
		if r.Winner {
			mark = "*"
		}
		note := ""
		if r.Attempts > 1 {
			note = fmt.Sprintf(" (%d attempts)", r.Attempts)
		}
		if r.Err != nil {
			note += " err: " + r.Err.Error()
		}
		fmt.Printf("  %s %-28s %-8v encode %-10v solve %-10v %8d vars %8d clauses %8d conflicts%s\n",
			mark, r.Strategy.Name(), r.Status,
			r.EncodeTime.Round(time.Microsecond), r.SolveTime.Round(time.Millisecond),
			r.Vars, r.Clauses, r.Stats.Conflicts, note)
	}
	if err != nil {
		log.Fatal(err)
	}
	switch winner.Status {
	case sat.Sat:
		dspan := reg.StartSpan("pipeline.decode")
		dr, derr := fpga.AssignTracks(gr, winner.Colors, w)
		dspan.End()
		if derr != nil {
			log.Fatalf("decoded routing invalid: %v", derr)
		}
		fmt.Printf("ROUTABLE with W=%d tracks (portfolio winner %s)\n", w, winner.Strategy.Name())
		if tracks {
			printTracks(dr)
		}
	case sat.Unsat:
		fmt.Printf("UNROUTABLE with W=%d tracks — proven by portfolio winner %s\n", w, winner.Strategy.Name())
	}
}

// registerRobustnessMetrics touches the robustness counters
// (portfolio.panics, robust.retries, robust.verify.*) so they appear
// in -trace / -metrics-out output even when they stay zero.
func registerRobustnessMetrics() {
	for _, name := range fpgasat.RobustnessMetricNames() {
		reg.Counter(name)
	}
}

// dumpMetrics prints the text report (-trace) and/or writes the JSON
// snapshot (-metrics-out). It is idempotent enough to call twice only
// on the error path before os.Exit skips the deferred call.
func dumpMetrics(trace bool, metricsOut string) {
	if !trace && metricsOut == "" {
		return
	}
	snap := reg.Snapshot()
	if trace {
		fmt.Println("\n── timing report ──")
		if err := snap.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote metrics to %s\n", metricsOut)
	}
}

// solveStreamed solves the width-w coloring through the session: the
// encoding streams into a pooled solver's clause arena and the solver
// returns to the pool afterwards, carrying its capacity to the next
// solve in this process.
func solveStreamed(g *graph.Graph, w int, s core.Strategy, opts sat.Options, timeout time.Duration) (sat.Status, []int) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	span := reg.StartSpan("pipeline.solve")
	st, colors, err := session.SolveGraph(ctx, g, w, s, opts)
	span.End()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SAT solve: %v (streamed into pooled solver) -> %v\n",
		time.Since(start).Round(time.Millisecond), st)
	return st, colors
}

// findMinimum performs the paper's optimality flow: descend from the
// DSATUR upper bound until the first unroutable width. It runs the
// incremental search on one pooled session solver — the graph is
// encoded once at the upper bound and each width is a single
// assumption probe, so learnt clauses carry over between widths.
func findMinimum(gr *fpga.GlobalRouting, g *graph.Graph, s core.Strategy, timeout time.Duration) {
	_, ub := coloring.DSATUR(g)
	fmt.Printf("DSATUR upper bound: %d; clique lower bound: %d\n",
		ub, len(coloring.GreedyClique(g)))
	res, err := session.MinWidth(context.Background(), g, fpgasat.SearchOptions{
		Strategy:     s,
		Hi:           ub,
		Solver:       solverOptions(),
		ProbeTimeout: timeout,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Probes {
		fmt.Printf("  probe W=%-3d %-7v %10v %8d conflicts, %d learnt clauses carried in\n",
			p.Width, p.Status, p.Duration.Round(time.Millisecond), p.Conflicts, p.Learnts)
	}
	switch {
	case res.ProvedOptimal && res.MinWidth > 1:
		fmt.Printf("minimum channel width: W=%d (W=%d proven unroutable)\n",
			res.MinWidth, res.MinWidth-1)
	case res.ProvedOptimal && res.MinWidth == 1:
		fmt.Printf("minimum channel width: W=%d\n", res.MinWidth)
	case res.MinWidth > 0:
		fmt.Printf("undecided at W=%d; best known routable width: %d\n",
			res.MinWidth-1, res.MinWidth)
		os.Exit(1)
	default:
		fmt.Printf("undecided at W=%d; no routable width proven\n", ub)
		os.Exit(1)
	}
}

func printTracks(dr *fpga.DetailedRouting) {
	for i, r := range dr.Global.Routes {
		fmt.Printf("  %-12s track %d  (%d connection blocks)\n",
			r.Label(dr.Global.Netlist), dr.Tracks[i], len(r.Segs))
	}
}

// loadExternal reads a netlist file and either a companion global-
// routing file or computes a fresh global routing.
func loadExternal(netPath, rtPath string) *fpga.GlobalRouting {
	nf, err := os.Open(netPath)
	if err != nil {
		log.Fatal(err)
	}
	defer nf.Close()
	nl, err := fpga.ParseNetlist(nf)
	if err != nil {
		log.Fatal(err)
	}
	if rtPath == "" {
		gr, converged, err := fpga.RouteGlobal(nl, fpga.RouteOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if !converged {
			fmt.Println("note: global router did not meet its occupancy target; routing is valid but congested")
		}
		return gr
	}
	rf, err := os.Open(rtPath)
	if err != nil {
		log.Fatal(err)
	}
	defer rf.Close()
	gr, err := fpga.ParseRouting(rf, nl)
	if err != nil {
		log.Fatal(err)
	}
	return gr
}

func writeCol(path string, g *graph.Graph, name string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return graph.WriteDIMACS(f, g, "conflict graph of instance "+name)
}

func writeCnf(path string, cnf *sat.CNF) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sat.WriteDIMACS(f, cnf)
}
