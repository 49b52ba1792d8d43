package experiments

import (
	"context"
	"strings"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/mcnc"
	"fpgasat/internal/sat"
	"fpgasat/internal/symmetry"
)

func TestTable1MatchesPaper(t *testing.T) {
	tbl := RunTable1()
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	log, direct, muldirect := tbl.Rows[0], tbl.Rows[1], tbl.Rows[2]

	// Log: 2 bits per vertex, 3 conflict clauses, 2 excluded-illegal-
	// values clauses, nothing else (Table 1, first row).
	if log.Encoding != "log" || log.Vars != 4 {
		t.Fatalf("log row: %+v", log)
	}
	if len(log.AtLeastOne) != 0 || len(log.AtMostOne) != 0 ||
		len(log.Conflict) != 3 || len(log.Excluded) != 2 {
		t.Fatalf("log clause census: %+v", log)
	}
	wantLogConflicts := []string{
		"(l_v1 ∨ l_v2 ∨ l_w1 ∨ l_w2)",
		"(¬l_v1 ∨ l_v2 ∨ ¬l_w1 ∨ l_w2)",
		"(l_v1 ∨ ¬l_v2 ∨ l_w1 ∨ ¬l_w2)",
	}
	for i, want := range wantLogConflicts {
		if log.Conflict[i] != want {
			t.Errorf("log conflict %d = %s, want %s", i, log.Conflict[i], want)
		}
	}
	wantLogExcluded := []string{"(¬l_v1 ∨ ¬l_v2)", "(¬l_w1 ∨ ¬l_w2)"}
	for i, want := range wantLogExcluded {
		if log.Excluded[i] != want {
			t.Errorf("log excluded %d = %s, want %s", i, log.Excluded[i], want)
		}
	}

	// Direct: 2 ALO, 6 AMO, 3 conflicts, no exclusions.
	if direct.Vars != 6 || len(direct.AtLeastOne) != 2 || len(direct.AtMostOne) != 6 ||
		len(direct.Conflict) != 3 || len(direct.Excluded) != 0 {
		t.Fatalf("direct clause census: %+v", direct)
	}
	if direct.AtLeastOne[0] != "(x_v0 ∨ x_v1 ∨ x_v2)" {
		t.Errorf("direct ALO = %s", direct.AtLeastOne[0])
	}
	if direct.Conflict[0] != "(¬x_v0 ∨ ¬x_w0)" {
		t.Errorf("direct conflict = %s", direct.Conflict[0])
	}

	// Muldirect: like direct minus the at-most-one clauses.
	if len(muldirect.AtLeastOne) != 2 || len(muldirect.AtMostOne) != 0 ||
		len(muldirect.Conflict) != 3 || len(muldirect.Excluded) != 0 {
		t.Fatalf("muldirect clause census: %+v", muldirect)
	}

	md := tbl.Markdown()
	for _, want := range []string{"Table 1", "| log |", "| direct |", "| muldirect |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
}

func TestFigure1MatchesPaper(t *testing.T) {
	fig, err := RunFigure1()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Encodings) != 4 {
		t.Fatalf("%d encodings", len(fig.Encodings))
	}
	linear, itelog, log1, log2 := fig.Encodings[0], fig.Encodings[1], fig.Encodings[2], fig.Encodings[3]
	if linear.NumVars != 12 || itelog.NumVars != 4 || log1.NumVars != 7 || log2.NumVars != 5 {
		t.Fatalf("var counts: %d %d %d %d", linear.NumVars, itelog.NumVars, log1.NumVars, log2.NumVars)
	}
	// Fig 1.a: v0 by i0, v1 by ¬i0∧i1, v12 by all-negations.
	if linear.Patterns[0] != "i0" || linear.Patterns[1] != "¬i0∧i1" {
		t.Fatalf("ITE-linear patterns: %v", linear.Patterns[:2])
	}
	// Sect. 4 worked example for ITE-log-2+ITE-linear: v4,v5,v6.
	if log2.Patterns[4] != "i0∧¬i1∧i2" ||
		log2.Patterns[5] != "i0∧¬i1∧¬i2∧i3" ||
		log2.Patterns[6] != "i0∧¬i1∧¬i2∧¬i3" {
		t.Fatalf("ITE-log-2+ITE-linear patterns v4..v6: %v", log2.Patterns[4:7])
	}
	if !strings.Contains(fig.Markdown(), "Figure 1") {
		t.Error("markdown missing header")
	}
}

func quickInstances(t *testing.T) []mcnc.Instance {
	t.Helper()
	var out []mcnc.Instance
	for _, name := range []string{"term1", "9symml"} {
		in, err := mcnc.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, in)
	}
	return out
}

func TestTable2Smoke(t *testing.T) {
	cols := []string{"muldirect/-", "muldirect/s1", "ITE-log/s1", "ITE-linear-2+muldirect/s1"}
	r, err := RunTable2(Table2Config{
		Instances: quickInstances(t),
		Columns:   cols,
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instances) != 2 || len(r.Cells[0]) != len(cols) {
		t.Fatalf("grid shape wrong: %dx%d", len(r.Instances), len(r.Cells[0]))
	}
	for ii := range r.Cells {
		for ci, c := range r.Cells[ii] {
			if c.Timing.Status != sat.Unsat {
				t.Errorf("%s %s: %v, want Unsat", r.Instances[ii], cols[ci], c.Timing.Status)
			}
			if c.Timing.Total() <= 0 {
				t.Errorf("nonpositive total time")
			}
		}
	}
	if r.Speedups[0] != 1.0 {
		t.Errorf("baseline speedup %v", r.Speedups[0])
	}
	md := r.Markdown()
	for _, want := range []string{"Table 2", "**Total**", "**Speedup vs muldirect/-**", "term1"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	wins := r.SymmetryWins()
	if wins[symmetry.None]+wins[symmetry.B1]+wins[symmetry.S1] == 0 {
		t.Error("symmetry win census empty")
	}
	if b := r.Best(); b < 0 || b >= len(cols) {
		t.Errorf("Best out of range: %d", b)
	}
}

func TestRoutableSmoke(t *testing.T) {
	r, err := RunRoutable(RoutableConfig{
		Instances: quickInstances(t),
		Encodings: []string{"muldirect", "ITE-log", "ITE-linear-2+muldirect"},
		Symmetry:  "s1",
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	for ii := range r.Times {
		for _, tm := range r.Times[ii] {
			if tm.Status != sat.Sat {
				t.Errorf("routable run returned %v", tm.Status)
			}
		}
	}
	if r.Spread() < 1 {
		t.Errorf("spread %v < 1", r.Spread())
	}
	if !strings.Contains(r.Markdown(), "Routable configurations") {
		t.Error("markdown missing header")
	}
}

func TestPortfolioSmoke(t *testing.T) {
	r, err := RunPortfolio(PortfolioConfig{
		Instances: quickInstances(t),
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Instances) != 2 || len(r.P3) != 2 || len(r.Winners3) != 2 {
		t.Fatalf("result shape: %+v", r)
	}
	if r.TotalSingle <= 0 || r.TotalP2 <= 0 || r.TotalP3 <= 0 {
		t.Fatal("nonpositive totals")
	}
	if r.SpeedupP2() <= 0 || r.SpeedupP3() <= 0 {
		t.Fatal("nonpositive speedups")
	}
	if !strings.Contains(r.Markdown(), "Portfolio study") {
		t.Error("markdown missing header")
	}
}

func TestSizesSmoke(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunSizes(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 15 {
		t.Fatalf("%d rows, want 15 encodings", len(r.Rows))
	}
	byName := map[string]SizeRow{}
	for _, row := range r.Rows {
		if row.Vars <= 0 || row.Clauses <= 0 {
			t.Errorf("%s: empty census", row.Encoding)
		}
		if row.Clauses != row.Structural+row.Conflict {
			t.Errorf("%s: clause split inconsistent", row.Encoding)
		}
		byName[row.Encoding] = row
	}
	// Structural expectations: ITE encodings need no structural
	// clauses; direct has more clauses than muldirect; log variables
	// are fewest.
	if byName["ITE-linear"].Structural != 0 || byName["ITE-log"].Structural != 0 {
		t.Error("ITE encodings should have no structural clauses")
	}
	if byName["direct"].Clauses <= byName["muldirect"].Clauses {
		t.Error("direct should have more clauses than muldirect")
	}
	if byName["log"].Vars >= byName["direct"].Vars {
		t.Error("log should use fewer variables than direct")
	}
	if !strings.Contains(r.Markdown(), "Encoding sizes") {
		t.Error("markdown missing header")
	}
}

func TestRunStrategyTimeout(t *testing.T) {
	in, err := mcnc.ByName("k2")
	if err != nil {
		t.Fatal(err)
	}
	g, translate, err := BuildInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	s := mustStrategy(t, "muldirect/-")
	var pool sat.Pool
	tm := RunStrategy(g, in.UnroutableW(), s, translate, time.Millisecond, &pool)
	if tm.Status == sat.Sat {
		t.Fatal("unsat instance reported Sat")
	}
	if tm.Translate != translate {
		t.Fatal("translate time not propagated")
	}
}

func TestFmtDur(t *testing.T) {
	cases := map[string]string{
		"1.50":  fmtDur(1500*time.Millisecond, false),
		">12.0": fmtDur(12*time.Second, true),
		"150":   fmtDur(150*time.Second, false),
	}
	for want, got := range cases {
		if got != want {
			t.Errorf("fmtDur: got %q, want %q", got, want)
		}
	}
}

func mustStrategy(t *testing.T, s string) core.Strategy {
	t.Helper()
	st, err := core.ParseStrategy(s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSolverCompareSmoke(t *testing.T) {
	r, err := RunSolverCompare(SolverCompareConfig{
		Instances: quickInstances(t),
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Profiles) < 2 || len(r.Instances) != 2 {
		t.Fatalf("shape: %v %v", r.Profiles, r.Instances)
	}
	for pi := range r.Profiles {
		if r.UnsatTotal[pi] <= 0 || r.SatTotal[pi] <= 0 {
			t.Fatal("nonpositive totals")
		}
	}
	if !strings.Contains(r.Markdown(), "Solver-profile comparison") {
		t.Error("markdown missing header")
	}
}

func TestTreeAblationSmoke(t *testing.T) {
	in, err := mcnc.ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTreeAblation(TreeAblationConfig{
		Instance:    in,
		RandomTrees: 2,
		Symmetry:    symmetry.S1,
		Timeout:     2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Shapes) != 4 {
		t.Fatalf("%d shapes, want 4 (linear, balanced, 2 random)", len(r.Shapes))
	}
	if !strings.Contains(r.Markdown(), "ITE-tree shape ablation") {
		t.Error("markdown missing header")
	}
}

func TestSymmetryAblationSmoke(t *testing.T) {
	r, err := RunSymmetryAblation(SymmetryAblationConfig{
		Instances: quickInstances(t),
		Encoding:  "ITE-log",
		Timeout:   2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Columns) != 4 {
		t.Fatalf("columns: %v", r.Columns)
	}
	for _, col := range []string{"ITE-log/-", "ITE-log/b1", "ITE-log/s1", "ITE-log/c1"} {
		found := false
		for _, c := range r.Columns {
			if c == col {
				found = true
			}
		}
		if !found {
			t.Errorf("missing column %s", col)
		}
	}
	for ii := range r.Cells {
		for _, c := range r.Cells[ii] {
			if c.Timing.Status == sat.Sat {
				t.Error("ablation instance unexpectedly satisfiable")
			}
		}
	}
}

func TestBaselinesSmoke(t *testing.T) {
	r, err := RunBaselines(quickInstances(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.GreedyOrder < row.MinW || row.GreedyDeg < row.MinW || row.DSATUR < row.MinW {
			t.Fatalf("%s: a heuristic beat the proven minimum: %+v", row.Instance, row)
		}
	}
	a, b, c := r.ExcessTracks()
	if a < 0 || b < 0 || c < 0 {
		t.Fatal("negative excess")
	}
	if !strings.Contains(r.Markdown(), "One-net-at-a-time baselines") {
		t.Error("markdown missing header")
	}
}

func TestTable2TimeoutRendering(t *testing.T) {
	// Force a timeout on a hard instance and check the ">" and "≥"
	// markers appear in the rendered table.
	in, err := mcnc.ByName("k2")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTable2(Table2Config{
		Instances: []mcnc.Instance{in},
		Columns:   []string{"muldirect/-", "ITE-log/s1"},
		Timeout:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.AnyCapped[0] {
		t.Skip("baseline finished within 10ms; cannot exercise timeout rendering")
	}
	md := r.Markdown()
	if !strings.Contains(md, ">") {
		t.Fatalf("capped-cell marker missing:\n%s", md)
	}
	// The speedup row carries a bound marker: "≥" when only the
	// baseline is capped, "≤" when only the other column is, "~" when
	// both are.
	if !strings.ContainsAny(md, "≥≤~") {
		t.Fatalf("speedup bound marker missing:\n%s", md)
	}
}

// TestRunStrategyMatchesMaterializedSolve pins that RunStrategy, which
// streams the encoding into a pooled solver, answers exactly like the
// materialized path (core.Encode then sat.SolveCNFContext) that DIMACS
// export and the benchmark use: same status, same conflict count.
func TestRunStrategyMatchesMaterializedSolve(t *testing.T) {
	type config struct {
		instance string
		strategy string
	}
	var configs []config
	for _, name := range []string{"term1", "9symml", "tseng", "alu2"} {
		for _, s := range []string{"muldirect/-", "ITE-linear-2+muldirect/s1", "log/-"} {
			configs = append(configs, config{name, s})
		}
	}
	configs = append(configs, config{mcnc.DistanceInstances()[0].Name, "order"})
	// Symmetry-free refutations of alu2 take seconds per solve (31k and
	// 82k conflicts); every other configuration solves in milliseconds.
	slow := map[config]bool{{"alu2", "muldirect/-"}: true, {"alu2", "log/-"}: true}
	var pool sat.Pool
	for _, c := range configs {
		in, err := mcnc.ByName(c.instance)
		if err != nil {
			t.Fatal(err)
		}
		_, g, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		s := mustStrategy(t, c.strategy)
		for _, w := range []int{in.RoutableW, in.UnroutableW()} {
			if w < in.RoutableW && slow[c] {
				continue
			}
			got := RunStrategy(g, w, s, 0, 0, &pool)
			enc := core.Encode(core.BuildCSP(g, w, s.Symmetry), s.Encoding)
			want := sat.SolveCNFContext(context.Background(), enc.CNF, sat.Options{})
			if got.Status != want.Status || got.Conflicts != want.Stats.Conflicts {
				t.Errorf("%s W=%d %s: streamed %v/%d conflicts, materialized %v/%d",
					c.instance, w, c.strategy, got.Status, got.Conflicts, want.Status, want.Stats.Conflicts)
			}
		}
	}
}
