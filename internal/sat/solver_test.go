package sat

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func solveClauses(t *testing.T, clauses ...[]int) (Status, *Solver) {
	t.Helper()
	s := New(Options{})
	for _, cl := range clauses {
		if !s.AddDimacsClause(cl...) {
			return Unsat, s
		}
	}
	return s.Solve(), s
}

func TestEmptyFormulaIsSat(t *testing.T) {
	st, _ := solveClauses(t)
	if st != Sat {
		t.Fatalf("empty formula: got %v, want Sat", st)
	}
}

func TestUnitClauses(t *testing.T) {
	st, s := solveClauses(t, []int{1}, []int{-2}, []int{3})
	if st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	m := s.Model()
	if !m[0] || m[1] || !m[2] {
		t.Fatalf("model = %v, want [true false true]", m)
	}
}

func TestDirectContradiction(t *testing.T) {
	st, _ := solveClauses(t, []int{1}, []int{-1})
	if st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
}

func TestImplicationChainUnsat(t *testing.T) {
	// 1, 1->2, 2->3, 3->-1 is unsat only with ... actually 1,2,3 true and
	// clause -3 forces the contradiction.
	st, _ := solveClauses(t, []int{1}, []int{-1, 2}, []int{-2, 3}, []int{-3})
	if st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
}

func TestSmallSatWithSearch(t *testing.T) {
	// (1 v 2) & (-1 v 2) & (1 v -2) forces 1 and 2 true.
	st, s := solveClauses(t, []int{1, 2}, []int{-1, 2}, []int{1, -2})
	if st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	m := s.Model()
	if !m[0] || !m[1] {
		t.Fatalf("model = %v, want both true", m)
	}
}

func TestTautologyAndDuplicatesIgnored(t *testing.T) {
	s := New(Options{})
	if !s.AddDimacsClause(1, -1) { // tautology: no constraint
		t.Fatal("tautology rejected")
	}
	if s.NumClauses() != 0 {
		t.Fatalf("tautology stored: %d clauses", s.NumClauses())
	}
	if !s.AddDimacsClause(2, 2, 3, 3, 3) {
		t.Fatal("clause with duplicates rejected")
	}
	if got := s.NumClauses(); got != 1 {
		t.Fatalf("NumClauses = %d, want 1", got)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
}

// php builds the pigeonhole principle formula PHP(pigeons, holes):
// each pigeon in some hole, no two pigeons share a hole. Unsat iff
// pigeons > holes.
func php(pigeons, holes int) *CNF {
	cnf := &CNF{}
	v := func(p, h int) int { return p*holes + h + 1 }
	for p := 0; p < pigeons; p++ {
		cl := make([]int, holes)
		for h := 0; h < holes; h++ {
			cl[h] = v(p, h)
		}
		cnf.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				cnf.AddClause(-v(p1, h), -v(p2, h))
			}
		}
	}
	return cnf
}

func TestPigeonholeUnsat(t *testing.T) {
	for holes := 2; holes <= 6; holes++ {
		res := SolveCNFContext(context.Background(), php(holes+1, holes), Options{})
		if res.Status != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want Unsat", holes+1, holes, res.Status)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	for holes := 2; holes <= 8; holes++ {
		cnf := php(holes, holes)
		res := SolveCNFContext(context.Background(), cnf, Options{})
		if res.Status != Sat {
			t.Fatalf("PHP(%d,%d): got %v, want Sat", holes, holes, res.Status)
		}
		if !cnf.Eval(res.Model) {
			t.Fatalf("PHP(%d,%d): returned model does not satisfy formula", holes, holes)
		}
	}
}

// randomCNF generates a random k-SAT instance.
func randomCNF(rng *rand.Rand, vars, clauses, k int) *CNF {
	cnf := &CNF{NumVars: vars}
	for i := 0; i < clauses; i++ {
		cl := make([]int, 0, k)
		used := map[int]bool{}
		for len(cl) < k {
			v := rng.Intn(vars) + 1
			if used[v] {
				continue
			}
			used[v] = true
			if rng.Intn(2) == 0 {
				v = -v
			}
			cl = append(cl, v)
		}
		cnf.AddClause(cl...)
	}
	return cnf
}

// TestRandomAgainstBruteForce cross-checks the CDCL solver against
// exhaustive enumeration on many small random instances spanning the
// sat/unsat phase transition.
func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 300; trial++ {
		vars := 3 + rng.Intn(10)
		ratio := 2 + rng.Float64()*4 // clause/var ratio 2..6 spans the transition
		clauses := int(float64(vars) * ratio)
		cnf := randomCNF(rng, vars, clauses, 3)
		want, _ := BruteForce(cnf)
		res := SolveCNFContext(context.Background(), cnf, Options{})
		if res.Status != want {
			t.Fatalf("trial %d (vars=%d clauses=%d): CDCL=%v brute=%v",
				trial, vars, clauses, res.Status, want)
		}
		if res.Status == Sat && !cnf.Eval(res.Model) {
			t.Fatalf("trial %d: model does not satisfy formula", trial)
		}
	}
}

func TestRandomAgainstBruteForceNoMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	for trial := 0; trial < 100; trial++ {
		vars := 4 + rng.Intn(8)
		cnf := randomCNF(rng, vars, vars*4, 3)
		want, _ := BruteForce(cnf)
		res := SolveCNFContext(context.Background(), cnf, Options{DisableMinimize: true})
		if res.Status != want {
			t.Fatalf("trial %d: CDCL(nomin)=%v brute=%v", trial, res.Status, want)
		}
	}
}

func TestConflictBudgetReturnsUnknown(t *testing.T) {
	res := SolveCNFContext(context.Background(), php(9, 8), Options{ConflictBudget: 5})
	if res.Status != Unknown {
		t.Fatalf("got %v, want Unknown under tiny budget", res.Status)
	}
}

func TestStopBeforeSolve(t *testing.T) {
	s := New(Options{})
	s.Load(php(8, 7))
	s.Stop()
	if st := s.Solve(); st != Unknown {
		t.Fatalf("got %v, want Unknown when stopped before solve", st)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New(Options{})
	s.Load(php(7, 6))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.Stats.Conflicts == 0 || s.Stats.Propagations == 0 || s.Stats.Decisions == 0 {
		t.Fatalf("stats not populated: %+v", s.Stats)
	}
}

func TestInitialPhaseOption(t *testing.T) {
	// With a single free variable and no constraints, the first decision
	// follows InitialPhase.
	for _, phase := range []bool{false, true} {
		s := New(Options{InitialPhase: phase})
		s.NewVar()
		if st := s.Solve(); st != Sat {
			t.Fatalf("got %v, want Sat", st)
		}
		if got := s.Model()[0]; got != phase {
			t.Fatalf("InitialPhase=%v: model[0]=%v", phase, got)
		}
	}
}

func TestGraphColoringTriangle(t *testing.T) {
	// Triangle with 2 colors: direct encoding, must be Unsat.
	cnf := &CNF{}
	v := func(node, color int) int { return node*2 + color + 1 }
	for n := 0; n < 3; n++ {
		cnf.AddClause(v(n, 0), v(n, 1))
	}
	for _, e := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		for c := 0; c < 2; c++ {
			cnf.AddClause(-v(e[0], c), -v(e[1], c))
		}
	}
	if res := SolveCNFContext(context.Background(), cnf, Options{}); res.Status != Unsat {
		t.Fatalf("triangle 2-coloring: got %v, want Unsat", res.Status)
	}
}

func TestSolverReusedModelAfterUnsatIsNil(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1)
	s.AddDimacsClause(-1)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v", st)
	}
	if s.Model() != nil {
		t.Fatal("model should be nil after Unsat")
	}
}

func TestLargerRandomSat(t *testing.T) {
	// Under-constrained instances are almost surely satisfiable; verify
	// the solver handles a few thousand variables and that models check.
	rng := rand.New(rand.NewSource(7))
	cnf := randomCNF(rng, 2000, 4000, 3)
	res := SolveCNFContext(context.Background(), cnf, Options{})
	if res.Status != Sat {
		t.Fatalf("got %v, want Sat", res.Status)
	}
	if !cnf.Eval(res.Model) {
		t.Fatal("model does not satisfy formula")
	}
}

func TestCNFValidate(t *testing.T) {
	good := &CNF{}
	good.AddClause(1, -2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid CNF rejected: %v", err)
	}
	bad := &CNF{NumVars: 1, Clauses: [][]int{{1, 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero literal accepted")
	}
	bad2 := &CNF{NumVars: 1, Clauses: [][]int{{2}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("out-of-range literal accepted")
	}
}

func TestCNFCounts(t *testing.T) {
	c := &CNF{}
	c.AddClause(1, 2, 3)
	c.AddClause(-1, -2)
	if c.NumClauses() != 2 || c.NumLiterals() != 5 || c.NumVars != 3 {
		t.Fatalf("counts wrong: %d clauses, %d lits, %d vars",
			c.NumClauses(), c.NumLiterals(), c.NumVars)
	}
}

func TestProfilesAgreeOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	profiles := Profiles()
	if len(profiles) < 2 {
		t.Fatal("need at least two profiles")
	}
	for trial := 0; trial < 60; trial++ {
		vars := 4 + rng.Intn(9)
		cnf := randomCNF(rng, vars, vars*4, 3)
		want, _ := BruteForce(cnf)
		for _, p := range profiles {
			res := SolveCNFContext(context.Background(), cnf, p.Opts)
			if res.Status != want {
				t.Fatalf("trial %d profile %s: got %v, want %v", trial, p.Name, res.Status, want)
			}
		}
	}
}

func TestGeometricRestartsSolve(t *testing.T) {
	opts := Options{GeometricRestarts: true, RestartBase: 10}
	if res := SolveCNFContext(context.Background(), php(8, 7), opts); res.Status != Unsat {
		t.Fatalf("got %v", res.Status)
	}
	if res := SolveCNFContext(context.Background(), php(7, 7), opts); res.Status != Sat {
		t.Fatalf("got %v", res.Status)
	}
}

func TestDisablePhaseSaving(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		cnf := randomCNF(rng, 10, 40, 3)
		want, _ := BruteForce(cnf)
		res := SolveCNFContext(context.Background(), cnf, Options{DisablePhaseSaving: true, InitialPhase: true})
		if res.Status != want {
			t.Fatalf("trial %d: got %v, want %v", trial, res.Status, want)
		}
	}
}

// TestLearntLimitClampedAcrossRestarts is the regression test for the
// LearntLimit drift bug: the deletion threshold used to grow by 1.05×
// per restart even when the user configured a hard cap, silently
// exceeding the memory bound on long runs.
func TestLearntLimitClampedAcrossRestarts(t *testing.T) {
	const limit = 100
	s := New(Options{LearntLimit: limit, RestartBase: 10})
	s.Load(php(9, 8))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.Stats.Restarts == 0 {
		t.Fatal("test needs restarts to exercise threshold growth")
	}
	if s.maxLearnts > limit {
		t.Fatalf("maxLearnts drifted to %v after %d restarts; LearntLimit=%d",
			s.maxLearnts, s.Stats.Restarts, limit)
	}
}

// TestLearntLimitKeepsDeletionActive checks the observable consequence
// of the clamp: with a small cap the deletion threshold stays small
// across restarts, so reduceDB keeps firing (Removed grows) instead of
// the threshold drifting out of reach.
func TestLearntLimitKeepsDeletionActive(t *testing.T) {
	s := New(Options{LearntLimit: 50, RestartBase: 10})
	s.Load(php(9, 8))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.Stats.Removed == 0 {
		t.Fatalf("reduceDB never fired under LearntLimit=50 (%d learnt, %d restarts)",
			s.Stats.Learnt, s.Stats.Restarts)
	}
}

// TestStopDuringConflictFreeSearch is the regression test for the
// cancellation-latency bug: stopped used to be polled only every 1024
// conflicts and at restart boundaries, so a search that never
// conflicts (here: a formula with no clauses at all, where every
// decision just extends the trail) could not be cancelled at all.
func TestStopDuringConflictFreeSearch(t *testing.T) {
	const numVars = 200000
	const stopAt = 2048
	var s *Solver
	s = New(Options{
		Progress: func(st Stats) {
			if st.Decisions >= stopAt {
				s.Stop()
			}
		},
	})
	for i := 0; i < numVars; i++ {
		s.NewVar()
	}
	st := s.Solve()
	if st != Unknown {
		t.Fatalf("got %v, want Unknown (Stop ignored during conflict-free search)", st)
	}
	// The solver must notice the stop within one polling interval.
	const bound = stopAt + 3*progressDecisionInterval
	if s.Stats.Decisions > bound {
		t.Fatalf("solver made %d decisions after Stop at %d (bound %d)",
			s.Stats.Decisions, stopAt, bound)
	}
}

// TestProgressSnapshots checks the Progress callback contract: it
// fires during the solve, its snapshots carry the point-in-time
// LearntDB/TrailDepth fields, and cumulative counters never decrease.
func TestProgressSnapshots(t *testing.T) {
	var calls int
	var prev Stats
	s := New(Options{
		RestartBase: 10,
		Progress: func(st Stats) {
			calls++
			if st.Conflicts < prev.Conflicts || st.Decisions < prev.Decisions ||
				st.Propagations < prev.Propagations || st.Restarts < prev.Restarts {
				t.Fatalf("cumulative counters went backwards: %+v after %+v", st, prev)
			}
			if st.LearntDB < 0 || st.TrailDepth < 0 || st.TrailDepth > st.MaxTrail {
				t.Fatalf("inconsistent snapshot: %+v", st)
			}
			prev = st
		},
	})
	s.Load(php(8, 7))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if calls == 0 {
		t.Fatal("Progress never invoked")
	}
	if prev.Restarts == 0 {
		t.Fatal("Progress not invoked at restart boundaries")
	}
}

func TestSolveCNFContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cnf := php(11, 10)
	done := make(chan Result, 1)
	go func() { done <- SolveCNFContext(ctx, cnf, Options{}) }()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case res := <-done:
		if res.Status == Sat {
			t.Fatal("PHP(11,10) reported Sat")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("solver did not stop after context cancellation")
	}
}

func TestSolveCNFContextBackground(t *testing.T) {
	res := SolveCNFContext(context.Background(), php(6, 6), Options{})
	if res.Status != Sat {
		t.Fatalf("got %v, want Sat", res.Status)
	}
}

func TestCustomVarDecay(t *testing.T) {
	for _, decay := range []float64{0.8, 0.999} {
		res := SolveCNFContext(context.Background(), php(7, 6), Options{VarDecay: decay})
		if res.Status != Unsat {
			t.Fatalf("decay %v: got %v", decay, res.Status)
		}
	}
}
