package sat

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func lit(d int) Lit { return LitFromDimacs(d) }

func TestSolveAssumingBasic(t *testing.T) {
	s := New(Options{})
	// (x1 ∨ x2) ∧ (¬x1 ∨ x3)
	s.AddDimacsClause(1, 2)
	s.AddDimacsClause(-1, 3)
	if st := s.SolveAssuming(); st != Sat {
		t.Fatalf("unconstrained: got %v, want Sat", st)
	}
	if st := s.SolveAssuming(lit(1), lit(-3)); st != Unsat {
		t.Fatalf("x1 ∧ ¬x3: got %v, want Unsat", st)
	}
	core := s.FailedAssumptions()
	if len(core) == 0 {
		t.Fatal("assumption Unsat with nil core")
	}
	// The same solver answers Sat again with compatible assumptions.
	if st := s.SolveAssuming(lit(1), lit(3)); st != Sat {
		t.Fatalf("x1 ∧ x3: got %v, want Sat", st)
	}
	m := s.Model()
	if !m[0] || !m[2] {
		t.Fatalf("model %v does not satisfy the assumptions", m)
	}
}

func TestSolveAssumingContradictoryAssumptions(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	if st := s.SolveAssuming(lit(3), lit(-3)); st != Unsat {
		t.Fatalf("got %v, want Unsat for x3 ∧ ¬x3", st)
	}
	core := s.FailedAssumptions()
	seen := map[Lit]bool{}
	for _, l := range core {
		seen[l] = true
	}
	if !seen[lit(3)] || !seen[lit(-3)] {
		t.Fatalf("core %v should contain both contradictory assumptions", core)
	}
}

func TestSolveAssumingLevelZeroFalse(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(-1) // unit: x1 false
	s.AddDimacsClause(2, 3)
	if st := s.SolveAssuming(lit(1)); st != Unsat {
		t.Fatalf("got %v, want Unsat when assuming a level-0-false literal", st)
	}
	core := s.FailedAssumptions()
	if len(core) != 1 || core[0] != lit(1) {
		t.Fatalf("core %v, want [x1]", core)
	}
	// The database itself stays satisfiable.
	if st := s.SolveAssuming(); st != Sat {
		t.Fatalf("got %v, want Sat without assumptions", st)
	}
}

func TestSolveAssumingCoreIsSubset(t *testing.T) {
	s := New(Options{})
	// Chain: x1 → x2 → x3; assuming x1 and ¬x3 is inconsistent, x5 is
	// irrelevant and must not pollute the core.
	s.AddDimacsClause(-1, 2)
	s.AddDimacsClause(-2, 3)
	if st := s.SolveAssuming(lit(5), lit(1), lit(-3)); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	for _, l := range s.FailedAssumptions() {
		if l == lit(5) {
			t.Fatalf("irrelevant assumption x5 in core %v", s.FailedAssumptions())
		}
	}
}

func TestAddClausesBetweenSolves(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	if st := s.SolveAssuming(); st != Sat {
		t.Fatal("expected Sat")
	}
	// Tighten the formula between calls: force ¬x1 then ¬x2.
	if !s.AddDimacsClause(-1) {
		t.Fatal("adding ¬x1 should keep the formula consistent")
	}
	if st := s.SolveAssuming(); st != Sat {
		t.Fatal("expected Sat after ¬x1")
	}
	if m := s.Model(); m[0] || !m[1] {
		t.Fatalf("model %v, want ¬x1 ∧ x2", m)
	}
	s.AddDimacsClause(-2)
	if st := s.SolveAssuming(); st != Unsat {
		t.Fatal("expected Unsat after ¬x1 ∧ ¬x2")
	}
	if s.FailedAssumptions() != nil {
		t.Fatalf("genuine Unsat must have nil core, got %v", s.FailedAssumptions())
	}
	// Poisoned database: every further call answers Unsat.
	if st := s.SolveAssuming(lit(3)); st != Unsat {
		t.Fatal("poisoned solver must stay Unsat")
	}
}

func TestSolveAssumingFreshVariables(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	// Assume over a variable the solver has never seen.
	if st := s.SolveAssuming(lit(-9)); st != Sat {
		t.Fatalf("got %v, want Sat", st)
	}
	if m := s.Model(); len(m) < 9 || m[8] {
		t.Fatalf("model %v must assign ¬x9", m)
	}
}

// TestSolveAssumingAgainstBruteForce cross-checks incremental solves
// under random assumption sets against the reference solver on the
// same formula with the assumptions added as unit clauses.
func TestSolveAssumingAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		vars := 6 + rng.Intn(6)
		cnf := randomCNF(rng, vars, vars*4, 3)
		s := New(Options{DisableMinimize: round%2 == 0})
		if !s.Load(cnf) {
			continue // trivially unsat at load time
		}
		for probe := 0; probe < 6; probe++ {
			var assumps []Lit
			ref := &CNF{NumVars: cnf.NumVars}
			for _, cl := range cnf.Clauses {
				ref.AddClause(append([]int(nil), cl...)...)
			}
			for v := 1; v <= vars; v++ {
				if rng.Intn(3) != 0 {
					continue
				}
				d := v
				if rng.Intn(2) == 0 {
					d = -v
				}
				assumps = append(assumps, lit(d))
				ref.AddClause(d)
			}
			want, _ := BruteForce(ref)
			got := s.SolveAssuming(assumps...)
			if got != want {
				t.Fatalf("round %d probe %d assumps %v: incremental %v, brute force %v",
					round, probe, assumps, got, want)
			}
			if got == Sat {
				m := s.Model()
				if !ref.Eval(m) {
					t.Fatalf("round %d probe %d: model violates formula+assumptions", round, probe)
				}
			} else {
				// The failed core must itself be inconsistent with the
				// original formula.
				coreRef := &CNF{NumVars: cnf.NumVars}
				for _, cl := range cnf.Clauses {
					coreRef.AddClause(append([]int(nil), cl...)...)
				}
				for _, l := range s.FailedAssumptions() {
					coreRef.AddClause(l.Dimacs())
				}
				if st, _ := BruteForce(coreRef); st != Unsat {
					t.Fatalf("round %d probe %d: failed core %v is not actually inconsistent",
						round, probe, s.FailedAssumptions())
				}
			}
		}
	}
}

// TestIncrementalLearntReuse verifies that learnt clauses survive
// across SolveAssuming calls — the property the incremental width
// search relies on.
func TestIncrementalLearntReuse(t *testing.T) {
	cnf := php(8, 7)
	s := New(Options{})
	if !s.Load(cnf) {
		t.Fatal("php should not be trivially unsat")
	}
	// A selector-guarded probe first: the guard variable is free, so
	// the instance stays Unsat (php is unsat on its own).
	if st := s.SolveAssuming(); st != Unsat {
		t.Fatalf("got %v, want Unsat", st)
	}
	if s.NumLearnts() == 0 && s.Stats.Learnt == 0 {
		t.Fatal("expected learnt clauses from the pigeonhole proof")
	}
}

func TestSolveAssumingContextCancel(t *testing.T) {
	cnf := php(10, 9)
	s := New(Options{})
	if !s.Load(cnf) {
		t.Fatal("unexpected trivial unsat")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if st := s.SolveAssumingContext(ctx); st != Unknown {
		t.Skipf("instance solved before the deadline (%v); cannot exercise cancellation", st)
	}
	// The solver must remain usable: a later call with a fresh context
	// is not poisoned by the earlier Stop.
	s2ctx := context.Background()
	if st := s.SolveAssumingContext(s2ctx, lit(1)); st == Unknown {
		t.Fatal("solver stayed cancelled after an expired context")
	}
}

// TestSolveAssumingContextStopDoesNotLeak pins the watcher-join
// semantics: once SolveAssumingContext returns, cancelling its context
// must never Stop the solver. (A watcher that outlives the call can
// wake after the caller's deferred cancel, see both its channels
// ready, pick ctx.Done() at random and silently kill the *next*
// incremental solve — observed as spurious Unknown probes in the
// width search under scheduler load.)
func TestSolveAssumingContextStopDoesNotLeak(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1, 2)
	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		if st := s.SolveAssumingContext(ctx, lit(1)); st != Sat {
			t.Fatalf("iter %d: got %v, want Sat", i, st)
		}
		cancel()
		runtime.Gosched()
		if s.stopped.Load() {
			t.Fatalf("iter %d: a stale context watcher stopped the solver after its call returned", i)
		}
	}
}

// TestPanickingSolveJoinsWatcher: a solve that panics under a live
// cancellable context must still join its stop watcher on the way out,
// or every crashed (and recovered) solve strands one goroutine until
// the context ends.
func TestPanickingSolveJoinsWatcher(t *testing.T) {
	crash := Options{Progress: func(Stats) { panic("injected progress crash") }}
	for _, tc := range []struct {
		name  string
		solve func(ctx context.Context)
	}{
		{"SolveCNFContext", func(ctx context.Context) { SolveCNFContext(ctx, php(9, 8), crash) }},
		{"SolveAssumingContext", func(ctx context.Context) {
			s := New(crash)
			s.Load(php(9, 8))
			s.SolveAssumingContext(ctx)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			baseline := runtime.NumGoroutine()
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the Progress callback never fired; the solve did not panic")
					}
				}()
				tc.solve(ctx)
			}()
			deadline := time.Now().Add(time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%d goroutines after the panicking solve, %d before: the stop watcher was not joined", n, baseline)
			}
		})
	}
}

func TestSolveAssumingAlreadyCancelledContext(t *testing.T) {
	s := New(Options{})
	s.AddDimacsClause(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if st := s.SolveAssumingContext(ctx); st != Unknown {
		t.Fatalf("got %v, want Unknown for a cancelled context", st)
	}
	if st := s.SolveAssumingContext(context.Background()); st != Sat {
		t.Fatalf("got %v, want Sat on retry", st)
	}
}

// TestIncrementalDRAT checks the documented DRAT interaction: lemmas
// learnt during assumption-based probes are RUP with respect to the
// clause database alone, so a session of probes that ends in a genuine
// Unsat yields one contiguous checkable refutation.
func TestIncrementalDRAT(t *testing.T) {
	var proof bytes.Buffer
	cnf := php(7, 6)
	// Guard every pigeon's at-least-one clause with selector variable
	// g (DIMACS index = NumVars+1): the formula is Sat while g may be
	// false, Unsat under assumption g.
	sel := cnf.NumVars + 1
	guarded := &CNF{NumVars: sel}
	for _, cl := range cnf.Clauses {
		if len(cl) > 2 {
			guarded.AddClause(append(append([]int(nil), cl...), -sel)...)
		} else {
			guarded.AddClause(append([]int(nil), cl...)...)
		}
	}
	s := New(Options{ProofWriter: &proof})
	if !s.Load(guarded) {
		t.Fatal("unexpected trivial unsat")
	}
	if st := s.SolveAssuming(lit(sel)); st != Unsat {
		t.Fatalf("guarded probe: got %v, want Unsat", st)
	}
	if s.FailedAssumptions() == nil {
		t.Fatal("guarded probe must blame the selector assumption")
	}
	if st := s.SolveAssuming(lit(-sel)); st != Sat {
		t.Fatalf("relaxed probe: got %v, want Sat", st)
	}
	// Now make the selector permanent: the database becomes genuinely
	// unsatisfiable and the proof must close with the empty clause.
	s.AddDimacsClause(sel)
	if st := s.SolveAssuming(); st != Unsat {
		t.Fatal("expected genuine Unsat after asserting the selector")
	}
	if s.FailedAssumptions() != nil {
		t.Fatal("genuine Unsat must have a nil core")
	}
	if err := s.ProofError(); err != nil {
		t.Fatal(err)
	}
	// The proof is checked against the final database (original clauses
	// plus the asserted selector unit).
	guarded.AddClause(sel)
	if err := CheckDRAT(guarded, bytes.NewReader(proof.Bytes())); err != nil {
		t.Fatalf("incremental DRAT proof rejected: %v", err)
	}
}

// TestSolveAssumingRepeatedWidths mimics the descending width search:
// a sequence of strictly stronger assumption sets over one solver, with
// per-call conflict budgets bounding each probe independently.
func TestSolveAssumingConflictBudgetPerCall(t *testing.T) {
	cnf := php(9, 8)
	s := New(Options{ConflictBudget: 5})
	if !s.Load(cnf) {
		t.Fatal("unexpected trivial unsat")
	}
	first := s.SolveAssuming()
	if first != Unknown {
		t.Skipf("php(9,8) solved within 5 conflicts (%v)?", first)
	}
	// The budget is per call, not lifetime: a second call gets its own
	// 5 conflicts instead of returning immediately.
	before := s.Stats.Conflicts
	if st := s.SolveAssuming(); st != Unknown {
		t.Skipf("unexpectedly solved on second budgeted call (%v)", st)
	}
	if s.Stats.Conflicts <= before {
		t.Fatal("second call did no work: conflict budget is not per-call")
	}
}
