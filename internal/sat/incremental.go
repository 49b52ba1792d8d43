package sat

import "context"

// This file is the incremental interface of the solver, in the style of
// the MiniSat "solve under assumptions" API (Eén & Sörensson): a single
// Solver instance answers a sequence of queries that share one clause
// database, so learnt clauses, VSIDS activity and saved phases carry
// over from one query to the next. Between queries the caller may add
// further problem clauses with AddClause/AddDimacsClause — the solver
// is always back at decision level 0 when a solve call returns, watch
// lists stay attached across calls, and new clauses are simplified
// against the level-0 trail exactly as during initial construction.
//
// Assumptions are temporary unit constraints: SolveAssuming(a1, ..., an)
// decides satisfiability of the clause database conjoined with the
// assumption literals, without adding them as clauses. Internally each
// assumption occupies one decision level below all search decisions, so
// conflict analysis and backtracking treat them like decisions; learnt
// clauses therefore never depend on the assumptions being true (any
// assumption involved in a conflict appears negated inside the learnt
// clause) and remain sound for later calls with different assumptions.
//
// When a solve returns Unsat, FailedAssumptions distinguishes the two
// flavours of unsatisfiability:
//   - nil core: the clause database itself is unsatisfiable (the solver
//     is poisoned; every further call returns Unsat), and
//   - non-nil core: a subset of the assumptions that is inconsistent
//     with the database ("final-conflict analysis"); dropping or
//     changing assumptions can make the next call satisfiable.
//
// DRAT interaction: learnt clauses are derived by resolution on reason
// clauses only — assumption literals are decisions and are never
// resolved away — so every lemma logged to Options.ProofWriter is RUP
// with respect to the clause database alone and the proof log stays
// valid across assumption-based calls. The empty clause is emitted only
// when the database itself is refuted (nil failed-assumption core); an
// Unsat answer under assumptions produces no empty clause, because none
// is derivable. A session of assumption probes that ends in a genuine
// Unsat therefore yields one contiguous, checkable DRAT refutation (see
// TestIncrementalDRAT).

// SolveAssuming solves the current clause database under the given
// assumption literals. It may be called repeatedly, interleaved with
// AddClause, on one Solver; state from earlier calls (learnt clauses,
// activity, phases, statistics) is retained. Unlike Solve, it clears
// any pending Stop so that a cancelled earlier call does not poison
// later ones; use SolveAssumingContext for per-call cancellation.
//
// After Sat, Model holds an assignment satisfying the database and all
// assumptions. After Unsat, FailedAssumptions reports which assumptions
// (if any) were to blame.
func (s *Solver) SolveAssuming(assumps ...Lit) Status {
	s.stopped.Store(false)
	return s.solveWith(assumps)
}

// SolveAssumingContext is SolveAssuming with context-based
// cancellation: the solve returns Unknown promptly once ctx is
// cancelled or its deadline passes. The cancellation applies to this
// call only; the solver remains usable for further incremental calls.
func (s *Solver) SolveAssumingContext(ctx context.Context, assumps ...Lit) Status {
	s.stopped.Store(false)
	if ctx.Err() != nil {
		return Unknown
	}
	if ctx.Done() == nil {
		return s.solveWith(assumps)
	}
	// The watcher is joined before returning: if it ran at all, its
	// Stop lands before this call returns, never inside a later solve
	// on the same Solver. (With a plain `defer close(done)` the watcher
	// can wake after the caller has cancelled ctx, see both channels
	// ready, pick ctx.Done() at random and poison the next call.)
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			s.Stop()
		case <-done:
		}
	}()
	// Deferred so the watcher is joined even when the solve panics and
	// the panic unwinds through a recover boundary.
	defer func() {
		close(done)
		<-exited
	}()
	return s.solveWith(assumps)
}

// FailedAssumptions returns the failed-assumption core of the last
// Unsat answer: a subset of the assumptions passed to the last solve
// call that is inconsistent with the clause database. A nil result
// after Unsat means the database is unsatisfiable regardless of
// assumptions. The slice is valid until the next solve call.
func (s *Solver) FailedAssumptions() []Lit { return s.conflictCore }

// NumLearnts returns the current learnt-clause database size — the
// clauses an incremental caller reuses across SolveAssuming calls.
func (s *Solver) NumLearnts() int { return len(s.learnts) }

// analyzeFinal computes the failed-assumption core when assumption p is
// found false while establishing the assumption decision levels: the
// subset of assumptions that (with the clause database) imply ¬p. It
// walks the trail from the top, expanding propagated literals through
// their reason clauses and collecting decision literals — which, at
// this point of the search, are all assumptions.
func (s *Solver) analyzeFinal(p Lit) {
	s.conflictCore = append(s.conflictCore[:0], p)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if r := s.reason[v]; r == RefUndef {
			if s.level[v] > 0 {
				s.conflictCore = append(s.conflictCore, s.trail[i])
			}
		} else {
			for _, qw := range s.ca.lits(r)[1:] {
				if q := Lit(qw); s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
}

// SolverSink adapts a Solver to the clause-sink consumers in package
// core: encodings stream DIMACS clauses straight into the solver with
// no intermediate CNF materialization. If a streamed clause makes the
// formula trivially unsatisfiable the solver records that (subsequent
// adds become no-ops) and the next solve call returns Unsat.
type SolverSink struct{ S *Solver }

// AddClause implements the clause-sink contract over AddDimacsClause.
func (ss SolverSink) AddClause(lits ...int) { ss.S.AddDimacsClause(lits...) }
