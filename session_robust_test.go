package fpgasat_test

import (
	"context"
	"testing"

	"fpgasat"
	"fpgasat/internal/graph"
	"fpgasat/internal/robust"
)

// TestSessionSolveGraphIsolatesPanic: a crash inside a Session solve
// (injected into the portfolio lane that runs it) must surface as a *PanicError instead of killing the process, and
// the session must stay usable (the crashed solver is abandoned, not
// returned to the pool).
func TestSessionSolveGraphIsolatesPanic(t *testing.T) {
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { panic("injected session crash") })
	session := fpgasat.NewSession(fpgasat.NewMetrics())
	g := graph.Complete(4)
	strategy, err := fpgasat.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}

	st, colors, err := session.SolveGraph(context.Background(), g, 4, strategy, fpgasat.SolverOptions{})
	robust.ClearFailpoint(robust.FPPortfolioLane)
	if _, ok := robust.AsPanic(err); !ok {
		t.Fatalf("session crash not isolated: st=%v err=%v", st, err)
	}
	if st != fpgasat.Unknown || colors != nil {
		t.Fatalf("crashed solve leaked a result: %v %v", st, colors)
	}

	// The session survives and answers correctly afterwards.
	st, colors, err = session.SolveGraph(context.Background(), g, 4, strategy, fpgasat.SolverOptions{})
	if err != nil || st != fpgasat.Sat {
		t.Fatalf("session unusable after isolated crash: st=%v err=%v", st, err)
	}
	if err := fpgasat.VerifyColoring(g, colors, 4); err != nil {
		t.Fatal(err)
	}
	if stats := session.PoolStats(); stats.Reuses != 0 {
		t.Fatalf("crashed solver re-entered the session pool: %+v", stats)
	}
}

// TestSessionSolveCNFIsolatesPanic: the CNF entry point reports the
// captured panic through SolveResult.Err.
func TestSessionSolveCNFIsolatesPanic(t *testing.T) {
	robust.SetFailpoint(robust.FPSessionSolve, func(args ...any) { panic("injected session crash") })
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPSessionSolve) })
	session := fpgasat.NewSession(nil)

	var c fpgasat.CNF
	c.AddClause(1, 2)
	c.AddClause(-1)
	res := session.SolveCNF(context.Background(), &c, fpgasat.SolverOptions{})
	if _, ok := robust.AsPanic(res.Err); !ok {
		t.Fatalf("SolveResult.Err = %v, want *PanicError", res.Err)
	}
	if res.Status != fpgasat.Unknown {
		t.Fatalf("crashed solve reported %v", res.Status)
	}

	robust.ClearFailpoint(robust.FPSessionSolve)
	res = session.SolveCNF(context.Background(), &c, fpgasat.SolverOptions{})
	if res.Err != nil || res.Status != fpgasat.Sat {
		t.Fatalf("session unusable after isolated crash: %+v", res)
	}
	if len(res.Model) < 2 || !res.Model[1] {
		t.Fatalf("model wrong: %v", res.Model)
	}
}
