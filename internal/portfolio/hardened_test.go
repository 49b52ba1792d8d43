package portfolio

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
	"fpgasat/internal/robust"
	"fpgasat/internal/sat"
)

// TestPanickingLaneDoesNotChangeAnswer is the headline acceptance test
// of the supervision layer: a lane that panics mid-solve neither
// crashes the process nor changes the portfolio's answer, and the
// panic is observable through Result.Err and the portfolio.panics
// counter.
func TestPanickingLaneDoesNotChangeAnswer(t *testing.T) {
	strategies := Must(PaperPortfolio3())
	crashed := strategies[0].Name()
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) {
		if args[0].(string) == crashed {
			panic("injected lane crash")
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLane) })

	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		g := graph.Random(rng, 6+rng.Intn(8), 0.4+rng.Float64()*0.4)
		k := 2 + rng.Intn(4)
		_, want, _ := coloring.KColorable(g, k, 0)

		winner, all, err := Run(context.Background(), g, k, strategies, Options{Metrics: reg})
		if err != nil {
			t.Fatalf("trial %d: portfolio failed despite two healthy lanes: %v", trial, err)
		}
		if (winner.Status == sat.Sat) != want {
			t.Fatalf("trial %d: portfolio says %v, exact says sat=%v", trial, winner.Status, want)
		}
		if want {
			if err := coloring.Verify(g, winner.Colors, k); err != nil {
				t.Fatalf("trial %d: winner coloring invalid: %v", trial, err)
			}
		}
		pe, ok := robust.AsPanic(all[0].Err)
		if !ok {
			t.Fatalf("trial %d: crashed lane's Result.Err = %v, want *robust.PanicError", trial, all[0].Err)
		}
		if !strings.Contains(pe.Op, crashed) || len(pe.Stack) == 0 {
			t.Fatalf("trial %d: panic error lacks lane name or stack: %+v", trial, pe)
		}
		if winner.Strategy.Name() == crashed {
			t.Fatalf("trial %d: crashed lane crowned winner", trial)
		}
	}
	if n := reg.Snapshot().Counters[MetricPanics]; n < 6 {
		t.Fatalf("portfolio.panics = %d, want >= 6", n)
	}
}

// TestPanickingAndStallingLanes is the crash-recovery property test of
// the issue: one lane always panics, one lane always stalls (ignoring
// cancellation, as a stuck solver would), and the portfolio must still
// return the correct answer from the healthy lane, with the stalled
// lane abandoned by the watchdog instead of hanging the run.
func TestPanickingAndStallingLanes(t *testing.T) {
	strategies := Must(PaperPortfolio3())
	crashed, stalled := strategies[0].Name(), strategies[1].Name()
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // let stalled goroutines exit
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) {
		switch args[0].(string) {
		case crashed:
			panic("injected lane crash")
		case stalled:
			<-release // a hang that no context can interrupt
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLane) })

	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		g := graph.Random(rng, 6+rng.Intn(8), 0.4+rng.Float64()*0.4)
		k := 2 + rng.Intn(4)
		_, want, _ := coloring.KColorable(g, k, 0)

		start := time.Now()
		winner, all, err := Run(context.Background(), g, k, strategies, Options{
			Metrics:     reg,
			LaneTimeout: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("trial %d: portfolio failed despite a healthy lane: %v", trial, err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("trial %d: run took %v; watchdog did not abandon the stalled lane", trial, elapsed)
		}
		if (winner.Status == sat.Sat) != want {
			t.Fatalf("trial %d: portfolio says %v, exact says sat=%v", trial, winner.Status, want)
		}
		if want {
			if err := coloring.Verify(g, winner.Colors, k); err != nil {
				t.Fatalf("trial %d: winner coloring invalid: %v", trial, err)
			}
		}
		if winner.Strategy.Name() != strategies[2].Name() {
			t.Fatalf("trial %d: winner %s, want healthy lane %s", trial, winner.Strategy.Name(), strategies[2].Name())
		}
		if _, ok := robust.AsPanic(all[0].Err); !ok {
			t.Fatalf("trial %d: crashed lane's Result.Err = %v", trial, all[0].Err)
		}
		if all[1].Err == nil || !strings.Contains(all[1].Err.Error(), "abandoned") {
			t.Fatalf("trial %d: stalled lane's Result.Err = %v, want watchdog abandonment", trial, all[1].Err)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricPanics] < 4 {
		t.Fatalf("portfolio.panics = %d, want >= 4", snap.Counters[MetricPanics])
	}
	if snap.Counters[MetricAbandoned] < 4 {
		t.Fatalf("%s = %d, want >= 4", MetricAbandoned, snap.Counters[MetricAbandoned])
	}
}

// TestAllLanesPanicSurfacesPanicError: when every lane crashes there is
// nothing to degrade to, and the run-level error must expose the panic.
func TestAllLanesPanicSurfacesPanicError(t *testing.T) {
	robust.SetFailpoint(robust.FPPortfolioLane, func(args ...any) { panic("injected") })
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLane) })

	_, _, err := Run(context.Background(), graph.Complete(4), 4, Must(PaperPortfolio2()), Options{})
	if err == nil {
		t.Fatal("all-lanes-crashed run reported success")
	}
	if _, ok := robust.AsPanic(err); !ok {
		t.Fatalf("run error does not expose the panic: %v", err)
	}
}

// TestVerifyCatchesUnsoundSatAnswer is the paranoid-mode regression
// test: a lane whose Sat answer carries a corrupted coloring (injected
// via the lane-result failpoint, simulating an unsound encoding) must
// be caught by the conflict-edge re-verification and fail the run with
// a SoundnessError naming the strategy.
func TestVerifyCatchesUnsoundSatAnswer(t *testing.T) {
	strategies := Must(PaperPortfolio2())[:1]
	name := strategies[0].Name()
	g := graph.Complete(5)
	robust.SetFailpoint(robust.FPPortfolioLaneResult, func(args ...any) {
		res := args[1].(*Result)
		if res.Status == sat.Sat && len(res.Colors) >= 2 {
			res.Colors[1] = res.Colors[0] // two adjacent nets on one track
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLaneResult) })

	reg := obs.NewRegistry()
	_, _, err := Run(context.Background(), g, 5, strategies, Options{Metrics: reg, Verify: true})
	se, ok := robust.AsSoundness(err)
	if !ok {
		t.Fatalf("corrupted Sat answer not caught: err = %v", err)
	}
	if se.Strategy != name || se.Claim != "Sat" {
		t.Fatalf("soundness error misattributed: %+v", se)
	}
	if n := reg.Snapshot().Counters[MetricVerifySat]; n != 0 {
		t.Fatalf("corrupted answer counted as verified: %s = %d", MetricVerifySat, n)
	}
}

// TestVerifyUnsatCatchesFlippedStatus: a lane that claims Unsat on a
// satisfiable instance (status corruption injected after the solve)
// must be contradicted by the DRAT replay.
func TestVerifyUnsatCatchesFlippedStatus(t *testing.T) {
	strategies := Must(PaperPortfolio2())[:1]
	g := graph.Complete(4) // K4 with 4 colors: satisfiable
	robust.SetFailpoint(robust.FPPortfolioLaneResult, func(args ...any) {
		res := args[1].(*Result)
		if res.Status == sat.Sat {
			res.Status = sat.Unsat
			res.Colors = nil
		}
	})
	t.Cleanup(func() { robust.ClearFailpoint(robust.FPPortfolioLaneResult) })

	_, _, err := Run(context.Background(), g, 4, strategies, Options{VerifyUnsat: true})
	se, ok := robust.AsSoundness(err)
	if !ok {
		t.Fatalf("lying Unsat answer not caught: err = %v", err)
	}
	if se.Claim != "Unsat" {
		t.Fatalf("soundness error misattributed: %+v", se)
	}
}

// TestVerifyHappyPaths: with paranoid mode on and nothing injected,
// genuine answers verify and the verification counters advance.
func TestVerifyHappyPaths(t *testing.T) {
	strategies := Must(PaperPortfolio2())
	reg := obs.NewRegistry()
	opts := Options{Metrics: reg, Verify: true, VerifyUnsat: true}

	winner, _, err := Run(context.Background(), graph.Complete(5), 5, strategies, opts)
	if err != nil || winner.Status != sat.Sat {
		t.Fatalf("K5/5: %v %v", winner.Status, err)
	}
	winner, _, err = Run(context.Background(), graph.Complete(5), 4, strategies, opts)
	if err != nil || winner.Status != sat.Unsat {
		t.Fatalf("K5/4: %v %v", winner.Status, err)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricVerifySat] == 0 {
		t.Fatalf("%s not incremented: %+v", MetricVerifySat, snap.Counters)
	}
	if snap.Counters[MetricVerifyUnsat] == 0 {
		t.Fatalf("%s not incremented: %+v", MetricVerifyUnsat, snap.Counters)
	}
}

// TestRetryEscalatesBudget: a lane starved by a one-conflict budget
// must escalate through the retry schedule until the answer lands,
// recording its attempts and the robust.retries counter.
func TestRetryEscalatesBudget(t *testing.T) {
	strategies := Must(PaperPortfolio2())[:1]
	g := graph.Complete(7) // K7 with 6 colors: needs a real refutation
	reg := obs.NewRegistry()
	winner, all, err := Run(context.Background(), g, 6, strategies, Options{
		Metrics:    reg,
		Solver:     sat.Options{ConflictBudget: 1},
		MaxRetries: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if winner.Status != sat.Unsat {
		t.Fatalf("K7 with 6 colors: %v", winner.Status)
	}
	if all[0].Attempts < 2 {
		t.Fatalf("budget-starved lane answered in %d attempt(s); retry path not exercised", all[0].Attempts)
	}
	if n := reg.Snapshot().Counters[MetricRetries]; n < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricRetries, n)
	}
}

// TestRetryLubySchedule exercises the Luby escalation variant end to
// end (the schedule arithmetic itself is tested in package robust).
func TestRetryLubySchedule(t *testing.T) {
	strategies := Must(PaperPortfolio2())[:1]
	winner, all, err := Run(context.Background(), graph.Complete(6), 5, strategies, Options{
		Solver:        sat.Options{ConflictBudget: 1},
		MaxRetries:    64,
		RetrySchedule: robust.LubyRetry,
	})
	if err != nil {
		t.Fatal(err)
	}
	if winner.Status != sat.Unsat {
		t.Fatalf("K6 with 5 colors: %v", winner.Status)
	}
	if all[0].Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", all[0].Attempts)
	}
}

// TestBudgetExhaustionWithoutRetriesStaysUnknown: without MaxRetries
// the starved lane keeps its Unknown — graceful degradation, not a
// crash or a spin.
func TestBudgetExhaustionWithoutRetriesStaysUnknown(t *testing.T) {
	strategies := Must(PaperPortfolio2())[:1]
	_, all, err := Run(context.Background(), graph.Complete(7), 6, strategies, Options{
		Solver: sat.Options{ConflictBudget: 1},
	})
	if err == nil {
		t.Fatal("starved portfolio reported an answer")
	}
	if all[0].Status != sat.Unknown || all[0].Attempts != 1 {
		t.Fatalf("starved lane: status %v after %d attempts", all[0].Status, all[0].Attempts)
	}
}

// TestRunPoolAgreesWithExact pins the answers of a run on fresh lane
// solvers (nil pool) and on a caller-owned pool that its lanes draw
// from.
func TestRunPoolAgreesWithExact(t *testing.T) {
	strategies := Must(PaperPortfolio2())
	var owned sat.Pool
	for _, tc := range []struct {
		name string
		pool *sat.Pool
	}{{"nil pool", nil}, {"owned pool", &owned}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			for trial := 0; trial < 5; trial++ {
				g := graph.Random(rng, 6+rng.Intn(8), 0.5)
				k := 2 + rng.Intn(4)
				_, want, _ := coloring.KColorable(g, k, 0)
				winner, _, err := Run(context.Background(), g, k, strategies, Options{Pool: tc.pool})
				if err != nil {
					t.Fatal(err)
				}
				if (winner.Status == sat.Sat) != want {
					t.Fatalf("trial %d: %v vs exact sat=%v", trial, winner.Status, want)
				}
			}
		})
	}
	if owned.Stats().Gets == 0 {
		t.Fatal("owned-pool run never drew a solver from its pool")
	}
}
