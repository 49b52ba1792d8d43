package mcnc

import (
	"context"
	"testing"
	"time"

	"fpgasat/internal/core"
	"fpgasat/internal/graph"
	"fpgasat/internal/obs"
)

func chiStrategies(t *testing.T, specs ...string) []core.Strategy {
	t.Helper()
	out := make([]core.Strategy, len(specs))
	for i, s := range specs {
		st, err := core.ParseStrategy(s)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = st
	}
	return out
}

// TestFindChiCalibrated re-measures a calibrated instance with the
// shared incremental width-probe helper: the result must match the
// registry's RoutableW, with the heuristic bounds bracketing it.
func TestFindChiCalibrated(t *testing.T) {
	// 9symml has a genuine gap between the greedy-clique bound (5) and
	// DSATUR (7), so FindChi must take the SAT probe path to pin chi=6.
	in, err := ByName("9symml")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	res, err := FindChi(context.Background(), g,
		chiStrategies(t, "ITE-linear-2+muldirect/s1"), time.Minute, reg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi != in.RoutableW || !res.Proved {
		t.Fatalf("chi=%d proved=%v, want %d/true", res.Chi, res.Proved, in.RoutableW)
	}
	if res.LowerBound > res.Chi || res.Chi > res.UpperBound {
		t.Fatalf("bounds [%d,%d] do not bracket chi=%d", res.LowerBound, res.UpperBound, res.Chi)
	}
	if err := core.NewCSP(g, res.Chi).Verify(res.Colors); err != nil {
		t.Fatalf("returned coloring invalid: %v", err)
	}
	if res.Probes == 0 {
		t.Fatal("the SAT search ran but recorded no probes")
	}
}

// TestFindChiRacesStrategies exercises the portfolio path (two
// strategies) on a small graph.
func TestFindChiRacesStrategies(t *testing.T) {
	rngGraph := graph.Complete(5)
	res, err := FindChi(context.Background(), rngGraph,
		chiStrategies(t, "ITE-log/s1", "direct/s1"), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi != 5 || !res.Proved {
		t.Fatalf("chi=%d proved=%v, want 5/true (K5)", res.Chi, res.Proved)
	}
	if res.Strategy == "" {
		t.Fatal("winner strategy not recorded")
	}
}

// TestFindChiBoundsMeet covers the no-SAT shortcut: on a complete
// graph the greedy clique and DSATUR agree, so no probe is needed.
func TestFindChiBoundsMeet(t *testing.T) {
	g := graph.Complete(6)
	res, err := FindChi(context.Background(), g, chiStrategies(t, "log/-"), time.Minute, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chi != 6 || !res.Proved || res.Probes != 0 {
		t.Fatalf("bounds-meet shortcut not taken: %+v", res)
	}
	if res.Strategy != "dsatur" {
		t.Fatalf("strategy %q, want dsatur shortcut", res.Strategy)
	}
}

func TestFindChiNoStrategies(t *testing.T) {
	if _, err := FindChi(context.Background(), graph.Complete(3), nil, 0, nil); err == nil {
		t.Fatal("expected an error without strategies")
	}
}

// TestFindChiCancelledKeepsBound: a one-strategy search cut short
// before it completes is not an error; FindChi falls back to the DSATUR
// coloring as an unproved upper bound.
func TestFindChiCancelledKeepsBound(t *testing.T) {
	in, err := ByName("9symml")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FindChi(ctx, g, chiStrategies(t, "log/-"), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Proved || res.Chi != res.UpperBound {
		t.Fatalf("chi=%d proved=%v, want the unproved DSATUR bound %d", res.Chi, res.Proved, res.UpperBound)
	}
	if err := core.NewCSP(g, res.Chi).Verify(res.Colors); err != nil {
		t.Fatalf("fallback coloring invalid: %v", err)
	}
}
