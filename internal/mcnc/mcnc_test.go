package mcnc

import (
	"bytes"
	"context"
	"testing"
	"time"

	"fpgasat/internal/coloring"
	"fpgasat/internal/core"
	"fpgasat/internal/portfolio"
	"fpgasat/internal/sat"
)

func TestRegistryLookups(t *testing.T) {
	if len(Instances()) < 10 {
		t.Fatalf("only %d instances", len(Instances()))
	}
	if len(Table2Instances()) != 8 {
		t.Fatalf("Table 2 needs 8 instances, got %d", len(Table2Instances()))
	}
	want := []string{"alu2", "too_large", "alu4", "C880", "apex7", "C1355", "vda", "k2"}
	for i, in := range Table2Instances() {
		if in.Name != want[i] {
			t.Fatalf("Table 2 order: got %s at %d, want %s", in.Name, i, want[i])
		}
	}
	if _, err := ByName("vda"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if len(Names()) != len(Instances()) {
		t.Fatal("Names/Instances mismatch")
	}
}

func TestInstancesMutationSafe(t *testing.T) {
	a := Instances()
	a[0].Name = "clobbered"
	if Instances()[0].Name == "clobbered" {
		t.Fatal("Instances exposes internal state")
	}
}

func TestBuildDeterministic(t *testing.T) {
	in, err := ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g1, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, g2, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g1.N() != g2.N() || g1.M() != g2.M() {
		t.Fatalf("instance not deterministic: %d/%d vs %d/%d", g1.N(), g1.M(), g2.N(), g2.M())
	}
}

func TestBuildValidRouting(t *testing.T) {
	for _, name := range []string{"tseng", "term1", "9symml"} {
		in, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		gr, g, err := in.Build()
		if err != nil {
			t.Fatal(err)
		}
		if err := gr.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: trivial conflict graph", name)
		}
		// The congestion lower bound must not contradict the calibrated
		// width.
		if gr.MaxCongestion() > in.RoutableW {
			t.Fatalf("%s: congestion %d exceeds calibrated W %d", name, gr.MaxCongestion(), in.RoutableW)
		}
	}
}

// raceWidth decides satisfiability at width w with a small portfolio.
func raceWidth(t *testing.T, in Instance, w int, timeout time.Duration) sat.Status {
	t.Helper()
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	winner, _, err := portfolio.Run(ctx, g, w, portfolio.Must(portfolio.PaperPortfolio3()), portfolio.Options{})
	if err != nil {
		t.Fatalf("%s W=%d: %v", in.Name, w, err)
	}
	return winner.Status
}

// TestCalibrationEasyInstances proves the calibration claim (routable
// at W, unroutable at W-1) for the small instances on every run.
func TestCalibrationEasyInstances(t *testing.T) {
	for _, name := range []string{"tseng", "term1", "9symml"} {
		in, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if st := raceWidth(t, in, in.RoutableW, time.Minute); st != sat.Sat {
			t.Errorf("%s at W=%d: got %v, want Sat", name, in.RoutableW, st)
		}
		if st := raceWidth(t, in, in.UnroutableW(), time.Minute); st != sat.Unsat {
			t.Errorf("%s at W=%d: got %v, want Unsat", name, in.UnroutableW(), st)
		}
	}
}

// TestCalibrationHardInstances re-proves the calibration for the Table
// 2 instances. Skipped with -short: the unroutability proofs take
// seconds each by design.
func TestCalibrationHardInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("hard calibration skipped in short mode")
	}
	for _, in := range Table2Instances() {
		if st := raceWidth(t, in, in.RoutableW, 5*time.Minute); st != sat.Sat {
			t.Errorf("%s at W=%d: got %v, want Sat", in.Name, in.RoutableW, st)
		}
		if st := raceWidth(t, in, in.UnroutableW(), 5*time.Minute); st != sat.Unsat {
			t.Errorf("%s at W=%d: got %v, want Unsat", in.Name, in.UnroutableW(), st)
		}
	}
}

// TestDecodedRoutingVerifies runs the full flow on one easy instance:
// encode at W, solve, decode, verify the coloring and track
// assignment.
func TestDecodedRoutingVerifies(t *testing.T) {
	in, err := ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ParseStrategy("ITE-linear-2+muldirect/s1")
	if err != nil {
		t.Fatal(err)
	}
	st, colors, err := s.EncodeGraph(g, in.RoutableW).SolveContext(context.Background(), sat.Options{})
	if err != nil || st != sat.Sat {
		t.Fatalf("%v %v", st, err)
	}
	if err := coloring.Verify(g, colors, in.RoutableW); err != nil {
		t.Fatal(err)
	}
}

// TestUnroutabilityCertificate produces and verifies a DRAT
// certificate for a real benchmark's unroutable configuration.
func TestUnroutabilityCertificate(t *testing.T) {
	in, err := ByName("term1")
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := in.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.ParseStrategy("ITE-log/s1")
	if err != nil {
		t.Fatal(err)
	}
	enc := s.EncodeGraph(g, in.UnroutableW())
	var proof bytes.Buffer
	res := sat.SolveCNFContext(context.Background(), enc.CNF, sat.Options{ProofWriter: &proof})
	if res.Status != sat.Unsat {
		t.Fatalf("status %v", res.Status)
	}
	if err := sat.CheckDRAT(enc.CNF, &proof); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}
