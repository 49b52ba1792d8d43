package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(1000)
	for _, c := range []struct {
		p           float64
		want        float64
		wantBeyond  int
		description string
	}{
		{50, 500, 500, "median"},
		{90, 900, 100, "p90"},
		{99, 990, 10, "p99"},
		{99.9, 999, 1, "p99.9"},
		{100, 1000, 0, "max"},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.want || beyond != c.wantBeyond {
			t.Errorf("%s: percentile = %v with %d beyond, want %v with %d", c.description, v, beyond, c.want, c.wantBeyond)
		}
	}
}

// TestTailRule checks that a tail is the highest ladder percentile
// with at least ten samples beyond it, reported with its counts.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n          int
		maxP       float64
		wantP      float64
		wantBeyond int
	}{
		{1000, 99.99, 99, 10},    // exactly ten beyond p99
		{999, 99.99, 95, 49},     // p99 would leave only nine
		{10000, 99.99, 99.9, 10}, // p99.9 qualifies
		{10000, 90, 90, 1000},    // capped by the caller
		{100, 99, 90, 10},        // ten beyond p90
		{20, 99, 50, 10},         // only the median qualifies
		{19, 99, 50, 9},          // too few: the median, with its short count
	} {
		got := tailOf(seq(c.n), c.maxP)
		if got.P != c.wantP || got.Beyond != c.wantBeyond || got.Samples != c.n {
			t.Errorf("n=%d maxP=%v: got p%v with %d of %d beyond, want p%v with %d beyond",
				c.n, c.maxP, got.P, got.Beyond, got.Samples, c.wantP, c.wantBeyond)
		}
		if v, _ := percentile(seq(c.n), got.P); v != got.Value {
			t.Errorf("n=%d: tail value %v is not the p%v value %v", c.n, got.Value, got.P, v)
		}
	}
}

func TestTallyFailedRatio(t *testing.T) {
	var tl tally
	if tl.failedRatio() != 0 {
		t.Fatal("empty tally has failures")
	}
	for i := 0; i < 9; i++ {
		tl.record(nil)
	}
	tl.record(errTest)
	if tl.attempted != 10 || tl.failed != 1 || tl.failedRatio() != 0.1 {
		t.Fatalf("tally = %d attempted, %d failed, ratio %v", tl.attempted, tl.failed, tl.failedRatio())
	}
}

func TestBacklogGrew(t *testing.T) {
	steady := []int64{2, 3, 1, 2, 4, 2, 3, 1, 2, 3, 2, 2}
	growing := []int64{1, 2, 3, 5, 8, 12, 18, 25, 33, 42, 52, 63}
	if backlogGrew(steady) {
		t.Error("steady backlog flagged as growing")
	}
	if !backlogGrew(growing) {
		t.Error("growing backlog not flagged")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100},
		{Name: "a", Parent: 1, Start: 10, End: 30},
		{Name: "b", Parent: 1, Start: 20, End: 50}, // overlaps a
		{Name: "c", Parent: 1, Start: 60, End: 70},
		{Name: "c.child", Parent: 4, Start: 62, End: 66},
		{Name: "d", Parent: 1, Start: 95, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10 - 5, 20, 30, 6, 4, 25}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %s: self time %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "job", 0)
	tr.end(id)
	if id != 0 || tr.count() != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}
