package stats

import (
	"math"
	"testing"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Fatalf("bad summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("std %v", s.Std)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty sample not zero")
	}
	one := Summarize([]float64{7})
	if one.Std != 0 || one.Mean != 7 || one.P99 != 7 {
		t.Fatalf("singleton summary %+v", one)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("median %v", q)
	}
	if Quantile(xs, 0) != 0 || Quantile(xs, 1) != 10 {
		t.Fatal("extremes wrong")
	}
	if Quantile(xs, -1) != 0 || Quantile(xs, 2) != 10 {
		t.Fatal("clamping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty quantile must panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestWilsonCI(t *testing.T) {
	lo, hi := WilsonCI(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Fatalf("CI [%v,%v] should straddle 0.5", lo, hi)
	}
	if lo < 0.39 || hi > 0.61 {
		t.Fatalf("CI [%v,%v] too wide for n=100", lo, hi)
	}
	// Extremes stay in [0,1].
	lo, hi = WilsonCI(0, 10)
	if lo != 0 || hi <= 0 {
		t.Fatalf("zero-successes CI [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI(10, 10)
	if hi != 1 || lo >= 1 {
		t.Fatalf("all-successes CI [%v,%v]", lo, hi)
	}
	lo, hi = WilsonCI(0, 0)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty CI [%v,%v]", lo, hi)
	}
	// More trials narrow the interval.
	lo1, hi1 := WilsonCI(5, 10)
	lo2, hi2 := WilsonCI(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("CI did not narrow with more data")
	}
}

func TestMeanMaxInt(t *testing.T) {
	if MaxInt([]int{3, 1, 2}) != 3 || MaxInt(nil) != 0 || MaxInt([]int{-5, -2}) != -2 {
		t.Fatal("MaxInt wrong")
	}
}
