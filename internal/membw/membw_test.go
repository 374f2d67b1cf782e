package membw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultLinkValid(t *testing.T) {
	if err := DefaultLink().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadLinks(t *testing.T) {
	cases := []Link{
		{CapacityGBps: 0, Knee: 0.5, Gamma: 1, MaxInflation: 2},
		{CapacityGBps: 10, Knee: 0, Gamma: 1, MaxInflation: 2},
		{CapacityGBps: 10, Knee: 1, Gamma: 1, MaxInflation: 2},
		{CapacityGBps: 10, Knee: 0.5, Gamma: -1, MaxInflation: 2},
		{CapacityGBps: 10, Knee: 0.5, Gamma: 1, MaxInflation: 0.5},
	}
	for i, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, l)
		}
	}
}

func TestInflationBelowKneeIsUnity(t *testing.T) {
	l := DefaultLink()
	for _, u := range []float64{0, 0.1, 0.3, l.Knee} {
		if got := l.Inflation(u); got != 1 {
			t.Fatalf("inflation(%g) = %g, want 1", u, got)
		}
	}
}

func TestInflationGrowsPastKnee(t *testing.T) {
	l := DefaultLink()
	prev := 1.0
	for u := l.Knee; u <= 1.5; u += 0.05 {
		f := l.Inflation(u)
		if f < prev {
			t.Fatalf("inflation fell at u=%g: %g < %g", u, f, prev)
		}
		prev = f
	}
	if prev <= 1 {
		t.Fatal("inflation never grew past the knee")
	}
}

func TestInflationCapped(t *testing.T) {
	l := DefaultLink()
	if got := l.Inflation(100); got != l.MaxInflation {
		t.Fatalf("inflation(100) = %g, want cap %g", got, l.MaxInflation)
	}
}

func TestSolveBelowKnee(t *testing.T) {
	l := DefaultLink()
	u, f := l.Solve(func(float64) float64 { return 10 })
	if f != 1 {
		t.Fatalf("light load inflation = %g, want 1", f)
	}
	if math.Abs(u-10/l.CapacityGBps) > 1e-9 {
		t.Fatalf("light load utilisation = %g", u)
	}
}

func TestSolveFixedPointConsistency(t *testing.T) {
	l := DefaultLink()
	// Elastic demand: halves as latency doubles.
	demand := func(f float64) float64 { return 120 / f }
	u, f := l.Solve(demand)
	// At the solution, demand at the solved inflation must reproduce the
	// solved utilisation.
	if got := demand(f) / l.CapacityGBps; math.Abs(got-u) > 1e-3 {
		t.Fatalf("fixed point inconsistent: u=%g but demand(f)/cap=%g", u, got)
	}
	if f <= 1 {
		t.Fatal("oversubscribed link should inflate latency")
	}
}

func TestSolveInelasticDemand(t *testing.T) {
	l := DefaultLink()
	u, f := l.Solve(func(float64) float64 { return 200 })
	if math.Abs(u-200/l.CapacityGBps) > 1e-9 {
		t.Fatalf("inelastic utilisation = %g", u)
	}
	if f != l.MaxInflation {
		t.Fatalf("hugely oversubscribed inelastic load inflation = %g, want cap", f)
	}
}

// Property: for any non-increasing demand curve, Solve returns a
// self-consistent (u, f) with f = Inflation(u).
func TestPropertySolveSelfConsistent(t *testing.T) {
	f := func(d0raw, elastRaw uint8) bool {
		l := DefaultLink()
		d0 := float64(d0raw%150) + 1
		elast := float64(elastRaw%100)/100 + 0.01
		demand := func(infl float64) float64 { return d0 / math.Pow(infl, elast) }
		u, infl := l.Solve(demand)
		if math.Abs(infl-l.Inflation(u)) > 1e-6 {
			return false
		}
		// Residual of the fixed point should be tiny (or we're at a
		// bracket endpoint below knee / at cap).
		res := math.Abs(demand(infl)/l.CapacityGBps - u)
		return res < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesGbpsConversions(t *testing.T) {
	// 1 GB over 1 s = 8 Gb/s.
	if got := BytesToGbps(1e9, 1); math.Abs(got-8) > 1e-12 {
		t.Fatalf("BytesToGbps(1e9,1) = %g, want 8", got)
	}
	if got := BytesToGbps(1e9, 0); got != 0 {
		t.Fatalf("zero-interval bandwidth = %g, want 0", got)
	}
}

func BenchmarkSolve(b *testing.B) {
	l := DefaultLink()
	demand := func(f float64) float64 { return 120 / f }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Solve(demand)
	}
}
