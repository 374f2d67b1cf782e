package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSlowdown(t *testing.T) {
	if !almost(Slowdown(1.0, 0.5), 2.0) {
		t.Fatal("halved IPC should be 2x slowdown")
	}
	if !almost(Slowdown(1.0, 1.0), 1.0) {
		t.Fatal("unchanged IPC should be 1x")
	}
	if !math.IsInf(Slowdown(1, 0), 1) {
		t.Fatal("zero IPC should be infinite slowdown")
	}
	if !math.IsInf(Slowdown(0, 1), 1) {
		t.Fatal("zero alone IPC is degenerate")
	}
}

func TestNormIPC(t *testing.T) {
	if !almost(NormIPC(0.9, 1.0), 0.9) {
		t.Fatal("norm IPC arithmetic")
	}
	if NormIPC(1, 0) != 0 {
		t.Fatal("zero alone IPC should normalise to 0")
	}
}

func TestEFUPaperIdentities(t *testing.T) {
	// No performance loss anywhere: EFU = 1 (paper: "a value of 1 means
	// no performance loss").
	if !almost(EFU([]float64{1, 1, 1, 1}), 1) {
		t.Fatal("perfect co-location should give EFU 1")
	}
	// Harmonic mean: 10 apps at half speed -> 0.5.
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = 0.5
	}
	if !almost(EFU(xs), 0.5) {
		t.Fatal("uniform half speed should give EFU 0.5")
	}
	// Eq. 1 with mixed values: 2 / (1/1 + 1/0.5) = 2/3.
	if !almost(EFU([]float64{1, 0.5}), 2.0/3) {
		t.Fatal("EFU mixed-value identity")
	}
	if EFU(nil) != 0 {
		t.Fatal("empty EFU should be 0")
	}
	if EFU([]float64{0.5, 0}) != 0 {
		t.Fatal("a stalled app should zero the EFU")
	}
}

// Property: EFU lies in (0, 1] for inputs in (0, 1], is symmetric, and is
// dominated by the worst normalised IPC.
func TestPropertyEFU(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 10 {
			raw = raw[:10]
		}
		xs := make([]float64, len(raw))
		lo := 1.0
		for i, r := range raw {
			xs[i] = float64(r%100+1) / 100
			if xs[i] < lo {
				lo = xs[i]
			}
		}
		e := EFU(xs)
		if e <= 0 || e > 1+1e-12 {
			return false
		}
		// Harmonic mean is at most the arithmetic mean and at least min.
		return e >= lo-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSLOAchieved(t *testing.T) {
	if !SLOAchieved(0.9, 1.0, 0.9) {
		t.Fatal("exactly at the SLO should pass (>= in Eq. 5)")
	}
	if SLOAchieved(0.89, 1.0, 0.9) {
		t.Fatal("below the SLO should fail")
	}
	if SLOAchieved(1, 0, 0.9) {
		t.Fatal("degenerate alone IPC should fail")
	}
}

func TestSUCI(t *testing.T) {
	if SUCI(false, 0.9, 1) != 0 {
		t.Fatal("missed SLO must zero SUCI (Eq. 4)")
	}
	if !almost(SUCI(true, 0.8, 1), 0.8) {
		t.Fatal("lambda=1 SUCI should equal EFU")
	}
	if !almost(SUCI(true, 0.64, 0.5), 0.8) {
		t.Fatal("lambda=0.5 SUCI should be sqrt(EFU)")
	}
	if !almost(SUCI(true, 0.8, 2), 0.64) {
		t.Fatal("lambda=2 SUCI should be EFU^2")
	}
	if SUCI(true, -0.5, 1) != 0 {
		t.Fatal("negative EFU clamps to 0")
	}
}

// Property: SUCI in [0,1]; higher lambda penalises low EFU more.
func TestPropertySUCI(t *testing.T) {
	f := func(efuRaw uint8, l1Raw, l2Raw uint8) bool {
		efu := float64(efuRaw%101) / 100
		l1 := float64(l1Raw%40)/10 + 0.1
		l2 := l1 + float64(l2Raw%20)/10 + 0.1
		s1 := SUCI(true, efu, l1)
		s2 := SUCI(true, efu, l2)
		if s1 < 0 || s1 > 1 || s2 < 0 || s2 > 1 {
			return false
		}
		return s2 <= s1+1e-12 // larger lambda never raises SUCI (EFU<=1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMean(t *testing.T) {
	if !almost(GeoMean([]float64{4, 1}), 2) {
		t.Fatal("geomean(4,1) should be 2")
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
	// Zeros are clamped, not annihilating.
	if GeoMean([]float64{0, 1}) <= 0 {
		t.Fatal("zero entry should clamp, not zero the mean")
	}
}

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3}), 2) {
		t.Fatal("mean")
	}
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); !almost(got, tc.want) {
			t.Fatalf("CDF(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
	if len(c.sorted) != 4 {
		t.Fatal("len")
	}
	if got := NewCDF(nil).At(1); got != 0 {
		t.Fatal("empty CDF should be 0 everywhere")
	}
}

func TestQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if got := c.Quantile(0.5); got != 20 {
		t.Fatalf("median = %g, want 20", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("q0 = %g", got)
	}
	if got := c.Quantile(1); got != 40 {
		t.Fatalf("q1 = %g", got)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

// Property: CDF is monotone and bounded, quantile inverts it.
func TestPropertyCDF(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		c := NewCDF(xs)
		prev := 0.0
		for x := -1.0; x <= 256; x += 16 {
			v := c.At(x)
			if v < prev-1e-12 || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		// Quantile consistency: at least q of the mass is <= Quantile(q).
		for _, q := range []float64{0.1, 0.5, 0.9} {
			if c.At(c.Quantile(q)) < q-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEFU(b *testing.B) {
	xs := []float64{0.9, 0.5, 0.6, 0.7, 0.8, 0.4, 0.9, 0.5, 0.6, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EFU(xs)
	}
}
