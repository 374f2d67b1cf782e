package hypo

import (
	"math"
	"math/rand"
	"testing"

	"dicer/internal/metrics"
)

func TestMeanStdDev(t *testing.T) {
	if m := metrics.Mean(nil); m != 0 {
		t.Fatalf("metrics.Mean(nil) = %g, want 0", m)
	}
	if sd := StdDev([]float64{3}); sd != 0 {
		t.Fatalf("StdDev of one value = %g, want 0", sd)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := metrics.Mean(xs); m != 5 {
		t.Fatalf("Mean = %g, want 5", m)
	}
	// Sample stddev with n-1: sum of squares 32, /7, sqrt.
	want := math.Sqrt(32.0 / 7.0)
	if sd := StdDev(xs); math.Abs(sd-want) > 1e-12 {
		t.Fatalf("StdDev = %g, want %g", sd, want)
	}
}

func TestPairedDiffs(t *testing.T) {
	d := PairedDiffs([]float64{3, 5, 7}, []float64{1, 1, 10})
	want := []float64{2, 4, -3}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("diffs = %v, want %v", d, want)
		}
	}
}

func TestCohenD(t *testing.T) {
	if d := CohenD([]float64{1, 1, 1}); !math.IsInf(d, 1) {
		t.Fatalf("zero-variance positive diffs: d = %g, want +Inf", d)
	}
	if d := CohenD([]float64{-2, -2}); !math.IsInf(d, -1) {
		t.Fatalf("zero-variance negative diffs: d = %g, want -Inf", d)
	}
	if d := CohenD([]float64{0, 0}); d != 0 {
		t.Fatalf("all-zero diffs: d = %g, want 0", d)
	}
	xs := []float64{1, 2, 3}
	if d := CohenD(xs); math.Abs(d-2) > 1e-12 {
		t.Fatalf("d = %g, want 2 (mean 2, sd 1)", d)
	}
}

// TestTQuantileKnownValues pins the t inverse-CDF against standard table
// values for the two-sided 95% critical points (p = 0.975).
func TestTQuantileKnownValues(t *testing.T) {
	cases := []struct {
		nu   float64
		want float64
	}{
		{1, 12.7062},
		{2, 4.3027},
		{4, 2.7764},
		{9, 2.2622},
		{29, 2.0452},
		{100, 1.9840},
	}
	for _, c := range cases {
		got := TQuantile(0.975, c.nu)
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("TQuantile(0.975, %g) = %.4f, want %.4f", c.nu, got, c.want)
		}
		// Symmetry: the lower tail is the negation.
		if lo := TQuantile(0.025, c.nu); math.Abs(lo+got) > 1e-9 {
			t.Errorf("TQuantile(0.025, %g) = %.4f, want %.4f", c.nu, lo, -got)
		}
	}
	if q := TQuantile(0.5, 7); q != 0 {
		t.Errorf("median quantile = %g, want 0", q)
	}
}

// TestTCDFRoundTrip checks quantile∘cdf ≈ identity across the range the
// judge actually uses.
func TestTCDFRoundTrip(t *testing.T) {
	for _, nu := range []float64{1, 2, 4, 9, 30} {
		for _, p := range []float64{0.025, 0.1, 0.5, 0.9, 0.975, 0.995} {
			q := TQuantile(p, nu)
			if back := tCDF(q, nu); math.Abs(back-p) > 1e-9 {
				t.Errorf("tCDF(TQuantile(%g, %g)) = %g", p, nu, back)
			}
		}
	}
}

// TestTIntervalCoverage draws many small Gaussian samples and checks the
// 95% t-interval covers the true mean at roughly the nominal rate. The
// generator is seeded, so the observed coverage is deterministic.
func TestTIntervalCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const (
		trials = 2000
		mu     = 1.0
		sigma  = 0.5
		n      = 5
	)
	covered := 0
	for i := 0; i < trials; i++ {
		xs := make([]float64, n)
		for j := range xs {
			xs[j] = mu + sigma*rng.NormFloat64()
		}
		lo, hi := TInterval(xs, 0.95)
		if lo <= mu && mu <= hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.93 || rate > 0.97 {
		t.Fatalf("95%% interval covered the true mean in %.1f%% of %d trials", rate*100, trials)
	}
}

func TestTIntervalDegenerate(t *testing.T) {
	if lo, hi := TInterval([]float64{3}, 0.95); lo != 3 || hi != 3 {
		t.Fatalf("single value interval = [%g, %g], want point", lo, hi)
	}
	if lo, hi := TInterval([]float64{2, 2, 2}, 0.95); lo != 2 || hi != 2 {
		t.Fatalf("zero-variance interval = [%g, %g], want point", lo, hi)
	}
}

// TestJudgeShouldConfirm: diffs clearly on the claimed side with margin.
func TestJudgeShouldConfirm(t *testing.T) {
	diffs := []float64{0.9, 1.1, 1.0, 1.05, 0.95}
	v := Judge(diffs, Greater, 0.5, 0.95)
	if v.Status != Confirmed {
		t.Fatalf("status = %s (%s), want Confirmed", v.Status, v.Reason)
	}
	if v.CILo <= 0.5 {
		t.Fatalf("CI lo = %g, expected clear of the min effect", v.CILo)
	}
	// The same evidence under the opposite direction must refute.
	if v := Judge(diffs, Less, 0.5, 0.95); v.Status != Refuted {
		t.Fatalf("opposite direction: status = %s, want Refuted", v.Status)
	}
}

// TestJudgeShouldRefute: the oriented CI sits entirely short of the
// required effect.
func TestJudgeShouldRefute(t *testing.T) {
	diffs := []float64{-0.9, -1.1, -1.0, -1.05, -0.95}
	v := Judge(diffs, Greater, 0.1, 0.95)
	if v.Status != Refuted {
		t.Fatalf("status = %s (%s), want Refuted", v.Status, v.Reason)
	}
	// A positive but too-small effect is also refutable when the CI
	// excludes the threshold.
	small := []float64{0.010, 0.012, 0.011, 0.009, 0.010}
	v = Judge(small, Greater, 0.5, 0.95)
	if v.Status != Refuted {
		t.Fatalf("small-effect status = %s (%s), want Refuted", v.Status, v.Reason)
	}
}

func TestJudgeInconclusive(t *testing.T) {
	diffs := []float64{-1, 1, -0.5, 0.5, 0.2}
	if v := Judge(diffs, Greater, 0.1, 0.95); v.Status != Inconclusive {
		t.Fatalf("straddling CI: status = %s, want Inconclusive", v.Status)
	}
}

// TestJudgeSingleReplicateNeverDefinitive: n = 1 has no variance
// estimate, so no verdict.
func TestJudgeSingleReplicateNeverDefinitive(t *testing.T) {
	if v := Judge([]float64{5}, Greater, 0.1, 0.95); v.Status != Inconclusive {
		t.Fatalf("n=1 status = %s, want Inconclusive", v.Status)
	}
	if v := Judge(nil, Greater, 0.1, 0.95); v.Status != Inconclusive {
		t.Fatalf("n=0 status = %s, want Inconclusive", v.Status)
	}
}

// TestJudgeZeroVariance: identical diffs collapse the interval to the
// point mean, which is still definitive evidence on its side.
func TestJudgeZeroVariance(t *testing.T) {
	diffs := []float64{0.25, 0.25, 0.25}
	if v := Judge(diffs, Greater, 0.1, 0.95); v.Status != Confirmed {
		t.Fatalf("zero-variance confirm: %s", v.Status)
	}
	if v := Judge(diffs, Less, 0.1, 0.95); v.Status != Refuted {
		t.Fatalf("zero-variance refute: %s", v.Status)
	}
}
