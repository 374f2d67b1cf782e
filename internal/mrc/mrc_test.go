package mrc

import (
	"math"
	"testing"
	"testing/quick"

	"dicer/internal/cache"
	"dicer/internal/trace"
)

const mb = float64(1 << 20)

func TestNewCurveValidation(t *testing.T) {
	if _, err := NewCurve(-0.1); err == nil {
		t.Fatal("expected error for negative stream fraction")
	}
	if _, err := NewCurve(1.1); err == nil {
		t.Fatal("expected error for stream fraction > 1")
	}
	if _, err := NewCurve(0.5, Component{Bytes: -1, Frac: 0.1}); err == nil {
		t.Fatal("expected error for negative component size")
	}
	if _, err := NewCurve(0.5, Component{Bytes: mb, Frac: -0.1}); err == nil {
		t.Fatal("expected error for negative component fraction")
	}
	if _, err := NewCurve(0.7, Component{Bytes: mb, Frac: 0.5}); err == nil {
		t.Fatal("expected error for fractions summing above 1")
	}
	if _, err := NewCurve(0.5, Component{Bytes: mb, Frac: 0.3}); err != nil {
		t.Fatalf("valid curve rejected: %v", err)
	}
}

func TestZeroCurveNeverMisses(t *testing.T) {
	var c Curve
	if got := c.MissRatio(0); got != 0 {
		t.Fatalf("zero curve miss ratio = %g, want 0", got)
	}
}

func TestMissRatioEndpoints(t *testing.T) {
	c := MustCurve(0.2, Component{Bytes: 2 * mb, Frac: 0.5})
	// No cache: stream + entire component miss.
	if got := c.MissRatio(0); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("miss at 0 = %g, want 0.7", got)
	}
	// Full coverage: only the stream misses.
	if got := c.MissRatio(2 * mb); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("miss at footprint = %g, want 0.2", got)
	}
	// Beyond footprint: unchanged.
	if got := c.MissRatio(10 * mb); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("miss beyond footprint = %g, want 0.2", got)
	}
	// Negative capacity clamps to zero.
	if got := c.MissRatio(-5); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("miss at negative capacity = %g, want 0.7", got)
	}
}

func TestConvexKnee(t *testing.T) {
	// Just below full coverage, the convex model must miss noticeably more
	// than the linear model would — the knee DICER's reset relies on.
	c := MustCurve(0, Component{Bytes: 8 * mb, Frac: 1})
	cov := 0.875
	got := c.MissRatio(cov * 8 * mb)
	linear := 1 - cov
	if got <= linear {
		t.Fatalf("miss at %.0f%% coverage = %.4f, want > linear %.4f", cov*100, got, linear)
	}
}

func TestHotterComponentClaimsCacheFirst(t *testing.T) {
	// Hot: 1 MB with 50% of accesses; cold: 8 MB with 10%.
	c := MustCurve(0, Component{Bytes: mb, Frac: 0.5}, Component{Bytes: 8 * mb, Frac: 0.1})
	// With exactly 1 MB, the hot set is fully resident: only cold misses.
	got := c.MissRatio(mb)
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("miss with hot set resident = %g, want 0.1", got)
	}
}

func TestFootprintAndStreamFraction(t *testing.T) {
	c := MustCurve(0.25, Component{Bytes: mb, Frac: 0.3}, Component{Bytes: 3 * mb, Frac: 0.2})
	if got := c.Footprint(); got != 4*mb {
		t.Fatalf("footprint = %g, want %g", got, 4*mb)
	}
	if got := c.StreamFraction(); got != 0.25 {
		t.Fatalf("stream fraction = %g, want 0.25", got)
	}
}

func TestComponentsSortedHottestFirst(t *testing.T) {
	c := MustCurve(0,
		Component{Bytes: 8 * mb, Frac: 0.1},
		Component{Bytes: mb, Frac: 0.5})
	comps := c.comps
	if len(comps) != 2 || comps[0].Bytes != mb {
		t.Fatalf("components not sorted hottest-first: %+v", comps)
	}
}

func TestOccupancyDemand(t *testing.T) {
	c := MustCurve(0, Component{Bytes: 2 * mb, Frac: 0.5})
	if got := c.OccupancyDemand(mb); got != mb {
		t.Fatalf("occupancy at 1MB = %g, want 1MB", got)
	}
	// Bounded app: demand caps at footprint.
	if got := c.OccupancyDemand(10 * mb); got != 2*mb {
		t.Fatalf("occupancy at 10MB = %g, want footprint 2MB", got)
	}
	// Streaming app: churn claims everything offered.
	s := MustCurve(0.5, Component{Bytes: 2 * mb, Frac: 0.3})
	if got := s.OccupancyDemand(10 * mb); got != 10*mb {
		t.Fatalf("streaming occupancy at 10MB = %g, want 10MB", got)
	}
}

func TestWaysToBytes(t *testing.T) {
	if got := WaysToBytes(2, 25<<20, 20); got != 2.5*mb {
		t.Fatalf("2 ways of 25MB/20 = %g, want 2.5MB", got)
	}
}

// Property: MissRatio is non-increasing in capacity and stays within
// [stream, stream+Σfrac] for arbitrary mixtures.
func TestPropertyMissRatioMonotone(t *testing.T) {
	f := func(s1, s2, f1raw, f2raw, streamRaw uint8) bool {
		stream := float64(streamRaw%40) / 100
		fr1 := float64(f1raw%30) / 100
		fr2 := float64(f2raw%30) / 100
		c, err := NewCurve(stream,
			Component{Bytes: float64(s1%64+1) * mb / 4, Frac: fr1},
			Component{Bytes: float64(s2%64+1) * mb / 4, Frac: fr2})
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for cap := 0.0; cap <= 20*mb; cap += mb / 2 {
			m := c.MissRatio(cap)
			if m > prev+1e-12 {
				return false // not monotone
			}
			if m < stream-1e-12 || m > stream+fr1+fr2+1e-12 {
				return false // out of bounds
			}
			prev = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: OccupancyDemand never exceeds the offered capacity and is
// non-decreasing in it.
func TestPropertyOccupancyDemand(t *testing.T) {
	f := func(sizeRaw, fracRaw, streamRaw uint8) bool {
		stream := float64(streamRaw%50) / 100
		c, err := NewCurve(stream,
			Component{Bytes: float64(sizeRaw%32+1) * mb / 2, Frac: float64(fracRaw%50) / 100})
		if err != nil {
			return false
		}
		prev := 0.0
		for cap := 0.0; cap <= 30*mb; cap += mb {
			o := c.OccupancyDemand(cap)
			if o > cap+1e-9 || o < prev-1e-9 {
				return false
			}
			prev = o
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// cacheCfg is a small geometry for empirical-curve validation: 64 sets x 8
// ways x 64 B = 32 KiB.
var cacheCfg = cache.Config{SizeBytes: 64 * 8 * 64, Ways: 8, LineBytes: 64, Clos: 1}

func TestEmpiricalLoopCliff(t *testing.T) {
	// A loop over half the cache: once the allocation covers the working
	// set, misses vanish; below that, LRU thrashes and misses everything.
	ws := uint64(cacheCfg.SizeBytes / 2)
	gen, err := trace.NewLoop(0, ws)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := Empirical(cacheCfg, gen, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if got := curve[7]; got != 0 {
		t.Fatalf("full-cache loop miss ratio = %g, want 0", got)
	}
	if got := curve[3]; got != 0 { // 4 ways = exactly the working set
		t.Fatalf("exact-fit loop miss ratio = %g, want 0", got)
	}
	if got := curve[2]; got < 0.9 { // 3 ways: LRU loop thrashing
		t.Fatalf("under-fit loop miss ratio = %g, want ~1 (LRU thrash)", got)
	}
}

func TestEmpiricalStreamAlwaysMisses(t *testing.T) {
	curve, err := Empirical(cacheCfg, trace.NewStream(0), 20000)
	if err != nil {
		t.Fatal(err)
	}
	for w, m := range curve {
		if m < 0.999 {
			t.Fatalf("stream at %d ways missed only %.3f of accesses", w+1, m)
		}
	}
}

func TestEmpiricalMonotoneForZipf(t *testing.T) {
	gen, err := trace.NewZipf(0, uint64(cacheCfg.SizeBytes*2), 0.9, 42)
	if err != nil {
		t.Fatal(err)
	}
	curve, err := Empirical(cacheCfg, gen, 40000)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w < len(curve); w++ {
		// Allow small non-monotonic jitter from finite sampling.
		if curve[w] > curve[w-1]+0.03 {
			t.Fatalf("empirical zipf curve rose at %d ways: %.3f -> %.3f",
				w+1, curve[w-1], curve[w])
		}
	}
	if curve[0] <= curve[len(curve)-1] {
		t.Fatal("zipf curve should fall with more ways")
	}
}

func TestEmpiricalMatchesAnalyticShape(t *testing.T) {
	// Mixture: a hot loop that fits in 2 ways plus a stream. The analytic
	// model should agree with the measured curve on both plateaus.
	hot := uint64(2 * cacheCfg.SizeBytes / 8)
	loop, err := trace.NewLoop(0, hot)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := trace.NewMix(1,
		trace.Component{Gen: loop, Weight: 0.7},
		trace.Component{Gen: trace.NewStream(1 << 40), Weight: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := Empirical(cacheCfg, mix, 60000)
	if err != nil {
		t.Fatal(err)
	}
	analytic := MustCurve(0.3, Component{Bytes: float64(hot), Frac: 0.7})
	// At full allocation both should be ~0.3 (stream only).
	wayBytes := float64(cacheCfg.SizeBytes) / 8
	if got, want := measured[7], analytic.MissRatio(8*wayBytes); math.Abs(got-want) > 0.08 {
		t.Fatalf("full-cache: measured %.3f vs analytic %.3f", got, want)
	}
	// At 1 way (hot set does not fit) both should be high.
	if measured[0] < 0.8 {
		t.Fatalf("1-way measured miss %.3f, want >= 0.8", measured[0])
	}
	if a := analytic.MissRatio(wayBytes); a < 0.4 {
		t.Fatalf("1-way analytic miss %.3f, want >= 0.4", a)
	}
}

func TestEmpiricalErrors(t *testing.T) {
	gen := trace.NewStream(0)
	if _, err := Empirical(cacheCfg, gen, 0); err == nil {
		t.Fatal("expected error for zero accesses")
	}
	bad := cacheCfg
	bad.LineBytes = 33
	if _, err := Empirical(bad, gen, 100); err == nil {
		t.Fatal("expected error for invalid geometry")
	}
}

func BenchmarkMissRatio(b *testing.B) {
	c := MustCurve(0.2,
		Component{Bytes: mb, Frac: 0.4},
		Component{Bytes: 6 * mb, Frac: 0.2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MissRatio(float64(i%20) * mb)
	}
}
