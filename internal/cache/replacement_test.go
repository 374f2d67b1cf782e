package cache

import (
	"testing"
	"testing/quick"

	"dicer/internal/trace"
)

func TestParseReplacement(t *testing.T) {
	cases := map[string]Replacement{
		"lru": LRU, "LRU": LRU,
		"nru": NRU, "NRU": NRU,
		"random": Random, "rand": Random,
	}
	for s, want := range cases {
		got, err := ParseReplacement(s)
		if err != nil || got != want {
			t.Errorf("ParseReplacement(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseReplacement("mru"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestReplacementString(t *testing.T) {
	if LRU.String() != "LRU" || NRU.String() != "NRU" || Random.String() != "Random" {
		t.Fatal("String names")
	}
	if Replacement(9).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}

func TestSetReplacementValidation(t *testing.T) {
	c := mustNew(t, small(1))
	if err := c.SetReplacement(NRU); err != nil {
		t.Fatal(err)
	}
	if c.repl != NRU {
		t.Fatal("readback")
	}
	if err := c.SetReplacement(Replacement(42)); err == nil {
		t.Fatal("expected error")
	}
}

func TestNRURetainsHotLine(t *testing.T) {
	c := mustNew(t, small(1))
	if err := c.SetReplacement(NRU); err != nil {
		t.Fatal(err)
	}
	hot := uint64(0)
	// Interleave a hot line with a stream through the same set: the hot
	// line's reference bit keeps it resident most of the time.
	hits := 0
	for i := 1; i <= 400; i++ {
		c.Access(0, uint64(i*4*64)) // streaming through set 0
		if c.Access(0, hot) {
			hits++
		}
	}
	if hits < 200 {
		t.Fatalf("NRU kept the hot line for only %d/400 touches", hits)
	}
}

func TestRandomDeterministicWithSeed(t *testing.T) {
	run := func(seed uint64) uint64 {
		c := mustNew(t, small(1))
		if err := c.SetReplacement(Random); err != nil {
			t.Fatal(err)
		}
		c.rngState = seed
		z, err := trace.NewZipf(0, 1<<16, 0.8, 9)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(0, trace.Collect(z, 5000))
		return c.Stats(0).Misses
	}
	if run(7) != run(7) {
		t.Fatal("random replacement not reproducible with equal seeds")
	}
}

func TestStreamMissesUnderAllPolicies(t *testing.T) {
	for _, r := range []Replacement{LRU, NRU, Random} {
		c := mustNew(t, small(1))
		if err := c.SetReplacement(r); err != nil {
			t.Fatal(err)
		}
		misses := c.Run(0, trace.Collect(trace.NewStream(0), 2000))
		if misses != 2000 {
			t.Fatalf("%v: stream had %d/2000 misses", r, misses)
		}
	}
}

func TestRandomSmoothsTheLoopCliff(t *testing.T) {
	// A loop slightly larger than the cache thrashes completely under LRU
	// (0% hits) but gets a hit fraction under random replacement — the
	// classic LRU-vs-random crossover. This is why the analytic model's
	// convex (not cliff) curves are a reasonable middle ground.
	loopBytes := uint64(small(1).SizeBytes * 5 / 4)
	missUnder := func(r Replacement) float64 {
		c := mustNew(t, small(1))
		if err := c.SetReplacement(r); err != nil {
			t.Fatal(err)
		}
		gen, err := trace.NewLoop(0, loopBytes)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up one pass, then measure several.
		lines := int(loopBytes / 64)
		for i := 0; i < lines; i++ {
			c.Access(0, gen.Next())
		}
		c.ResetStats()
		for i := 0; i < 4*lines; i++ {
			c.Access(0, gen.Next())
		}
		return c.Stats(0).MissRatio()
	}
	lru := missUnder(LRU)
	rnd := missUnder(Random)
	if lru < 0.99 {
		t.Fatalf("LRU on an oversized loop should thrash: miss %.3f", lru)
	}
	if rnd > 0.9*lru {
		t.Fatalf("random replacement should beat LRU on an oversized loop: %.3f vs %.3f", rnd, lru)
	}
}

// Property: partition isolation holds under every replacement policy.
func TestPropertyIsolationAllPolicies(t *testing.T) {
	f := func(seed uint64, policyRaw uint8) bool {
		r := Replacement(policyRaw % 3)
		c, err := New(small(2))
		if err != nil {
			return false
		}
		if err := c.SetReplacement(r); err != nil {
			return false
		}
		if _, err := c.SetMask(0, 0x3); err != nil {
			return false
		}
		if _, err := c.SetMask(1, 0xc); err != nil {
			return false
		}
		z0, err := trace.NewZipf(0, 1<<15, 0.7, seed)
		if err != nil {
			return false
		}
		z1, err := trace.NewZipf(1<<30, 1<<15, 1.1, seed+1)
		if err != nil {
			return false
		}
		for i := 0; i < 1500; i++ {
			c.Access(0, z0.Next())
			c.Access(1, z1.Next())
		}
		return c.Stats(0).EvictedBy == 0 && c.Stats(1).EvictedBy == 0 &&
			c.OccupancyLines(0) <= 8 && c.OccupancyLines(1) <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: all three policies agree (within tolerance) on zipf miss
// ratios — the shapes the analytic model encodes are replacement-robust.
func TestPropertyPoliciesAgreeOnZipf(t *testing.T) {
	f := func(seed uint64) bool {
		miss := func(r Replacement) float64 {
			c, err := New(small(1))
			if err != nil {
				return -1
			}
			if err := c.SetReplacement(r); err != nil {
				return -1
			}
			z, err := trace.NewZipf(0, 1<<15, 1.0, seed)
			if err != nil {
				return -1
			}
			addrs := trace.Collect(z, 6000)
			c.Run(0, addrs[:2000]) // warm up
			c.ResetStats()
			c.Run(0, addrs[2000:])
			return c.Stats(0).MissRatio()
		}
		lru, nru, rnd := miss(LRU), miss(NRU), miss(Random)
		if lru < 0 || nru < 0 || rnd < 0 {
			return false
		}
		near := func(a, b float64) bool { d := a - b; return d < 0.12 && d > -0.12 }
		return near(lru, nru) && near(lru, rnd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
