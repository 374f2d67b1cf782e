package cache

import (
	"testing"
	"testing/quick"

	"dicer/internal/trace"
)

// small returns a small test geometry: 4 sets x 4 ways x 64 B = 1 KiB.
func small(clos int) Config {
	return Config{SizeBytes: 4 * 4 * 64, Ways: 4, LineBytes: 64, Clos: clos}
}

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Run plays an address slice through the cache for clos and returns the
// number of misses.
func (c *Cache) Run(clos int, addrs []uint64) (misses uint64) {
	for _, a := range addrs {
		if !c.Access(clos, a) {
			misses++
		}
	}
	return misses
}

// OccupancyLines returns the number of resident lines charged to clos.
func (c *Cache) OccupancyLines(clos int) int64 { return c.occupancy[clos] }

// TotalOccupancyLines returns the number of valid lines in the cache.
func (c *Cache) TotalOccupancyLines() int64 {
	var t int64
	for _, o := range c.occupancy {
		t += o
	}
	return t
}

// Flush invalidates every line and zeroes occupancy; statistics are kept.
// Real CAT has no flush, but tests need a cold cache.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
	}
	for i := range c.occupancy {
		c.occupancy[i] = 0
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", small(1), true},
		{"non-pow2 line", Config{SizeBytes: 1024, Ways: 4, LineBytes: 48, Clos: 1}, false},
		{"zero ways", Config{SizeBytes: 1024, Ways: 0, LineBytes: 64, Clos: 1}, false},
		{"too many ways", Config{SizeBytes: 65 * 64, Ways: 65, LineBytes: 64, Clos: 1}, false},
		{"zero clos", Config{SizeBytes: 1024, Ways: 4, LineBytes: 64, Clos: 0}, false},
		{"size not multiple", Config{SizeBytes: 1000, Ways: 4, LineBytes: 64, Clos: 1}, false},
		{"non-pow2 sets ok (real LLC slicing)", Config{SizeBytes: 3 * 4 * 64, Ways: 4, LineBytes: 64, Clos: 1}, true},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestSetsComputation(t *testing.T) {
	cfg := Config{SizeBytes: 25 << 20, Ways: 20, LineBytes: 64, Clos: 2}
	if got := cfg.Sets(); got != 20480 {
		t.Fatalf("paper geometry sets = %d, want 20480", got)
	}
}

func TestFullMask(t *testing.T) {
	if got := small(1).FullMask(); got != 0xf {
		t.Fatalf("full mask = %#x, want 0xf", got)
	}
	cfg := Config{SizeBytes: 64 * 64 * 64, Ways: 64, LineBytes: 64, Clos: 1}
	if got := cfg.FullMask(); got != ^uint64(0) {
		t.Fatalf("64-way full mask = %#x", got)
	}
}

func TestCheckMask(t *testing.T) {
	cases := []struct {
		mask uint64
		ways int
		ok   bool
	}{
		{0x1, 4, true},
		{0xf, 4, true},
		{0x6, 4, true},   // contiguous in the middle
		{0x5, 4, false},  // non-contiguous
		{0x0, 4, false},  // empty
		{0x10, 4, false}, // beyond implemented ways
		{0xffffe, 20, true},
		{0xfffff, 20, true},
	}
	for _, tc := range cases {
		err := CheckMask(tc.mask, tc.ways)
		if tc.ok && err != nil {
			t.Errorf("mask %#x/%d ways: unexpected error %v", tc.mask, tc.ways, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("mask %#x/%d ways: expected error", tc.mask, tc.ways)
		}
	}
}

func TestContiguousMask(t *testing.T) {
	if got := ContiguousMask(1, 19); got != 0xffffe {
		t.Fatalf("ContiguousMask(1,19) = %#x, want 0xffffe", got)
	}
	if got := ContiguousMask(0, 1); got != 1 {
		t.Fatalf("ContiguousMask(0,1) = %#x, want 1", got)
	}
	if got := ContiguousMask(3, 0); got != 0 {
		t.Fatalf("ContiguousMask(3,0) = %#x, want 0", got)
	}
}

func TestHitAfterFill(t *testing.T) {
	c := mustNew(t, small(1))
	if c.Access(0, 0) {
		t.Fatal("first access should miss")
	}
	if !c.Access(0, 0) {
		t.Fatal("second access should hit")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustNew(t, small(1))
	sets := 4
	// Fill all 4 ways of set 0 with lines A,B,C,D; then touch A so B is LRU.
	addr := func(i int) uint64 { return uint64(i * sets * 64) } // same set 0
	for i := 0; i < 4; i++ {
		c.Access(0, addr(i))
	}
	c.Access(0, addr(0)) // refresh A
	c.Access(0, addr(4)) // insert E: should evict B (LRU)
	if !c.Access(0, addr(0)) {
		t.Fatal("A should still be resident")
	}
	if c.Access(0, addr(1)) {
		t.Fatal("B should have been evicted as LRU")
	}
}

func TestWayPartitionLimitsVictims(t *testing.T) {
	c := mustNew(t, small(2))
	// CLOS 0 may only fill way 0; CLOS 1 gets ways 1-3.
	if _, err := c.SetMask(0, 0x1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetMask(1, 0xe); err != nil {
		t.Fatal(err)
	}
	// CLOS 0 streams lines through set 0: always evicts its own way.
	for i := 0; i < 8; i++ {
		c.Access(0, uint64(i*4*64))
	}
	if got := c.OccupancyLines(0); got != 1 {
		t.Fatalf("single-way CLOS occupies %d lines, want 1", got)
	}
}

func TestPartitionIsolation(t *testing.T) {
	c := mustNew(t, small(2))
	if _, err := c.SetMask(0, 0x3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetMask(1, 0xc); err != nil {
		t.Fatal(err)
	}
	// Both CLOSes hammer the same sets with disjoint address streams.
	for i := 0; i < 1000; i++ {
		c.Access(0, uint64(i%8)*4*64)
		c.Access(1, uint64(1<<30)+uint64(i)*64)
	}
	if ev := c.Stats(0).EvictedBy; ev != 0 {
		t.Fatalf("CLOS 0 lost %d lines to CLOS 1 despite disjoint masks", ev)
	}
	if ev := c.Stats(1).EvictedBy; ev != 0 {
		t.Fatalf("CLOS 1 lost %d lines to CLOS 0 despite disjoint masks", ev)
	}
}

func TestCrossClosHitsVisible(t *testing.T) {
	// CAT restricts allocation, not lookup: CLOS 1 hits on a line CLOS 0
	// filled.
	c := mustNew(t, small(2))
	c.Access(0, 0)
	if !c.Access(1, 0) {
		t.Fatal("CLOS 1 should hit on CLOS 0's line")
	}
}

func TestMaskChangePreservesContents(t *testing.T) {
	c := mustNew(t, small(1))
	c.Access(0, 0)                               // fill way under full mask
	if _, err := c.SetMask(0, 0x8); err != nil { // shrink to way 3 only
		t.Fatal(err)
	}
	if !c.Access(0, 0) {
		t.Fatal("resident line must survive a mask change (paper §3.3)")
	}
}

func TestOccupancyAccounting(t *testing.T) {
	c := mustNew(t, small(2))
	if _, err := c.SetMask(0, 0x3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Access(0, uint64(i)*64)
	}
	// 4 sets x 2 permitted ways = at most 8 lines.
	if got := c.OccupancyLines(0); got != 8 {
		t.Fatalf("occupancy %d lines, want 8 (4 sets x 2 ways)", got)
	}
}

func TestOccupancyTransfersOnRefill(t *testing.T) {
	c := mustNew(t, small(2))
	// Overlapping masks: both CLOSes can fill everything.
	c.Access(0, 0)
	if got := c.OccupancyLines(0); got != 1 {
		t.Fatalf("clos0 occupancy %d, want 1", got)
	}
	// CLOS 1 streams enough lines through set 0 to evict CLOS 0's line.
	for i := 1; i <= 4; i++ {
		c.Access(1, uint64(i*4*64))
	}
	if got := c.OccupancyLines(0); got != 0 {
		t.Fatalf("clos0 occupancy %d after eviction, want 0", got)
	}
	if got := c.OccupancyLines(1); got != 4 {
		t.Fatalf("clos1 occupancy %d, want 4", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := mustNew(t, small(1))
	c.Access(0, 0)
	c.Access(0, 0)
	c.Access(0, 64)
	st := c.Stats(0)
	if st.Accesses != 3 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 3 accesses / 2 misses", st)
	}
	if got := st.MissRatio(); got < 0.66 || got > 0.67 {
		t.Fatalf("miss ratio %.3f, want 2/3", got)
	}
	c.ResetStats()
	if c.Stats(0).Accesses != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
	if !c.Access(0, 0) {
		t.Fatal("ResetStats must not flush contents")
	}
}

func TestFlush(t *testing.T) {
	c := mustNew(t, small(1))
	c.Access(0, 0)
	c.Flush()
	if c.TotalOccupancyLines() != 0 {
		t.Fatal("flush left lines resident")
	}
	if c.Access(0, 0) {
		t.Fatal("access after flush should miss")
	}
}

func TestSetMaskErrors(t *testing.T) {
	c := mustNew(t, small(1))
	if _, err := c.SetMask(5, 1); err == nil {
		t.Fatal("expected error for out-of-range clos")
	}
	if _, err := c.SetMask(0, 0); err == nil {
		t.Fatal("expected error for empty mask")
	}
	if _, err := c.SetMask(0, 0x5); err == nil {
		t.Fatal("expected error for non-contiguous mask")
	}
	prev, err := c.SetMask(0, 0x3)
	if err != nil {
		t.Fatal(err)
	}
	if prev != 0xf {
		t.Fatalf("previous mask = %#x, want 0xf", prev)
	}
}

func TestRunCountsMisses(t *testing.T) {
	c := mustNew(t, small(1))
	addrs := []uint64{0, 64, 0, 64, 128}
	if got := c.Run(0, addrs); got != 3 {
		t.Fatalf("Run misses = %d, want 3", got)
	}
}

// Property: a loop whose working set fits in the allowed ways has zero
// steady-state misses; one that exceeds the full cache capacity in a
// single set-conflicting pattern always misses.
func TestPropertyLoopFitsMeansHits(t *testing.T) {
	f := func(waysRaw uint8) bool {
		ways := int(waysRaw%4) + 1
		cfg := small(1)
		c, err := New(cfg)
		if err != nil {
			return false
		}
		if _, err := c.SetMask(0, ContiguousMask(0, ways)); err != nil {
			return false
		}
		// Working set: exactly `ways` lines per set over all 4 sets.
		lines := 4 * ways
		gen, err := trace.NewLoop(0, uint64(lines*64))
		if err != nil {
			return false
		}
		// Warm up one pass, then measure a pass: all hits expected.
		for i := 0; i < lines; i++ {
			c.Access(0, gen.Next())
		}
		c.ResetStats()
		for i := 0; i < lines; i++ {
			c.Access(0, gen.Next())
		}
		return c.Stats(0).Misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: with disjoint masks, EvictedBy stays zero for arbitrary
// interleaved access patterns (partition isolation).
func TestPropertyPartitionIsolation(t *testing.T) {
	f := func(seed uint64, split uint8) bool {
		s := int(split%3) + 1 // clos0 gets ways [0,s), clos1 gets [s,4)
		c, err := New(small(2))
		if err != nil {
			return false
		}
		if _, err := c.SetMask(0, ContiguousMask(0, s)); err != nil {
			return false
		}
		if _, err := c.SetMask(1, ContiguousMask(s, 4-s)); err != nil {
			return false
		}
		z0, err := trace.NewZipf(0, 1<<16, 0.5, seed)
		if err != nil {
			return false
		}
		z1, err := trace.NewZipf(1<<30, 1<<16, 1.2, seed+1)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			c.Access(0, z0.Next())
			c.Access(1, z1.Next())
		}
		return c.Stats(0).EvictedBy == 0 && c.Stats(1).EvictedBy == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: total occupancy never exceeds capacity, and per-CLOS occupancy
// never exceeds its reachable ways (when masks are disjoint).
func TestPropertyOccupancyBounds(t *testing.T) {
	f := func(seed uint64) bool {
		c, err := New(small(2))
		if err != nil {
			return false
		}
		if _, err := c.SetMask(0, 0x3); err != nil {
			return false
		}
		if _, err := c.SetMask(1, 0xc); err != nil {
			return false
		}
		z, err := trace.NewZipf(0, 1<<18, 0.9, seed)
		if err != nil {
			return false
		}
		for i := 0; i < 3000; i++ {
			c.Access(int(z.Next()>>6)%2, z.Next())
			if c.TotalOccupancyLines() > 16 {
				return false
			}
			if c.OccupancyLines(0) > 8 || c.OccupancyLines(1) > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPaperGeometry(t *testing.T) {
	// The paper's 25 MB 20-way LLC with 2 CLOS builds and works.
	cfg := Config{SizeBytes: 25 << 20, Ways: 20, LineBytes: 64, Clos: 2}
	c := mustNew(t, cfg)
	if _, err := c.SetMask(0, ContiguousMask(1, 19)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SetMask(1, ContiguousMask(0, 1)); err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewLoop(0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if misses := c.Run(0, trace.Collect(gen, 100000)); misses == 0 {
		t.Fatal("cold cache cannot have zero misses")
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c, _ := New(Config{SizeBytes: 25 << 20, Ways: 20, LineBytes: 64, Clos: 2})
	c.Access(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, 0)
	}
}

func BenchmarkAccessStream(b *testing.B) {
	c, _ := New(Config{SizeBytes: 25 << 20, Ways: 20, LineBytes: 64, Clos: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0, uint64(i)*64)
	}
}
