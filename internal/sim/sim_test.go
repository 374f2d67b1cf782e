package sim

import (
	"math"
	"testing"
	"testing/quick"

	"dicer/internal/app"
	"dicer/internal/cache"
	"dicer/internal/machine"
	"dicer/internal/mrc"
)

func testMachine() machine.Machine { return machine.Default() }

// Inflation returns the memory-latency inflation factor of the last Step.
func (r *Runner) Inflation() float64 { return r.lastInflation }

// Utilisation returns the memory-link utilisation of the last Step.
func (r *Runner) Utilisation() float64 { return r.lastUtil }

// IPC returns cumulative instructions per cycle.
func (c CoreCounters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return c.Instructions / c.Cycles
}

// mkApp builds a single-phase profile for simulator tests.
func mkApp(name string, cpi, apki, stream float64, wsMB, frac float64) app.Profile {
	var comps []mrc.Component
	if wsMB > 0 {
		comps = append(comps, mrc.Component{Bytes: wsMB * app.MB, Frac: frac})
	}
	return app.Profile{Name: name, Suite: "test", Class: app.ClassMixed,
		Phases: []app.Phase{{
			Name: "p", Instructions: 1e12, BaseCPI: cpi, APKI: apki,
			Curve: mrc.MustCurve(stream, comps...),
		}}}
}

func mustRunner(t *testing.T, clos int) *Runner {
	t.Helper()
	r, err := New(testMachine(), clos)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(machine.Machine{}, 2); err == nil {
		t.Fatal("expected error for invalid machine")
	}
	if _, err := New(testMachine(), 0); err == nil {
		t.Fatal("expected error for zero CLOS count")
	}
}

func TestAttachErrors(t *testing.T) {
	r := mustRunner(t, 2)
	prof := mkApp("a", 1, 5, 0.1, 1, 0.5)
	if err := r.Attach(-1, 0, prof); err == nil {
		t.Fatal("expected error for negative core")
	}
	if err := r.Attach(10, 0, prof); err == nil {
		t.Fatal("expected error for core out of range")
	}
	if err := r.Attach(0, 5, prof); err == nil {
		t.Fatal("expected error for clos out of range")
	}
	if err := r.Attach(0, 0, prof); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(0, 0, prof); err == nil {
		t.Fatal("expected error for occupied core")
	}
	if err := r.Attach(1, 0, app.Profile{Name: "bad"}); err == nil {
		t.Fatal("expected error for invalid profile")
	}
}

func TestSetMaskValidation(t *testing.T) {
	r := mustRunner(t, 2)
	if err := r.SetMask(0, 0); err == nil {
		t.Fatal("expected error for empty mask")
	}
	if err := r.SetMask(0, 0x5); err == nil {
		t.Fatal("expected error for non-contiguous mask")
	}
	if err := r.SetMask(0, uint64(1)<<25); err == nil {
		t.Fatal("expected error for mask beyond 20 ways")
	}
	if err := r.SetMask(2, 1); err == nil {
		t.Fatal("expected error for clos out of range")
	}
	if err := r.SetMask(0, cache.ContiguousMask(1, 19)); err != nil {
		t.Fatal(err)
	}
	if got := r.Mask(0); got != cache.ContiguousMask(1, 19) {
		t.Fatalf("mask readback = %#x", got)
	}
}

func TestStepAdvancesTime(t *testing.T) {
	r := mustRunner(t, 1)
	r.Step(0.25)
	r.Step(0.25)
	if got := r.time; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("time = %g, want 0.5", got)
	}
}

func TestStepPanicsOnNonPositiveDt(t *testing.T) {
	r := mustRunner(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r.Step(0)
}

func TestAloneProcessGetsFullCache(t *testing.T) {
	r := mustRunner(t, 1)
	prof := mkApp("a", 0.8, 10, 0.1, 4, 0.5) // 4 MB working set
	if err := r.Attach(0, 0, prof); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	// With 25 MB available the 4 MB set is covered: miss = stream only.
	wantIPC := 1 / (0.8 + 10*0.1/1000*180)
	if got := r.Proc(0).IPC(); math.Abs(got-wantIPC) > 1e-9 {
		t.Fatalf("alone IPC = %g, want %g", got, wantIPC)
	}
}

func TestExclusivePartitionIsolation(t *testing.T) {
	r := mustRunner(t, 2)
	// HP: cache-sensitive 4MB app in CLOS 0 with 4 ways (5 MB): covered.
	hp := mkApp("hp", 0.8, 10, 0, 4, 0.5)
	be := mkApp("be", 0.8, 20, 0.5, 8, 0.4)
	if err := r.Attach(0, 0, hp); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := r.Attach(i, 1, be); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetMask(0, cache.ContiguousMask(16, 4)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetMask(1, cache.ContiguousMask(0, 16)); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	// HP's exclusive 5 MB covers its 4 MB set: zero capacity misses even
	// with 9 hungry BEs (partition isolation); only the co-location CPI
	// penalty and bandwidth inflation may slow it.
	perf := r.Proc(0)
	cpiNoMiss := 0.8 * testMachine().CoLocFactor(9)
	if got := perf.Instructions / perf.Cycles; got < 1/(cpiNoMiss*1.01) {
		// IPC should be within a hair of the no-capacity-miss value.
		t.Fatalf("HP IPC = %g, want ~%g (isolated partition)", got, 1/cpiNoMiss)
	}
}

func TestSharedCacheDividedByPressure(t *testing.T) {
	r := mustRunner(t, 1)
	// Two identical cache-hungry apps share the full LLC: each should end
	// up with about half.
	prof := mkApp("a", 0.8, 20, 0.2, 30, 0.5) // 30 MB footprint each
	if err := r.Attach(0, 0, prof); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 0, prof); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	r.solveShares()
	total := r.shares[0] + r.shares[1]
	if math.Abs(total-float64(testMachine().LLCBytes)) > 1e-6*float64(testMachine().LLCBytes) {
		t.Fatalf("shares sum to %g, want full LLC %d", total, testMachine().LLCBytes)
	}
	if math.Abs(r.shares[0]-r.shares[1]) > 0.01*total {
		t.Fatalf("identical apps got asymmetric shares: %g vs %g", r.shares[0], r.shares[1])
	}
}

func TestSmallFootprintAppRetainsHotSet(t *testing.T) {
	r := mustRunner(t, 1)
	// A compute app with a small hot set shares the LLC with 9 streamers:
	// LRU retention (touch-rate water-filling with footprint caps) must
	// leave the hot set resident.
	hot := mkApp("hot", 0.6, 3, 0, 0.5, 0.5)
	stream := mkApp("str", 0.6, 25, 0.8, 0.2, 0.1)
	if err := r.Attach(0, 0, hot); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := r.Attach(i, 0, stream); err != nil {
			t.Fatal(err)
		}
	}
	r.Step(1)
	r.solveShares()
	if r.shares[0] < 0.5*app.MB {
		t.Fatalf("hot app share = %g, want >= its 0.5 MB footprint", r.shares[0])
	}
}

func TestBandwidthSaturationInflatesLatency(t *testing.T) {
	r := mustRunner(t, 1)
	for i := 0; i < 10; i++ {
		if err := r.Attach(i, 0, mkApp("s", 0.5, 30, 0.8, 0.5, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	r.Step(1)
	if r.Inflation() <= 1 {
		t.Fatalf("10 streamers should saturate the link; inflation = %g", r.Inflation())
	}
	if r.Utilisation() <= testMachine().Link.Knee {
		t.Fatalf("utilisation %g below knee", r.Utilisation())
	}
}

func TestLightLoadNoInflation(t *testing.T) {
	r := mustRunner(t, 1)
	if err := r.Attach(0, 0, mkApp("c", 0.5, 1, 0.05, 0.2, 0.5)); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	if got := r.Inflation(); got != 1 {
		t.Fatalf("light load inflation = %g, want 1", got)
	}
}

func TestSqueezeRaisesBandwidth(t *testing.T) {
	// The CT pathology: squeezing cache-hungry BEs into one way raises
	// their miss traffic vs a generous allocation.
	run := func(beWays int) float64 {
		r := mustRunner(t, 2)
		for i := 0; i < 9; i++ {
			if err := r.Attach(i, 1, mkApp("be", 0.85, 11, 0.18, 3.5, 0.58)); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.SetMask(1, cache.ContiguousMask(0, beWays)); err != nil {
			t.Fatal(err)
		}
		if err := r.SetMask(0, cache.ContiguousMask(beWays, 20-beWays)); err != nil {
			t.Fatal(err)
		}
		r.Step(1)
		snap := r.Snapshot()
		return snap.Clos[1].MemBytes
	}
	squeezed := run(1)
	generous := run(16)
	if squeezed <= generous {
		t.Fatalf("squeezed BEs moved %g bytes <= generous %g", squeezed, generous)
	}
}

func TestBWCap(t *testing.T) {
	r := mustRunner(t, 2)
	for i := 0; i < 9; i++ {
		if err := r.Attach(i, 1, mkApp("be", 0.5, 30, 0.8, 0.5, 0.1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.SetBWCap(1, 20); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	snap := r.Snapshot()
	gbps := snap.Clos[1].MemBytes * 8 / 1e9
	if gbps > 21 {
		t.Fatalf("capped CLOS consumed %.1f Gbps, cap was 20", gbps)
	}
	if err := r.SetBWCap(1, -1); err == nil {
		t.Fatal("expected error for negative cap")
	}
	if err := r.SetBWCap(5, 1); err == nil {
		t.Fatal("expected error for clos out of range")
	}
}

func TestParking(t *testing.T) {
	r := mustRunner(t, 1)
	if err := r.Attach(0, 0, mkApp("a", 0.5, 10, 0.5, 1, 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 0, mkApp("b", 0.5, 10, 0.5, 1, 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetCoreParked(1, true); err != nil {
		t.Fatal(err)
	}
	if !r.CoreParked(1) {
		t.Fatal("core 1 should report parked")
	}
	r.Step(1)
	if got := r.Proc(1).Instructions; got != 0 {
		t.Fatalf("parked core retired %g instructions", got)
	}
	if got := r.Proc(0).Instructions; got == 0 {
		t.Fatal("unparked core did not run")
	}
	// Unpark and verify it resumes.
	if err := r.SetCoreParked(1, false); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	if got := r.Proc(1).Instructions; got == 0 {
		t.Fatal("unparked core did not resume")
	}
	if err := r.SetCoreParked(7, true); err == nil {
		t.Fatal("expected error parking an empty core")
	}
}

func TestSnapshotConsistency(t *testing.T) {
	r := mustRunner(t, 2)
	if err := r.Attach(0, 0, mkApp("hp", 0.8, 10, 0.1, 2, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 1, mkApp("be", 0.8, 15, 0.3, 4, 0.4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		r.Step(0.25)
	}
	snap := r.Snapshot()
	if snap.Time != r.time {
		t.Fatal("snapshot time mismatch")
	}
	if len(snap.Cores) != 2 || len(snap.Clos) != 2 {
		t.Fatalf("snapshot sizes: %d cores, %d clos", len(snap.Cores), len(snap.Clos))
	}
	for _, c := range snap.Cores {
		if c.Cycles <= 0 || c.Instructions <= 0 {
			t.Fatalf("core %d has empty counters: %+v", c.Core, c)
		}
		if c.IPC() <= 0 || c.IPC() > 4 {
			t.Fatalf("core %d IPC %g implausible", c.Core, c.IPC())
		}
	}
	var occ float64
	for _, g := range snap.Clos {
		if g.MemBytes < 0 || g.OccupancyBytes < 0 {
			t.Fatalf("negative counters: %+v", g)
		}
		occ += g.OccupancyBytes
	}
	if occ > float64(testMachine().LLCBytes)+1 {
		t.Fatalf("total occupancy %g exceeds LLC", occ)
	}

	// The counters-only fill reports the same counters with zero
	// occupancy, and after a mask write it runs no share solve.
	var cnt Snapshot
	r.CountersInto(&cnt)
	for i, c := range cnt.Cores {
		if c != snap.Cores[i] {
			t.Fatalf("CountersInto core %+v, Snapshot %+v", c, snap.Cores[i])
		}
	}
	for i, g := range cnt.Clos {
		want := snap.Clos[i]
		want.OccupancyBytes = 0
		if g != want {
			t.Fatalf("CountersInto clos %+v, want %+v", g, want)
		}
	}
	if err := r.SetMask(0, cache.ContiguousMask(0, 10)); err != nil {
		t.Fatal(err)
	}
	r.CountersInto(&cnt)
	if r.sharesValid {
		t.Fatal("CountersInto ran a share solve")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Snapshot {
		r := mustRunner(t, 2)
		_ = r.Attach(0, 0, mkApp("hp", 0.8, 12, 0.2, 3, 0.5))
		for i := 1; i < 6; i++ {
			_ = r.Attach(i, 1, mkApp("be", 0.7, 18, 0.4, 2, 0.3))
		}
		_ = r.SetMask(0, cache.ContiguousMask(10, 10))
		_ = r.SetMask(1, cache.ContiguousMask(0, 10))
		for i := 0; i < 20; i++ {
			r.Step(0.25)
		}
		return r.Snapshot()
	}
	a, b := run(), run()
	for i := range a.Cores {
		if a.Cores[i].Instructions != b.Cores[i].Instructions {
			t.Fatalf("non-deterministic instructions on core %d", i)
		}
	}
}

func TestMaskChangeMidRunChangesPerformance(t *testing.T) {
	r := mustRunner(t, 2)
	if err := r.Attach(0, 0, mkApp("hp", 0.8, 15, 0, 8, 0.6)); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 1, mkApp("be", 0.8, 15, 0.2, 8, 0.5)); err != nil {
		t.Fatal(err)
	}
	// Phase 1: HP squeezed into 1 way.
	if err := r.SetMask(0, cache.ContiguousMask(19, 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetMask(1, cache.ContiguousMask(0, 19)); err != nil {
		t.Fatal(err)
	}
	r.Step(1)
	ipcSqueezed := r.Proc(0).IPC()
	// Phase 2: give HP 10 ways.
	if err := r.SetMask(0, cache.ContiguousMask(10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetMask(1, cache.ContiguousMask(0, 10)); err != nil {
		t.Fatal(err)
	}
	before := r.Proc(0).Instructions
	r.Step(1)
	tm := testMachine()
	ipcAfter := (r.Proc(0).Instructions - before) / (1 * tm.CyclesPerSecond())
	if ipcAfter <= ipcSqueezed*1.2 {
		t.Fatalf("10 ways should be much faster than 1: %g vs %g", ipcAfter, ipcSqueezed)
	}
}

// Property: waterfill conserves capacity (never over-allocates), honours
// caps, and gives zero to zero-weight entries when others want capacity.
// Each entry is a run of one to four members of one lockstep set, and
// with three or more entries the last repeats the first entry's set, as
// when SetClos moves a member out of the middle of a set: one lead's
// members then form two non-adjacent runs. Every member's allocation
// must equal the reference water-fill over the member list bit for bit.
func TestPropertyWaterfill(t *testing.T) {
	f := func(wRaw, cRaw, nRaw []uint8, capRaw uint16) bool {
		n := len(wRaw)
		if n == 0 || len(cRaw) < n || len(nRaw) < n {
			return true
		}
		if n > 10 {
			n = 10
		}
		var procs []*slot
		var weights, caps []float64
		first := make([]int, 0, 4*n) // each member's run, by first member
		for e := 0; e < n; e++ {
			set := e
			if e == n-1 && n >= 3 {
				set = 0
			}
			// Fractional weights and caps make the order of each sum's
			// terms show in its low bits.
			lead, w, c := int32(len(procs)), float64(wRaw[set]%20)/7, float64(cRaw[set]%50)/3+1
			if set != e {
				lead = procs[0].lead
			}
			head := len(procs)
			for k := 0; k <= int(nRaw[e]%4); k++ {
				procs = append(procs, &slot{lead: lead})
				weights, caps, first = append(weights, w), append(caps, c), append(first, head)
			}
		}
		members := len(procs)
		cnt := make([]int, members)
		active := runs(uint64(1)<<uint(members)-1, procs, nil, cnt)
		if len(active) != n {
			return false
		}
		capacity := float64(capRaw%2000) + 1
		alloc := make([]float64, members)
		waterfill(capacity, weights, caps, active, cnt, alloc, nil)
		all := make([]int, members)
		for i := range all {
			all[i] = i
		}
		refAlloc := make([]float64, members)
		referenceWaterfill(capacity, weights, caps, all, refAlloc)
		var sum, totCap float64
		for i := 0; i < members; i++ {
			a := alloc[first[i]]
			if math.Float64bits(a) != math.Float64bits(refAlloc[i]) {
				return false
			}
			if a < -1e-9 || a > caps[i]+1e-6 {
				return false
			}
			sum += a
			totCap += caps[i]
		}
		if sum > capacity+1e-6 {
			return false
		}
		// Full utilisation when demand allows it.
		if totCap >= capacity && sum < capacity-1e-6 {
			// Zero-weight-only populations split evenly, still full.
			return false
		}
		// A weighted member below its cap wants more, so every
		// zero-weight member gets nothing.
		for i := 0; i < members; i++ {
			if weights[i] > 0 && alloc[first[i]] < caps[i] {
				for j := 0; j < members; j++ {
					if weights[j] == 0 && alloc[first[j]] != 0 {
						return false
					}
				}
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-process cache shares never exceed the LLC in total, for
// random mask splits.
func TestPropertySharesBounded(t *testing.T) {
	f := func(split uint8, nBE uint8) bool {
		s := int(split%18) + 1
		n := int(nBE%9) + 1
		r, err := New(testMachine(), 2)
		if err != nil {
			return false
		}
		if err := r.Attach(0, 0, mkApp("hp", 0.8, 12, 0.1, 6, 0.5)); err != nil {
			return false
		}
		for i := 1; i <= n; i++ {
			if err := r.Attach(i, 1, mkApp("be", 0.7, 20, 0.4, 3, 0.4)); err != nil {
				return false
			}
		}
		if err := r.SetMask(0, cache.ContiguousMask(20-s, s)); err != nil {
			return false
		}
		if err := r.SetMask(1, cache.ContiguousMask(0, 20-s)); err != nil {
			return false
		}
		r.Step(0.5)
		r.solveShares()
		var sum float64
		for _, sh := range r.shares {
			if sh < 0 {
				return false
			}
			sum += sh
		}
		return sum <= float64(testMachine().LLCBytes)*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
