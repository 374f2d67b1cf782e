package core

import (
	"fmt"
	"math/bits"
	"testing"

	"dicer/internal/cache"
	"dicer/internal/cluster"
	"dicer/internal/mrc"
	"dicer/internal/resctrl"
)

// testCurve is a moderately cache-sensitive miss curve for spec plumbing.
func testCurve(mb float64) mrc.Curve {
	return mrc.MustCurve(0.05, mrc.Component{Bytes: mb * (1 << 20), Frac: 0.6})
}

// singleSpec is the M=1 spec set used by the equivalence suite.
func singleSpec() []cluster.AppSpec {
	return []cluster.AppSpec{{Name: "hp", Core: 0, SLO: 0.9, Curve: testCurve(8)}}
}

// multiFake is a scripted resctrl.System with CLOS moving, for multi-HP
// unit tests.
type multiFake struct {
	ways  int
	clos  int
	masks map[int]uint64
	cores map[int]int
	log   []string
}

func newMultiFake(ways, clos int) *multiFake {
	return &multiFake{ways: ways, clos: clos, masks: map[int]uint64{}, cores: map[int]int{}}
}

func (f *multiFake) NumWays() int { return f.ways }
func (f *multiFake) NumClos() int { return f.clos }
func (f *multiFake) SetCBM(clos int, mask uint64) error {
	if err := cache.CheckMask(mask, f.ways); err != nil {
		return err
	}
	f.masks[clos] = mask
	f.log = append(f.log, fmt.Sprintf("%d=%x", clos, mask))
	return nil
}
func (f *multiFake) CBM(clos int) uint64          { return f.masks[clos] }
func (f *multiFake) SetMBACap(int, float64) error { return fmt.Errorf("no MBA") }
func (f *multiFake) LinkCapacityGbps() float64    { return 68.3 }
func (f *multiFake) Counters() resctrl.Counters   { return resctrl.Counters{} }
func (f *multiFake) MoveCore(core, clos int) error {
	f.cores[core] = clos
	return nil
}

var (
	_ resctrl.System    = (*multiFake)(nil)
	_ resctrl.CoreMover = (*multiFake)(nil)
)

// m1Script is a period script exercising every controller regime: warm-up
// and shrinking, IPC degradation with reset/validate/rollback, a phase-
// change bandwidth spike, saturation sampling, and recovery.
func m1Script() []resctrl.Period {
	var script []resctrl.Period
	add := func(n int, ipc, bw, total float64) {
		for i := 0; i < n; i++ {
			script = append(script, obs(ipc, bw, total))
		}
	}
	add(25, 1.0, 5, 20)  // steady: shrink to the floor, then hold
	add(1, 0.6, 5, 20)   // degraded: perf reset
	add(1, 1.2, 5, 20)   // reset helped: validated
	add(5, 1.2, 5, 20)   // steady again
	add(1, 0.5, 5, 20)   // degraded: reset
	add(1, 0.4, 5, 20)   // reset did not help: rollback
	add(6, 0.9, 6, 22)   // steady
	add(1, 0.9, 12, 30)  // bandwidth spike: phase change reset
	add(1, 1.1, 12, 30)  // validated
	add(4, 1.1, 12, 30)  // steady
	add(1, 1.0, 20, 60)  // saturated: sampling begins
	add(12, 1.0, 20, 60) // sampling sweep (IPC flat)
	add(10, 1.0, 8, 30)  // post-sampling optimise
	add(1, 0.2, 8, 30)   // degraded under CT-T: reset to optimal
	add(1, 0.2, 8, 30)   // not near-opt: re-sample
	add(12, 0.9, 8, 30)  // second sweep and settle
	return script
}

// TestMultiM1Equivalence pins the M=1 case: a grouped controller with one
// app (planned by cluster.Single, its core moved to CLOS 0) reproduces the
// two-CLOS controller New builds decision for decision — same event kinds,
// groups, way counts and periods, same installed masks — across every
// regime of the state machine.
func TestMultiM1Equivalence(t *testing.T) {
	split := MustNew(DefaultConfig())
	splitSys := newFake(20)
	var splitEvents []Event
	split.Trace = func(e Event) { splitEvents = append(splitEvents, e) }

	multi := MustNewMulti(MultiConfig{
		Group:      DefaultConfig(),
		WayBytes:   1.25 * (1 << 20),
		CLOSBudget: 2,
		Grouping:   GroupingSingle,
	}, singleSpec())
	multiSys := newMultiFake(20, 2)
	var multiEvents []Event
	multi.Trace = func(e Event) { multiEvents = append(multiEvents, e) }

	if err := split.Setup(splitSys); err != nil {
		t.Fatal(err)
	}
	if err := multi.Setup(multiSys); err != nil {
		t.Fatal(err)
	}

	script := m1Script()
	for i, p := range script {
		if err := split.Observe(splitSys, p); err != nil {
			t.Fatalf("period %d: split: %v", i, err)
		}
		if err := multi.Observe(multiSys, p); err != nil {
			t.Fatalf("period %d: multi: %v", i, err)
		}
		if splitSys.masks[0] != multiSys.masks[0] || splitSys.masks[1] != multiSys.masks[1] {
			t.Fatalf("period %d: masks diverged: split hp=%x be=%x, multi g0=%x be=%x",
				i, splitSys.masks[0], splitSys.masks[1], multiSys.masks[0], multiSys.masks[1])
		}
		if split.HPWays() != multi.GroupWays(0) {
			t.Fatalf("period %d: ways diverged: split %d, multi %d", i, split.HPWays(), multi.GroupWays(0))
		}
		if split.State() != multi.GroupState(0) {
			t.Fatalf("period %d: state diverged: split %s, multi %s", i, split.State(), multi.GroupState(0))
		}
	}

	if len(splitEvents) != len(multiEvents) {
		t.Fatalf("decision count diverged: split %d, multi %d", len(splitEvents), len(multiEvents))
	}
	for i := range splitEvents {
		se, me := splitEvents[i], multiEvents[i]
		if se != me {
			t.Fatalf("event %d diverged:\nsplit %+v\nmulti %+v", i, se, me)
		}
	}
}

// TestMultiStackedMasks pins the multi-group mask layout: contiguous,
// disjoint, stacked from the top, BE keeping at least its floor.
func TestMultiStackedMasks(t *testing.T) {
	specs := []cluster.AppSpec{
		{Name: "a", Core: 0, SLO: 0.9, Curve: testCurve(16)},
		{Name: "b", Core: 1, SLO: 0.9, Curve: testCurve(14)},
		{Name: "c", Core: 2, SLO: 0.9, Curve: testCurve(1)},
		{Name: "d", Core: 3, SLO: 0.9, Curve: mrc.MustCurve(0.6)},
	}
	group := DefaultConfig()
	group.MinBEWays = 2
	mc := MustNewMulti(MultiConfig{
		Group:      group,
		WayBytes:   1.25 * (1 << 20),
		CLOSBudget: 4,
	}, specs)
	sys := newMultiFake(20, 4)
	if err := mc.Setup(sys); err != nil {
		t.Fatal(err)
	}
	k := mc.NumGroups()
	if k < 1 || k > 3 {
		t.Fatalf("group count %d outside [1,3]", k)
	}
	var seen uint64
	top := 20
	for gi := 0; gi < k; gi++ {
		mask := sys.masks[gi]
		if err := cache.CheckMask(mask, 20); err != nil {
			t.Fatalf("group %d mask %x: %v", gi, mask, err)
		}
		w := bits.OnesCount64(mask)
		if w != mc.GroupWays(gi) {
			t.Fatalf("group %d mask width %d != ways %d", gi, w, mc.GroupWays(gi))
		}
		wantHigh := top - 1
		if bits.Len64(mask)-1 != wantHigh {
			t.Fatalf("group %d not stacked: high bit %d, want %d", gi, bits.Len64(mask)-1, wantHigh)
		}
		if seen&mask != 0 {
			t.Fatalf("group %d mask %x overlaps earlier groups %x", gi, mask, seen)
		}
		seen |= mask
		top -= w
	}
	be := sys.masks[mc.BEClos()]
	if bits.OnesCount64(be) < 2 {
		t.Fatalf("BE mask %x narrower than MinBEWays", be)
	}
	if seen&be != 0 {
		t.Fatalf("BE mask %x overlaps groups %x", be, seen)
	}
	// Every HP core landed in a valid group CLOS.
	for core := 0; core < 4; core++ {
		if clos, ok := sys.cores[core]; !ok || clos < 0 || clos >= k {
			t.Fatalf("core %d in clos %d (moved=%v), want [0,%d)", core, clos, ok, k)
		}
	}
}

// multiPeriod builds a reading for a 2-group, 4-HP topology with BEs in
// the last CLOS.
func multiPeriod(ipc0, ipc1, bw0, bw1, beBW float64) resctrl.Period {
	return resctrl.Period{
		Seconds: 1,
		Cores: []resctrl.PeriodCore{
			{Core: 0, Clos: 0, IPC: ipc0},
			{Core: 1, Clos: 0, IPC: ipc0},
			{Core: 2, Clos: 1, IPC: ipc1},
			{Core: 3, Clos: 1, IPC: ipc1},
			{Core: 4, Clos: 3, IPC: 0.5},
		},
		Groups: []resctrl.PeriodGroup{
			{Clos: 0, BandwidthGbps: bw0},
			{Clos: 1, BandwidthGbps: bw1},
			{Clos: 3, BandwidthGbps: beBW},
		},
		TotalGbps: bw0 + bw1 + beBW,
	}
}

// quietMultiSystem is an allocation-free substrate for the multi alloc
// guard and benchmark.
type quietMultiSystem struct {
	ways  int
	masks [16]uint64
	cores [16]int
}

func (q *quietMultiSystem) NumWays() int { return q.ways }
func (q *quietMultiSystem) NumClos() int { return len(q.masks) }
func (q *quietMultiSystem) SetCBM(clos int, mask uint64) error {
	if err := cache.CheckMask(mask, q.ways); err != nil {
		return err
	}
	q.masks[clos] = mask
	return nil
}
func (q *quietMultiSystem) CBM(clos int) uint64          { return q.masks[clos] }
func (q *quietMultiSystem) SetMBACap(int, float64) error { return fmt.Errorf("no MBA") }
func (q *quietMultiSystem) LinkCapacityGbps() float64    { return 68.3 }
func (q *quietMultiSystem) Counters() resctrl.Counters   { return resctrl.Counters{} }
func (q *quietMultiSystem) MoveCore(core, clos int) error {
	q.cores[core] = clos
	return nil
}

func quietMulti(t testing.TB) (*Controller, *quietMultiSystem) {
	specs := []cluster.AppSpec{
		{Name: "a", Core: 0, SLO: 0.9, Curve: testCurve(16)},
		{Name: "b", Core: 1, SLO: 0.9, Curve: testCurve(14)},
		{Name: "c", Core: 2, SLO: 0.9, Curve: testCurve(1)},
		{Name: "d", Core: 3, SLO: 0.9, Curve: mrc.MustCurve(0.6)},
	}
	mc := MustNewMulti(MultiConfig{
		Group:      DefaultConfig(),
		WayBytes:   1.25 * (1 << 20),
		CLOSBudget: 4,
	}, specs)
	sys := &quietMultiSystem{ways: 20}
	if err := mc.Setup(sys); err != nil {
		t.Fatal(err)
	}
	return mc, sys
}

// TestMultiObserveAllocFree pins the multi-HP hot path: with the
// grouping static, Observe must not allocate on either the steady hold
// path or the shrink/relayout path.
func TestMultiObserveAllocFree(t *testing.T) {
	mc, sys := quietMulti(t)
	steady := multiPeriod(1.0, 0.8, 5, 4, 6)
	for i := 0; i < 40; i++ {
		if err := mc.Observe(sys, steady); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := mc.Observe(sys, steady); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("steady multi observe: %v allocs/period, want 0", got)
	}

	// Alternating IPC keeps groups resetting and re-laying masks out.
	flip := false
	if got := testing.AllocsPerRun(200, func() {
		flip = !flip
		p := steady
		if flip {
			p = multiPeriod(0.5, 1.2, 5, 4, 6)
		}
		if err := mc.Observe(sys, p); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("active multi observe: %v allocs/period, want 0", got)
	}
}

// BenchmarkMultiHPStep measures one multi-HP controller period at steady
// state (bench-smoke gates this stays allocation-free).
func BenchmarkMultiHPStep(b *testing.B) {
	mc, sys := quietMulti(b)
	steady := multiPeriod(1.0, 0.8, 5, 4, 6)
	for i := 0; i < 40; i++ {
		if err := mc.Observe(sys, steady); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mc.Observe(sys, steady); err != nil {
			b.Fatal(err)
		}
	}
}
