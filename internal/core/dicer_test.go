package core

import (
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"dicer/internal/cache"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// CTFavoured reports whether group 0 still assumes a CT-Favoured
// workload (no bandwidth saturation observed so far).
func (c *Controller) CTFavoured() bool { return c.groups[0].ctFavoured }

// fakeSystem is a scripted resctrl.System for controller unit tests: it
// records every mask write and nothing else.
type fakeSystem struct {
	ways  int
	masks map[int]uint64
	log   []string
}

func newFake(ways int) *fakeSystem {
	return &fakeSystem{ways: ways, masks: map[int]uint64{}}
}

func (f *fakeSystem) NumWays() int { return f.ways }
func (f *fakeSystem) NumClos() int { return 2 }
func (f *fakeSystem) SetCBM(clos int, mask uint64) error {
	if err := cache.CheckMask(mask, f.ways); err != nil {
		return err
	}
	f.masks[clos] = mask
	f.log = append(f.log, fmt.Sprintf("%d=%x", clos, mask))
	return nil
}
func (f *fakeSystem) CBM(clos int) uint64          { return f.masks[clos] }
func (f *fakeSystem) SetMBACap(int, float64) error { return fmt.Errorf("no MBA") }
func (f *fakeSystem) LinkCapacityGbps() float64    { return 68.3 }
func (f *fakeSystem) Counters() sim.Snapshot       { return sim.Snapshot{} }

func (f *fakeSystem) hpWays() int { return bits.OnesCount64(f.masks[policy.HPClos]) }
func (f *fakeSystem) beWays() int { return bits.OnesCount64(f.masks[policy.BEClos]) }

// obs builds a monitoring-period reading with the given HP IPC, HP
// bandwidth and total bandwidth.
func obs(hpIPC, hpBW, totalBW float64) resctrl.Period {
	return resctrl.Period{
		Seconds: 1,
		Cores: []resctrl.PeriodCore{
			{Core: 0, Clos: policy.HPClos, IPC: hpIPC},
			{Core: 1, Clos: policy.BEClos, IPC: 0.5},
		},
		Groups: []resctrl.PeriodGroup{
			{Clos: policy.HPClos, BandwidthGbps: hpBW},
			{Clos: policy.BEClos, BandwidthGbps: totalBW - hpBW},
		},
		TotalGbps: totalBW,
	}
}

func newCtl(t *testing.T, mutate ...func(*Config)) (*Controller, *fakeSystem) {
	t.Helper()
	cfg := DefaultConfig()
	for _, m := range mutate {
		m(&cfg)
	}
	ctl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys := newFake(20)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	return ctl, sys
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.PeriodSec = 0 },
		func(c *Config) { c.BWThresholdGbps = 0 },
		func(c *Config) { c.PhaseThreshold = 0 },
		func(c *Config) { c.StabilityAlpha = 0 },
		func(c *Config) { c.StabilityAlpha = 1 },
		func(c *Config) { c.NearOptTolerance = 0 },
		func(c *Config) { c.SampleStep = 0 },
		func(c *Config) { c.MinHPWays = 0 },
		func(c *Config) { c.MinBEWays = 0 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestSetupStartsLikeCT(t *testing.T) {
	ctl, sys := newCtl(t)
	if got := sys.hpWays(); got != 19 {
		t.Fatalf("initial HP ways = %d, want 19 (CT allocation)", got)
	}
	if got := sys.beWays(); got != 1 {
		t.Fatalf("initial BE ways = %d, want 1", got)
	}
	if !ctl.CTFavoured() {
		t.Fatal("controller must start assuming CT-Favoured")
	}
	if ctl.GroupState(0) != "optimise" {
		t.Fatalf("initial state %q", ctl.GroupState(0))
	}
}

func TestSetupRejectsTinyCache(t *testing.T) {
	ctl := MustNew(DefaultConfig())
	if err := ctl.Setup(newFake(1)); err == nil {
		t.Fatal("expected error: 1 way cannot host HP and BE minimums")
	}
}

func TestStableIPCShrinksHP(t *testing.T) {
	ctl, sys := newCtl(t)
	// First observation establishes the baseline; the next stable ones
	// each hand one way to the BEs.
	for i := 0; i < 4; i++ {
		if err := ctl.Observe(sys, obs(1.0, 5, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctl.HPWays(); got != 16 {
		t.Fatalf("after 3 stable periods HP ways = %d, want 16", got)
	}
	if got := sys.beWays(); got != 4 {
		t.Fatalf("BE ways = %d, want 4", got)
	}
}

func TestImprovedIPCHolds(t *testing.T) {
	ctl, sys := newCtl(t)
	if err := ctl.Observe(sys, obs(1.0, 5, 20)); err != nil { // baseline
		t.Fatal(err)
	}
	before := ctl.HPWays()
	if err := ctl.Observe(sys, obs(1.2, 5, 20)); err != nil { // +20%: better
		t.Fatal(err)
	}
	if got := ctl.HPWays(); got != before {
		t.Fatalf("improved IPC changed allocation: %d -> %d", before, got)
	}
}

func TestDegradedIPCResetsAndValidates(t *testing.T) {
	ctl, sys := newCtl(t)
	ctl.Observe(sys, obs(1.0, 5, 20))                         // baseline at 19 ways
	ctl.Observe(sys, obs(1.0, 5, 20))                         // stable -> 18
	ctl.Observe(sys, obs(1.0, 5, 20))                         // stable -> 17
	if err := ctl.Observe(sys, obs(0.7, 5, 20)); err != nil { // -30%: reset
		t.Fatal(err)
	}
	if ctl.GroupState(0) != "validate" {
		t.Fatalf("state %q, want validate", ctl.GroupState(0))
	}
	// CT-F reset re-applies the CT allocation.
	if got := ctl.HPWays(); got != 19 {
		t.Fatalf("reset HP ways = %d, want 19", got)
	}
	// Validation: performance improved vs the trigger -> keep and resume.
	if err := ctl.Observe(sys, obs(1.0, 5, 20)); err != nil {
		t.Fatal(err)
	}
	if ctl.GroupState(0) != "optimise" {
		t.Fatalf("state %q after successful validation", ctl.GroupState(0))
	}
	if got := ctl.HPWays(); got != 19 {
		t.Fatalf("validated allocation = %d, want 19", got)
	}
}

func TestResetRollbackWhenNoImprovement(t *testing.T) {
	ctl, sys := newCtl(t)
	ctl.Observe(sys, obs(1.0, 5, 20)) // baseline
	ctl.Observe(sys, obs(1.0, 5, 20)) // stable -> 18
	ctl.Observe(sys, obs(0.7, 5, 20)) // reset to 19, trigger IPC 0.7
	// Validation shows no improvement (a slower phase, not the
	// allocation): roll back to the pre-reset 18 ways.
	if err := ctl.Observe(sys, obs(0.65, 5, 20)); err != nil {
		t.Fatal(err)
	}
	if got := ctl.HPWays(); got != 18 {
		t.Fatalf("rollback HP ways = %d, want 18", got)
	}
	if ctl.GroupState(0) != "optimise" {
		t.Fatalf("state %q after rollback", ctl.GroupState(0))
	}
}

func TestSaturationTriggersSampling(t *testing.T) {
	ctl, sys := newCtl(t)
	if err := ctl.Observe(sys, obs(0.8, 5, 60)); err != nil { // > 50 Gbps
		t.Fatal(err)
	}
	if ctl.GroupState(0) != "sampling" {
		t.Fatalf("state %q, want sampling", ctl.GroupState(0))
	}
	if ctl.CTFavoured() {
		t.Fatal("saturation must reclassify the workload as CT-Thwarted")
	}
	// Sampling stepped down from 19 by SampleStep.
	if got := ctl.HPWays(); got != 19-DefaultConfig().SampleStep {
		t.Fatalf("first sample at %d ways", got)
	}
}

func TestSamplingPicksArgmax(t *testing.T) {
	ctl, sys := newCtl(t, func(c *Config) { c.SampleStep = 4 })
	// Saturate: sampling starts at 19 (recorded with IPC .5), then visits
	// 15, 11, 7, 3. Feed IPCs that peak at 11 ways.
	ipcAt := map[int]float64{19: 0.50, 15: 0.60, 11: 0.90, 7: 0.70, 3: 0.40}
	if err := ctl.Observe(sys, obs(ipcAt[19], 5, 60)); err != nil {
		t.Fatal(err)
	}
	for ctl.GroupState(0) == "sampling" {
		cur := ctl.HPWays()
		if err := ctl.Observe(sys, obs(ipcAt[cur], 5, 60)); err != nil {
			t.Fatal(err)
		}
	}
	if got := ctl.HPWays(); got != 11 {
		t.Fatalf("sampling settled on %d ways, want argmax 11", got)
	}
}

func TestPhaseChangeDetection(t *testing.T) {
	ctl, sys := newCtl(t)
	// Three periods of steady HP bandwidth build the history.
	ctl.Observe(sys, obs(1.0, 10, 20))
	ctl.Observe(sys, obs(1.0, 10, 20))
	ctl.Observe(sys, obs(1.0, 10, 20))
	waysBefore := ctl.HPWays()
	// A 40% bandwidth spike (> 30% threshold) with stable IPC must
	// trigger the phase reset, not a shrink.
	if err := ctl.Observe(sys, obs(1.0, 14, 24)); err != nil {
		t.Fatal(err)
	}
	if ctl.GroupState(0) != "validate" {
		t.Fatalf("state %q, want validate (phase reset)", ctl.GroupState(0))
	}
	if got := ctl.HPWays(); got != 19 {
		t.Fatalf("phase reset applied %d ways, want CT's 19 (was %d)", got, waysBefore)
	}
}

func TestNoPhaseChangeBelowThreshold(t *testing.T) {
	ctl, sys := newCtl(t)
	ctl.Observe(sys, obs(1.0, 10, 20))
	ctl.Observe(sys, obs(1.0, 10, 20))
	ctl.Observe(sys, obs(1.0, 10, 20))
	// +20% < 30% threshold: stable IPC shrinks as usual.
	before := ctl.HPWays()
	if err := ctl.Observe(sys, obs(1.0, 12, 22)); err != nil {
		t.Fatal(err)
	}
	if got := ctl.HPWays(); got != before-1 {
		t.Fatalf("sub-threshold spike: ways %d, want shrink to %d", got, before-1)
	}
}

func TestCTTResetRevertsToOptimal(t *testing.T) {
	ctl, sys := newCtl(t, func(c *Config) { c.SampleStep = 6 })
	// Sampling: 19 (0.5) -> 13 (0.9) -> 7 (0.6) -> 1 (0.3); optimal 13.
	ipcAt := map[int]float64{19: 0.5, 13: 0.9, 7: 0.6, 1: 0.3}
	ctl.Observe(sys, obs(ipcAt[19], 5, 60))
	for ctl.GroupState(0) == "sampling" {
		ctl.Observe(sys, obs(ipcAt[ctl.HPWays()], 5, 60))
	}
	if ctl.HPWays() != 13 {
		t.Fatalf("optimal = %d, want 13", ctl.HPWays())
	}
	// Stable IPC shrinks below optimal, then degradation resets to the
	// stored optimal allocation (not CT's 19).
	ctl.Observe(sys, obs(0.9, 5, 20)) // stable -> 12
	ctl.Observe(sys, obs(0.6, 5, 20)) // worse -> reset
	if ctl.GroupState(0) != "validate" {
		t.Fatalf("state %q, want validate", ctl.GroupState(0))
	}
	if got := ctl.HPWays(); got != 13 {
		t.Fatalf("CT-T reset applied %d ways, want optimal 13", got)
	}
	// Validation near IPC_opt resumes optimisation.
	if err := ctl.Observe(sys, obs(0.88, 5, 20)); err != nil {
		t.Fatal(err)
	}
	if ctl.GroupState(0) != "optimise" {
		t.Fatalf("state %q after near-opt validation", ctl.GroupState(0))
	}
}

func TestCTTResetResamplesWhenFarFromOpt(t *testing.T) {
	ctl, sys := newCtl(t, func(c *Config) { c.SampleStep = 6 })
	ipcAt := map[int]float64{19: 0.5, 13: 0.9, 7: 0.6, 1: 0.3}
	ctl.Observe(sys, obs(ipcAt[19], 5, 60))
	for ctl.GroupState(0) == "sampling" {
		ctl.Observe(sys, obs(ipcAt[ctl.HPWays()], 5, 60))
	}
	ctl.Observe(sys, obs(0.9, 5, 20)) // stable -> 12
	ctl.Observe(sys, obs(0.6, 5, 20)) // reset -> validate at 13
	// Validation IPC far below IPC_opt (0.9): the optimum moved, so the
	// controller must sample again.
	if err := ctl.Observe(sys, obs(0.5, 5, 20)); err != nil {
		t.Fatal(err)
	}
	if ctl.GroupState(0) != "sampling" {
		t.Fatalf("state %q, want sampling", ctl.GroupState(0))
	}
}

func TestValidateInterruptedBySaturation(t *testing.T) {
	ctl, sys := newCtl(t)
	ctl.Observe(sys, obs(1.0, 5, 20))
	ctl.Observe(sys, obs(1.0, 5, 20)) // shrink
	ctl.Observe(sys, obs(0.7, 5, 20)) // reset -> validate
	// Saturation during validation goes straight to sampling.
	if err := ctl.Observe(sys, obs(0.7, 5, 60)); err != nil {
		t.Fatal(err)
	}
	if ctl.GroupState(0) != "sampling" {
		t.Fatalf("state %q, want sampling", ctl.GroupState(0))
	}
}

func TestShrinkStopsAtMinimum(t *testing.T) {
	ctl, sys := newCtl(t, func(c *Config) { c.MinHPWays = 3 })
	ctl.Observe(sys, obs(1.0, 5, 20)) // baseline
	for i := 0; i < 40; i++ {
		ctl.Observe(sys, obs(1.0, 5, 20))
	}
	if got := ctl.HPWays(); got != 3 {
		t.Fatalf("shrink floor = %d, want MinHPWays 3", got)
	}
}

func TestMasksAlwaysLegal(t *testing.T) {
	// Whatever the controller does, every installed mask pair must be
	// contiguous, disjoint, and cover the cache.
	ctl, sys := newCtl(t)
	seq := []resctrl.Period{
		obs(1.0, 5, 20), obs(1.0, 5, 20), obs(0.7, 5, 60), obs(0.6, 5, 60),
		obs(0.9, 5, 20), obs(0.9, 5, 20), obs(0.5, 20, 20), obs(0.9, 5, 60),
	}
	for i, p := range seq {
		if err := ctl.Observe(sys, p); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		hp, be := sys.masks[policy.HPClos], sys.masks[policy.BEClos]
		if hp&be != 0 {
			t.Fatalf("step %d: overlapping masks %x/%x", i, hp, be)
		}
		if hp|be != 0xfffff {
			t.Fatalf("step %d: masks %x|%x do not cover the cache", i, hp, be)
		}
	}
}

func TestAblationDisableSaturation(t *testing.T) {
	ctl, sys := newCtl(t, func(c *Config) { c.DisableSaturationHandling = true })
	if err := ctl.Observe(sys, obs(1.0, 5, 60)); err != nil {
		t.Fatal(err)
	}
	if ctl.GroupState(0) == "sampling" {
		t.Fatal("saturation handling disabled but sampling started")
	}
	if !ctl.CTFavoured() {
		t.Fatal("classification must not change with saturation disabled")
	}
}

func TestAblationDisablePhaseDetection(t *testing.T) {
	ctl, sys := newCtl(t, func(c *Config) { c.DisablePhaseDetection = true })
	ctl.Observe(sys, obs(1.0, 10, 20))
	ctl.Observe(sys, obs(1.0, 10, 20))
	ctl.Observe(sys, obs(1.0, 10, 20))
	before := ctl.HPWays()
	// The spike would trigger a phase reset; disabled, stable IPC shrinks.
	if err := ctl.Observe(sys, obs(1.0, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if got := ctl.HPWays(); got != before-1 {
		t.Fatalf("ways = %d, want shrink to %d", got, before-1)
	}
}

func TestTraceEventsEmitted(t *testing.T) {
	ctl, sys := newCtl(t)
	var kinds []EventKind
	ctl.Trace = func(e Event) { kinds = append(kinds, e.Kind) }
	ctl.Observe(sys, obs(1.0, 5, 20))
	ctl.Observe(sys, obs(1.0, 5, 20))
	ctl.Observe(sys, obs(0.5, 5, 20))
	want := []EventKind{EventHold, EventShrink, EventReset}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, kinds[i], want[i])
		}
	}
}

func TestSetupResetsState(t *testing.T) {
	ctl, sys := newCtl(t)
	ctl.Observe(sys, obs(0.8, 5, 60)) // -> sampling, CT-T
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if !ctl.CTFavoured() || ctl.GroupState(0) != "optimise" || ctl.HPWays() != 19 {
		t.Fatal("Setup did not reset controller state")
	}
}

func TestNameAndConfig(t *testing.T) {
	ctl, _ := newCtl(t)
	if ctl.Name() != "DICER" {
		t.Fatalf("name %q", ctl.Name())
	}
	if ctl.Config().BWThresholdGbps != 50 {
		t.Fatal("config not preserved")
	}
}

// Property: for any sequence of observations, the HP allocation stays
// within [MinHPWays, ways-MinBEWays] and masks stay legal.
func TestPropertyControllerBounds(t *testing.T) {
	f := func(ipcs []uint8, bws []uint8) bool {
		ctl := MustNew(DefaultConfig())
		sys := newFake(20)
		if err := ctl.Setup(sys); err != nil {
			return false
		}
		n := len(ipcs)
		if len(bws) < n {
			n = len(bws)
		}
		if n > 40 {
			n = 40
		}
		for i := 0; i < n; i++ {
			ipc := 0.1 + float64(ipcs[i]%20)/10
			bw := float64(bws[i] % 80)
			hpBW := bw / 4
			if err := ctl.Observe(sys, obs(ipc, hpBW, bw)); err != nil {
				return false
			}
			if ctl.HPWays() < 1 || ctl.HPWays() > 19 {
				return false
			}
			hp, be := sys.masks[policy.HPClos], sys.masks[policy.BEClos]
			if hp == 0 || be == 0 || hp&be != 0 {
				return false
			}
			if cache.CheckMask(hp, 20) != nil || cache.CheckMask(be, 20) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

var _ resctrl.System = (*fakeSystem)(nil)

func BenchmarkObserveOptimise(b *testing.B) {
	ctl := MustNew(DefaultConfig())
	sys := newFake(20)
	if err := ctl.Setup(sys); err != nil {
		b.Fatal(err)
	}
	p := obs(1.0, 5, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctl.Observe(sys, p); err != nil {
			b.Fatal(err)
		}
	}
}
