package invariant

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dicer/internal/cache"
	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/mrc"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// fake is a minimal scripted resctrl.System whose masks tests can corrupt
// directly to trip individual invariants.
type fake struct {
	ways    int
	masks   map[int]uint64
	lenient bool // accept illegal masks (to model a buggy substrate)
	pending int
}

func newFakeSys(ways int) *fake { return &fake{ways: ways, masks: map[int]uint64{}} }

func (f *fake) NumWays() int { return f.ways }
func (f *fake) NumClos() int { return 2 }
func (f *fake) SetCBM(clos int, mask uint64) error {
	if !f.lenient {
		if err := cache.CheckMask(mask, f.ways); err != nil {
			return err
		}
	}
	f.masks[clos] = mask
	return nil
}
func (f *fake) CBM(clos int) uint64          { return f.masks[clos] }
func (f *fake) SetMBACap(int, float64) error { return errors.New("no MBA") }
func (f *fake) LinkCapacityGbps() float64    { return 68.3 }
func (f *fake) Counters() sim.Snapshot       { return sim.Snapshot{} }
func (f *fake) ActuationClean() bool         { return f.pending == 0 }

var _ resctrl.System = (*fake)(nil)

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

func setup(t *testing.T) (*core.Controller, *fake, *Checker) {
	t.Helper()
	ctl := core.MustNew(core.DefaultConfig())
	sys := newFakeSys(20)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	return ctl, sys, NewChecker(ctl.Config())
}

func TestCleanRunHasNoViolations(t *testing.T) {
	ctl, sys, k := setup(t)
	seq := []resctrl.Period{
		obs(1.0, 5, 20), obs(1.0, 5, 20), obs(0.7, 5, 20), obs(0.9, 5, 20),
		obs(0.9, 5, 60), obs(0.8, 5, 60), obs(0.8, 5, 60), obs(0.9, 5, 20),
	}
	for i, p := range seq {
		if err := ctl.Observe(sys, p); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if err := k.Check(sys, ctl, true); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if k.Checks() != len(seq) || k.violations != 0 {
		t.Fatalf("checks=%d violations=%d", k.Checks(), k.violations)
	}
}

func TestMaskLegalViolations(t *testing.T) {
	ctl, sys, k := setup(t)
	ctl.Observe(sys, obs(1, 5, 20))
	k.Check(sys, ctl, true)

	// Empty BE mask, injected after the observation so no controller
	// write heals it before the check.
	ctl.Observe(sys, obs(1, 5, 20))
	sys.masks[policy.BEClos] = 0
	err := k.Check(sys, ctl, false)
	if err == nil || !strings.Contains(err.Error(), "MaskLegal") {
		t.Fatalf("empty mask not flagged: %v", err)
	}

	// Non-contiguous HP mask.
	sys.lenient = true
	ctl.Observe(sys, obs(1, 5, 20))
	sys.masks[policy.BEClos] = 1
	sys.masks[policy.HPClos] = 0b1010
	err = k.Check(sys, ctl, false)
	if err == nil || !strings.Contains(err.Error(), "MaskLegal") {
		t.Fatalf("gap mask not flagged: %v", err)
	}
	var ie *Error
	if !errors.As(err, &ie) || len(ie.Violations) == 0 || ie.Violations[0].Name != "MaskLegal" {
		t.Fatalf("error shape: %#v", err)
	}
}

func TestConsistencyViolationOnlyWhenQuiescent(t *testing.T) {
	ctl, sys, k := setup(t)
	ctl.Observe(sys, obs(1, 5, 20))
	// Corrupt the installed split relative to the controller's intent.
	sys.masks[policy.HPClos] = policy.HPMask(20, 5)
	sys.masks[policy.BEClos] = policy.BEMask(20, 5)

	// Writes in flight: divergence is expected, not a violation.
	if err := k.Check(sys, ctl, false); err != nil {
		t.Fatalf("non-quiescent divergence flagged: %v", err)
	}
	// Quiescent: divergence is a Consistency violation. The improved-IPC
	// reading takes the hold path, so the controller writes nothing and
	// the corruption survives to the check.
	ctl.Observe(sys, obs(1.2, 5, 20))
	sys.masks[policy.HPClos] = policy.HPMask(20, 5)
	sys.masks[policy.BEClos] = policy.BEMask(20, 5)
	err := k.Check(sys, ctl, true)
	if err == nil || !strings.Contains(err.Error(), "Consistency") {
		t.Fatalf("quiescent divergence not flagged: %v", err)
	}
}

func TestPeriodMonotoneViolation(t *testing.T) {
	ctl, sys, k := setup(t)
	ctl.Observe(sys, obs(1, 5, 20))
	if err := k.Check(sys, ctl, true); err != nil {
		t.Fatal(err)
	}
	// Skip an observation: the checker must notice the gap.
	ctl.Observe(sys, obs(1, 5, 20))
	ctl.Observe(sys, obs(1, 5, 20))
	err := k.Check(sys, ctl, true)
	if err == nil || !strings.Contains(err.Error(), "PeriodMonotone") {
		t.Fatalf("period gap not flagged: %v", err)
	}
}

func TestNilControllerChecksMasksOnly(t *testing.T) {
	sys := newFakeSys(20)
	if err := (policy.CacheTakeover{}).Setup(sys); err != nil {
		t.Fatal(err)
	}
	k := NewChecker(core.DefaultConfig())
	if err := k.Check(sys, nil, true); err != nil {
		t.Fatalf("legal CT masks flagged: %v", err)
	}
	sys.masks[policy.HPClos] = 0
	if err := k.Check(sys, nil, true); err == nil {
		t.Fatal("empty mask with nil controller not flagged")
	}
}

func TestGuardPassesCleanPolicy(t *testing.T) {
	ctl := core.MustNew(core.DefaultConfig())
	g := NewGuard(ctl, ctl.Config())
	sys := newFakeSys(20)
	if err := g.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if g.Name() != "DICER+guard" {
		t.Fatalf("name %q", g.Name())
	}
	for i := 0; i < 10; i++ {
		if err := g.Observe(sys, obs(1, 5, 20)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if g.Checker().violations != 0 {
		t.Fatalf("violations %d", g.Checker().violations)
	}
}

func TestGuardCatchesCorruptedSubstrate(t *testing.T) {
	ctl := core.MustNew(core.DefaultConfig())
	g := NewGuard(ctl, ctl.Config())
	sys := newFakeSys(20)
	if err := g.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if err := g.Observe(sys, obs(1, 5, 20)); err != nil {
		t.Fatal(err)
	}
	// A buggy substrate silently loses the BE mask. The improved-IPC
	// reading holds (no controller write), so the corruption survives.
	sys.masks[policy.BEClos] = 0
	err := g.Observe(sys, obs(1.2, 5, 20))
	var ie *Error
	if err == nil || !errors.As(err, &ie) {
		t.Fatalf("guard let a corrupted substrate through: %v", err)
	}
}

func TestGuardNonDICERPolicy(t *testing.T) {
	g := NewGuard(policy.CacheTakeover{}, core.DefaultConfig())
	sys := newFakeSys(20)
	if err := g.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if err := g.Observe(sys, obs(1, 5, 20)); err != nil {
		t.Fatal(err)
	}
	if g.Name() != "CT+guard" {
		t.Fatalf("name %q", g.Name())
	}
}

func TestGuardRespectsPendingWrites(t *testing.T) {
	ctl := core.MustNew(core.DefaultConfig())
	g := NewGuard(ctl, ctl.Config())
	sys := newFakeSys(20)
	if err := g.Setup(sys); err != nil {
		t.Fatal(err)
	}
	// Diverge intent from installed, but report writes in flight: the
	// guard must not flag Consistency.
	sys.masks[policy.HPClos] = policy.HPMask(20, 5)
	sys.masks[policy.BEClos] = policy.BEMask(20, 5)
	sys.pending = 1
	// The IPC collapse triggers a reset; whatever the controller does,
	// pending writes suppress only the Consistency check.
	if err := g.Observe(sys, obs(1, 5, 20)); err != nil {
		t.Fatalf("pending writes: %v", err)
	}
}

// groupedFake is fake with four CLOS ids and core moving, the substrate a
// grouped controller plans onto.
type groupedFake struct{ fake }

func (f *groupedFake) NumClos() int            { return 4 }
func (f *groupedFake) MoveCore(int, int) error { return nil }

// groupedPeriod is a reading for three HP groups (one app each on CLOS
// 0-2) and the BE partition on CLOS 3.
func groupedPeriod(ipc, bw [3]float64, beBW float64) resctrl.Period {
	p := resctrl.Period{Seconds: 1, TotalGbps: beBW}
	for gi := range ipc {
		p.Cores = append(p.Cores, resctrl.PeriodCore{Core: gi, Clos: gi, IPC: ipc[gi]})
		p.Groups = append(p.Groups, resctrl.PeriodGroup{Clos: gi, BandwidthGbps: bw[gi]})
		p.TotalGbps += bw[gi]
	}
	p.Cores = append(p.Cores, resctrl.PeriodCore{Core: 3, Clos: 3, IPC: 0.5})
	p.Groups = append(p.Groups, resctrl.PeriodGroup{Clos: 3, BandwidthGbps: beBW})
	return p
}

// guardedThreeHP runs a three-group controller (one CLOS per HP app)
// under the runtime guard.
func guardedThreeHP(t *testing.T) (*Guard, *core.Controller, *groupedFake) {
	t.Helper()
	specs := make([]cluster.AppSpec, 3)
	for i, mb := range []float64{16, 8, 2} {
		specs[i] = cluster.AppSpec{Name: fmt.Sprint("hp", i), Core: i, SLO: 0.9,
			Curve: mrc.MustCurve(0.05, mrc.Component{Bytes: mb * (1 << 20), Frac: 0.6})}
	}
	ctl, err := core.NewMulti(core.MultiConfig{
		Group:      core.DefaultConfig(),
		WayBytes:   1.25 * (1 << 20),
		CLOSBudget: 4,
		Grouping:   core.GroupingPerApp,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sys := &groupedFake{*newFakeSys(20)}
	g := Wrap(ctl)
	if err := g.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if ctl.NumGroups() != 3 {
		t.Fatalf("per-app plan has %d groups, want 3", ctl.NumGroups())
	}
	return g, ctl, sys
}

// TestGuardGroupedControllerClean drives a three-group controller through
// shrinking, resets, rollbacks and saturation sampling: the checker
// validates every group against its own budget and the stacked layout,
// so a correct run raises no violation.
func TestGuardGroupedControllerClean(t *testing.T) {
	g, ctl, sys := guardedThreeHP(t)
	var seq []resctrl.Period
	add := func(n int, ipc [3]float64, beBW float64) {
		for i := 0; i < n; i++ {
			seq = append(seq, groupedPeriod(ipc, [3]float64{5, 4, 3}, beBW))
		}
	}
	add(20, [3]float64{1, 0.8, 0.6}, 6)   // steady: every group shrinks
	add(1, [3]float64{0.5, 0.8, 0.3}, 6)  // groups 0 and 2 degrade: reset
	add(1, [3]float64{0.4, 0.8, 0.7}, 6)  // group 0 rolls back, group 2 validates
	add(8, [3]float64{1, 0.8, 0.6}, 6)    // steady again
	add(12, [3]float64{1, 0.8, 0.6}, 50)  // saturated: every group samples
	add(10, [3]float64{0.9, 0.9, 0.9}, 6) // settle
	for i, p := range seq {
		if err := g.Observe(sys, p); err != nil {
			t.Fatalf("period %d: %v", i, err)
		}
	}
	if got := g.Checker().violations; got != 0 {
		t.Fatalf("%d violations on a clean grouped run", got)
	}
	if ctl.Period() != len(seq) {
		t.Fatalf("controller at period %d, want %d", ctl.Period(), len(seq))
	}
}

// TestGuardCatchesCorruptedGroupMask: a substrate that rewrites one HP
// group's mask is caught — as Consistency while the mask stays legal, as
// MaskLegal once it is empty — and the text names the group.
func TestGuardCatchesCorruptedGroupMask(t *testing.T) {
	g, ctl, sys := guardedThreeHP(t)
	steady := groupedPeriod([3]float64{1, 0.8, 0.6}, [3]float64{5, 4, 3}, 6)
	if err := g.Observe(sys, steady); err != nil {
		t.Fatal(err)
	}
	// Steady readings after the first only shrink; take the hold path
	// with an improving reading so no controller write heals the mask.
	improved := groupedPeriod([3]float64{1.2, 1, 0.8}, [3]float64{5, 4, 3}, 6)
	sys.masks[1] = sys.masks[2]
	err := g.Observe(sys, improved)
	if err == nil || !strings.Contains(err.Error(), "Consistency: group 1 HP mask") {
		t.Fatalf("overlapping group mask not flagged: %v", err)
	}
	sys.masks[1] = 0
	err = g.Checker().Check(sys, ctl, true)
	if err == nil || !strings.Contains(err.Error(), "MaskLegal: clos 1 has an empty capacity mask") {
		t.Fatalf("empty group mask not flagged: %v", err)
	}
}
