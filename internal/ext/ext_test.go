package ext

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/cache"
	"dicer/internal/core"
	"dicer/internal/machine"
	"dicer/internal/mrc"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// streamApp is a bandwidth-hungry test workload.
func streamApp() app.Profile {
	return app.Profile{Name: "stream", Suite: "t", Class: app.ClassStream,
		Phases: []app.Phase{{Name: "p", Instructions: 1e12, BaseCPI: 0.5, APKI: 30,
			Curve: mrc.MustCurve(0.8, mrc.Component{Bytes: 0.5 * app.MB, Frac: 0.1})}}}
}

// quietApp is a compute-bound test workload.
func quietApp() app.Profile {
	return app.Profile{Name: "quiet", Suite: "t", Class: app.ClassCompute,
		Phases: []app.Phase{{Name: "p", Instructions: 1e12, BaseCPI: 0.6, APKI: 2,
			Curve: mrc.MustCurve(0.05, mrc.Component{Bytes: 0.3 * app.MB, Frac: 0.5})}}}
}

// build constructs a 1 HP + n BE emulated platform.
func build(t *testing.T, hp, be app.Profile, n int, withMBA bool) *resctrl.Emu {
	t.Helper()
	r, err := sim.New(machine.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(0, policy.HPClos, hp); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if err := r.Attach(i, policy.BEClos, be); err != nil {
			t.Fatal(err)
		}
	}
	return resctrl.NewEmu(r, withMBA)
}

// drive runs pol for periods monitoring periods.
func drive(t *testing.T, emu *resctrl.Emu, pol policy.Policy, periods int) {
	t.Helper()
	if err := pol.Setup(emu); err != nil {
		t.Fatal(err)
	}
	meter := resctrl.NewMeter(emu)
	for i := 0; i < periods; i++ {
		for s := 0; s < 4; s++ {
			emu.Runner().Step(0.25)
		}
		if err := pol.Observe(emu, meter.Sample()); err != nil {
			t.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// DicerMBA

func TestMBAConfigValidation(t *testing.T) {
	if _, err := NewDicerMBA(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDicerMBA(core.Config{}); err == nil {
		t.Fatal("expected error for invalid DICER config")
	}
	low := core.DefaultConfig()
	low.BWThresholdGbps = mbaFloorGbps - 1
	if _, err := NewDicerMBA(low); err == nil {
		t.Fatal("expected error for a DICER threshold below the MBA floor")
	}
}

func TestDicerMBAThrottlesSaturation(t *testing.T) {
	emu := build(t, streamApp(), streamApp(), 9, true)
	d, err := NewDicerMBA(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Name() != "DICER+MBA" {
		t.Fatalf("name %q", d.Name())
	}
	drive(t, emu, d, 20)
	// Ten streamers demand far more than 50 Gbps; the AIMD loop must have
	// imposed a BE cap.
	if d.BECapGbps() <= 0 {
		t.Fatal("saturated workload should leave a BE bandwidth cap in place")
	}
	meter := resctrl.NewMeter(emu)
	emu.Runner().Step(1)
	p := meter.Sample()
	// The cap bounds BE consumption to roughly the cap value.
	if p.GroupBW(policy.BEClos) > d.BECapGbps()*1.1 {
		t.Fatalf("BE bandwidth %.1f exceeds cap %.1f", p.GroupBW(policy.BEClos), d.BECapGbps())
	}
}

func TestDicerMBAUncapsQuietWorkload(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 3, true)
	d, err := NewDicerMBA(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	drive(t, emu, d, 10)
	if d.BECapGbps() != 0 {
		t.Fatalf("quiet workload should stay uncapped, cap = %.1f", d.BECapGbps())
	}
}

func TestDicerMBAProtectsHPBetterThanPlainDICER(t *testing.T) {
	run := func(pol policy.Policy, withMBA bool) float64 {
		emu := build(t, streamApp(), streamApp(), 9, withMBA)
		drive(t, emu, pol, 30)
		return emu.Runner().Proc(0).IPC()
	}
	plain := run(core.MustNew(core.DefaultConfig()), false)
	mba, err := NewDicerMBA(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	withMBA := run(mba, true)
	if withMBA <= plain {
		t.Fatalf("MBA should protect a bandwidth-bound HP: %.3f (MBA) vs %.3f (plain)",
			withMBA, plain)
	}
}

func TestDicerMBARequiresMBASupport(t *testing.T) {
	emu := build(t, streamApp(), streamApp(), 3, false)
	d, err := NewDicerMBA(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Setup(emu); err == nil {
		t.Fatal("expected setup failure on MBA-less platform")
	}
}

// ---------------------------------------------------------------------------
// BEManager

func TestBEManagerConfigValidation(t *testing.T) {
	if _, err := NewBEManager(policy.Unmanaged{}, 50); err != nil {
		t.Fatal(err)
	}
	for _, threshold := range []float64{0, -1} {
		if _, err := NewBEManager(policy.Unmanaged{}, threshold); err == nil {
			t.Errorf("threshold %g: expected error", threshold)
		}
	}
	if _, err := NewBEManager(nil, 50); err == nil {
		t.Fatal("expected error for nil inner policy")
	}
}

func TestBEManagerParksUnderSaturation(t *testing.T) {
	emu := build(t, streamApp(), streamApp(), 9, false)
	mgr, err := NewBEManager(policy.Unmanaged{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Name() != "UM+BEMGR" {
		t.Fatalf("name %q", mgr.Name())
	}
	drive(t, emu, mgr, 30)
	if mgr.ParkedBEs() == 0 {
		t.Fatal("sustained saturation should park BEs")
	}
	// At least minActiveBEs keep running.
	active := 0
	for core := 1; core <= 9; core++ {
		if !emu.CoreParked(core) {
			active++
		}
	}
	if active < minActiveBEs {
		t.Fatalf("only %d BEs active", active)
	}
	// Parked cores must actually be frozen.
	stopped := false
	for core := 1; core <= 9; core++ {
		if emu.CoreParked(core) {
			before := emu.Runner().Proc(core).Instructions
			emu.Runner().Step(1)
			if emu.Runner().Proc(core).Instructions == before {
				stopped = true
			}
			break
		}
	}
	if !stopped {
		t.Fatal("parked BE kept running")
	}
}

func TestBEManagerLeavesQuietWorkloadAlone(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 9, false)
	mgr, err := NewBEManager(policy.Unmanaged{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, emu, mgr, 15)
	if mgr.ParkedBEs() != 0 {
		t.Fatalf("quiet workload parked %d BEs", mgr.ParkedBEs())
	}
}

func TestBEManagerUnparksWhenLoadDrops(t *testing.T) {
	// Drive saturation manually, then feed quiet periods and watch the
	// parked BEs return. Uses a fake period stream for precise control.
	emu := build(t, streamApp(), streamApp(), 9, false)
	mgr, err := NewBEManager(policy.Unmanaged{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Setup(emu); err != nil {
		t.Fatal(err)
	}
	hot := resctrl.Period{TotalGbps: 60}
	cold := resctrl.Period{TotalGbps: 10}
	for i := 0; i < parkPatience; i++ {
		if err := mgr.Observe(emu, hot); err != nil {
			t.Fatal(err)
		}
	}
	if mgr.ParkedBEs() != 1 {
		t.Fatalf("parked %d after patience, want 1", mgr.ParkedBEs())
	}
	for i := 0; i < parkPatience; i++ {
		if err := mgr.Observe(emu, cold); err != nil {
			t.Fatal(err)
		}
	}
	if mgr.ParkedBEs() != 0 {
		t.Fatalf("still %d parked after cold run", mgr.ParkedBEs())
	}
}

func TestBEManagerRequiresParker(t *testing.T) {
	mgr, err := NewBEManager(policy.Unmanaged{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	// A System that cannot park must be rejected at Observe time.
	var sys nonParker
	if err := mgr.Setup(&sys); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Observe(&sys, resctrl.Period{TotalGbps: 60}); err == nil {
		t.Fatal("expected error for non-parking system")
	}
}

// nonParker is a System without CoreParker support.
type nonParker struct{ masks [4]uint64 }

func (n *nonParker) NumWays() int { return 20 }
func (n *nonParker) NumClos() int { return 2 }
func (n *nonParker) SetCBM(clos int, mask uint64) error {
	n.masks[clos] = mask
	return nil
}
func (n *nonParker) CBM(clos int) uint64          { return n.masks[clos] }
func (n *nonParker) SetMBACap(int, float64) error { return nil }
func (n *nonParker) LinkCapacityGbps() float64    { return 68.3 }
func (n *nonParker) Counters() sim.Snapshot       { return sim.Snapshot{} }

// ---------------------------------------------------------------------------
// Overlapping partitions

func TestOverlapStaticMasks(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 3, false)
	o := OverlapStatic{HPExclusive: 4, OverlapWays: 6}
	if o.Name() != "Overlap(4+6)" {
		t.Fatalf("name %q", o.Name())
	}
	if err := o.Setup(emu); err != nil {
		t.Fatal(err)
	}
	hp := emu.CBM(policy.HPClos)
	be := emu.CBM(policy.BEClos)
	// HP: ways 10..19 (4 exclusive + 6 shared); BE: ways 0..15.
	if hp != cache.ContiguousMask(10, 10) {
		t.Fatalf("HP mask %#x", hp)
	}
	if be != cache.ContiguousMask(0, 16) {
		t.Fatalf("BE mask %#x", be)
	}
	if overlap := hp & be; overlap != cache.ContiguousMask(10, 6) {
		t.Fatalf("overlap %#x, want 6 ways at 10", overlap)
	}
	if err := o.Observe(emu, resctrl.Period{}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapStaticValidation(t *testing.T) {
	emu := build(t, quietApp(), quietApp(), 1, false)
	if err := (OverlapStatic{HPExclusive: 0, OverlapWays: 1}).Setup(emu); err == nil {
		t.Fatal("expected error for zero exclusive ways")
	}
	if err := (OverlapStatic{HPExclusive: 15, OverlapWays: 10}).Setup(emu); err == nil {
		t.Fatal("expected error for overflow")
	}
	if err := (OverlapStatic{HPExclusive: 20, OverlapWays: 0}).Setup(emu); err == nil {
		t.Fatal("expected error leaving BEs nothing")
	}
}

func TestOverlapBenefitsSharedHotData(t *testing.T) {
	// Overlap vs strict split with the same HP reach: the BEs get more
	// reachable capacity under overlap, so their IPC should not be worse.
	hp := quietApp()
	be := app.Profile{Name: "beCache", Suite: "t", Class: app.ClassCache,
		Phases: []app.Phase{{Name: "p", Instructions: 1e12, BaseCPI: 0.8, APKI: 12,
			Curve: mrc.MustCurve(0.1, mrc.Component{Bytes: 4 * app.MB, Frac: 0.5})}}}

	runBE := func(pol policy.Policy) float64 {
		emu := build(t, hp, be, 5, false)
		drive(t, emu, pol, 10)
		return emu.Runner().Proc(1).IPC()
	}
	strict := runBE(policy.Static{HPWays: 10})
	overlap := runBE(OverlapStatic{HPExclusive: 4, OverlapWays: 6})
	if overlap < strict {
		t.Fatalf("overlap BE IPC %.3f < strict %.3f", overlap, strict)
	}
}
