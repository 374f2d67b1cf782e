package core

import (
	"testing"

	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Failure-injection tests: the controller must stay safe (legal masks, no
// panics, bounded allocations) when the monitoring substrate misbehaves —
// dropped counters, zero readings, degenerate platforms. A production
// controller reads real MSRs; all of these happen in practice.

// emptyPeriod simulates a complete counter dropout: no cores, no groups.
func emptyPeriod() resctrl.Period { return resctrl.Period{Seconds: 1} }

func TestCounterDropoutDoesNotCrash(t *testing.T) {
	ctl, sys := newCtl(t)
	for i := 0; i < 10; i++ {
		if err := ctl.Observe(sys, emptyPeriod()); err != nil {
			t.Fatalf("dropout period %d: %v", i, err)
		}
		if ctl.HPWays() < 1 || ctl.HPWays() > 19 {
			t.Fatalf("dropout period %d: HP ways %d out of bounds", i, ctl.HPWays())
		}
	}
}

func TestZeroIPCReadings(t *testing.T) {
	// A crashed or fully stalled HP reports IPC 0 for many periods; the
	// controller should settle somewhere legal rather than oscillate out
	// of bounds.
	ctl, sys := newCtl(t)
	for i := 0; i < 30; i++ {
		if err := ctl.Observe(sys, obs(0, 0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if ctl.HPWays() < 1 {
		t.Fatalf("HP ways %d", ctl.HPWays())
	}
	hp, be := sys.masks[policy.HPClos], sys.masks[policy.BEClos]
	if hp == 0 || be == 0 || hp&be != 0 {
		t.Fatalf("illegal masks %x/%x after zero readings", hp, be)
	}
}

func TestZeroBandwidthWithPhaseHistory(t *testing.T) {
	// Zero bandwidth in the history must not blow up the geometric mean
	// (0*0*0 -> cbrt(0) = 0; any positive reading then looks like an
	// infinite spike, which is fine — but it must not panic or divide by
	// zero).
	ctl, sys := newCtl(t)
	ctl.Observe(sys, obs(1.0, 0, 10))
	ctl.Observe(sys, obs(1.0, 0, 10))
	ctl.Observe(sys, obs(1.0, 0, 10))
	if err := ctl.Observe(sys, obs(1.0, 5, 15)); err != nil {
		t.Fatal(err)
	}
	// 5 > (1.3)*geomean(0,0,0)=0: phase change fires; the reset must be
	// legal.
	if ctl.HPWays() < 1 || ctl.HPWays() > 19 {
		t.Fatalf("HP ways %d", ctl.HPWays())
	}
}

func TestTwoWayCache(t *testing.T) {
	// The smallest platform DICER can manage: 2 ways, one each.
	ctl := MustNew(DefaultConfig())
	sys := newFake(2)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if ctl.HPWays() != 1 {
		t.Fatalf("2-way setup gives HP %d ways", ctl.HPWays())
	}
	// Stable IPC cannot shrink below the minimum; saturation sampling has
	// nothing to explore; nothing may error.
	seq := []resctrl.Period{obs(1, 5, 20), obs(1, 5, 20), obs(1, 5, 60), obs(0.5, 5, 60)}
	for i, p := range seq {
		if err := ctl.Observe(sys, p); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if ctl.HPWays() != 1 {
			t.Fatalf("step %d: HP ways %d on a 2-way cache", i, ctl.HPWays())
		}
	}
}

func TestSixtyFourWayCache(t *testing.T) {
	ctl := MustNew(DefaultConfig())
	sys := newFake(64)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if ctl.HPWays() != 63 {
		t.Fatalf("64-way setup gives HP %d ways", ctl.HPWays())
	}
	// Run a full sampling pass; every mask must remain legal at width 64.
	ctl.Observe(sys, obs(0.5, 5, 60))
	for ctl.GroupState(0) == "sampling" {
		if err := ctl.Observe(sys, obs(0.5, 5, 60)); err != nil {
			t.Fatal(err)
		}
		if sys.masks[policy.HPClos]&sys.masks[policy.BEClos] != 0 {
			t.Fatal("mask overlap on 64-way platform")
		}
	}
}

func TestNegativeBandwidthReading(t *testing.T) {
	// A wrapped MBM counter can produce a negative delta upstream; the
	// controller must treat it as benign (not saturated, no phase spike).
	ctl, sys := newCtl(t)
	ctl.Observe(sys, obs(1.0, 10, 20))
	if err := ctl.Observe(sys, obs(1.0, -5, -5)); err != nil {
		t.Fatal(err)
	}
	if ctl.GroupState(0) == "sampling" {
		t.Fatal("negative bandwidth must not look like saturation")
	}
}

func TestObserveBeforeSetup(t *testing.T) {
	// Observe on a never-setup controller: degenerate but must not panic.
	ctl := MustNew(DefaultConfig())
	sys := newFake(20)
	sys.masks[policy.HPClos] = 0xfffff
	sys.masks[policy.BEClos] = 0xfffff
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panicked: %v", r)
		}
	}()
	_ = ctl.Observe(sys, obs(1, 5, 20))
}

func TestSamplingWithStepLargerThanCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleStep = 50
	ctl := MustNew(cfg)
	sys := newFake(20)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	// Saturation with a step larger than the whole cache: the sampling
	// pass degenerates to "keep the current allocation" without errors.
	if err := ctl.Observe(sys, obs(0.5, 5, 60)); err != nil {
		t.Fatal(err)
	}
	if ctl.HPWays() < 1 || ctl.HPWays() > 19 {
		t.Fatalf("HP ways %d", ctl.HPWays())
	}
}
