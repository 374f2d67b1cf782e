package resctrl

import "testing"

// The experiment engine samples the meter once per monitoring period —
// ~557k times across the 59×59 sweep — so the steady-state sampling
// path (the runner fills the Meter's reading in place, then the Meter
// writes its Period) is pinned at zero allocations per call, and so is
// the baseline read.

func TestMeterSampleSteadyStateZeroAlloc(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	// Warm the Meter-owned buffers.
	for i := 0; i < 3; i++ {
		e.Runner().Step(0.25)
		m.Sample()
	}
	if got := testing.AllocsPerRun(200, func() {
		e.Runner().Step(0.25)
		if p := m.Sample(); p.Seconds <= 0 {
			t.Error("non-positive period")
		}
	}); got != 0 {
		t.Errorf("steady-state Sample allocates %v/op, want 0", got)
	}
}

func TestRebaselineSteadyStateZeroAlloc(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	m.Rebaseline()
	if got := testing.AllocsPerRun(200, func() {
		m.Rebaseline()
	}); got != 0 {
		t.Errorf("steady-state Rebaseline allocates %v/op, want 0", got)
	}
}
