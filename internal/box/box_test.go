package box

import (
	"reflect"
	"testing"

	"dicer/internal/app"
	"dicer/internal/core"
	"dicer/internal/machine"
	"dicer/internal/resctrl"
)

// TestWrappedRunKeepsEmuMeter: a run on a wrapped substrate samples its
// own meter, and the next plain build of the same box goes back to
// Emu's one meter and reads exactly what a fresh box reads.
func TestWrappedRunKeepsEmuMeter(t *testing.T) {
	cfg := Config{
		HPs:            []HP{{Profile: app.MustByName("omnetpp1"), SLO: 0.9}},
		BEs:            []app.Profile{app.MustByName("milc1"), app.MustByName("milc1")},
		PeriodSec:      1,
		StepsPerPeriod: 4,
		DICER:          core.DefaultConfig(),
	}
	run := func(b *Box, wrap bool) []float64 {
		t.Helper()
		if err := b.Build(cfg, nil); err != nil {
			t.Fatal(err)
		}
		if wrap {
			b.Sys = resctrl.NewEmu(b.Runner, true)
		}
		if err := b.Start(); err != nil {
			t.Fatal(err)
		}
		var ipcs []float64
		for period := 0; period < 10; period++ {
			p, err := b.Period(period)
			if err != nil {
				t.Fatal(err)
			}
			ipcs = append(ipcs, p.CoreIPC(0), p.TotalGbps)
		}
		return ipcs
	}
	newBox := func() *Box {
		b := new(Box)
		if err := b.Init(machine.Default()); err != nil {
			t.Fatal(err)
		}
		return b
	}

	want := run(newBox(), false)
	b := newBox()
	run(b, true)
	if b.Meter == b.emuMeter {
		t.Fatal("the wrapped run sampled Emu's meter")
	}
	got := run(b, false)
	if b.Meter != b.emuMeter || b.Sys != resctrl.System(b.Emu) {
		t.Fatal("the plain rebuild did not go back to Emu and its meter")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt box read %v, fresh box %v", got, want)
	}
}
