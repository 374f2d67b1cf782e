package resctrl

import (
	"testing"

	"dicer/internal/app"
	"dicer/internal/machine"
	"dicer/internal/sim"
)

// TestMeterRebaseline pins the attach/detach hygiene the fleet layer
// relies on: after swapping the process on a core, a rebaselined meter
// reports sane (non-negative) per-period readings, whereas the stale
// baseline would subtract the old process's cumulative counters from the
// new one's.
func TestMeterRebaseline(t *testing.T) {
	m := machine.Default()
	r, err := sim.New(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 1, app.MustByName("lbm1")); err != nil {
		t.Fatal(err)
	}
	emu := NewEmu(r, false)
	meter := NewMeter(emu)
	for i := 0; i < 8; i++ {
		r.Step(0.25)
	}
	p := meter.Sample()
	if p.CoreIPC(1) <= 0 {
		t.Fatalf("expected positive IPC on core 1, got %g", p.CoreIPC(1))
	}

	// Swap the job on core 1: counters restart from zero.
	if err := r.Detach(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, 1, app.MustByName("gcc_base1")); err != nil {
		t.Fatal(err)
	}
	meter.Rebaseline()
	for i := 0; i < 8; i++ {
		r.Step(0.25)
	}
	p = meter.Sample()
	if ipc := p.CoreIPC(1); ipc <= 0 {
		t.Fatalf("rebaselined meter reported non-positive IPC %g for fresh process", ipc)
	}
	for _, g := range p.Groups {
		if g.BandwidthGbps < 0 {
			t.Fatalf("rebaselined meter reported negative bandwidth %g for clos %d", g.BandwidthGbps, g.Clos)
		}
	}
}

// TestMeterSampleByID pins which baseline entries Sample matches when the
// monitored population changed since the baseline without a Rebaseline:
// each core and CLOS of the period is the delta against the baseline
// entry with the same id, and an absent one counts as zero, so a fresh
// process reports its totals. The swap keeps the count, so only the ids
// tell its reading apart from the baseline's.
func TestMeterSampleByID(t *testing.T) {
	milc := app.MustByName("milc1")
	cases := []struct {
		name   string
		change func(r *sim.Runner) error
	}{
		{"attach to a free core", func(r *sim.Runner) error { return r.Attach(4, 1, milc) }},
		{"detach", func(r *sim.Runner) error { return r.Detach(1) }},
		{"swap core 2 for core 5", func(r *sim.Runner) error {
			if err := r.Detach(2); err != nil {
				return err
			}
			return r.Attach(5, 1, milc)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := sim.New(machine.Default(), 2)
			if err != nil {
				t.Fatal(err)
			}
			// Four different profiles, so no two cores read alike.
			for core, name := range []string{"omnetpp1", "gcc_base1", "lbm1", "mcf1"} {
				if err := r.Attach(core, min(core, 1), app.MustByName(name)); err != nil {
					t.Fatal(err)
				}
			}
			meter := NewMeter(NewEmu(r, false))
			for i := 0; i < 4; i++ {
				r.Step(0.25)
			}
			meter.Sample()

			// The baseline is the reading that Sample just took.
			type counts struct{ instructions, cycles float64 }
			base := map[int]counts{}
			for core := 0; core < r.Machine().Cores; core++ {
				if p := r.Proc(core); p != nil {
					base[core] = counts{p.Instructions, p.Cycles}
				}
			}
			baseBytes := map[int]float64{}
			snap0 := r.Snapshot()
			for _, g := range snap0.Clos {
				baseBytes[g.Clos] = g.MemBytes
			}

			if err := tc.change(r); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				r.Step(0.25)
			}
			got := meter.Sample()
			snap := r.Snapshot()
			dt := snap.Time - snap0.Time
			if got.Seconds != dt {
				t.Fatalf("period of %g s, want %g", got.Seconds, dt)
			}

			if len(got.Cores) != len(snap.Cores) {
				t.Fatalf("%d cores in the period, want %d", len(got.Cores), len(snap.Cores))
			}
			for i, c := range snap.Cores {
				p, b := r.Proc(c.Core), base[c.Core]
				want := PeriodCore{Core: c.Core, Clos: c.Clos, Name: p.Profile.Name,
					IPC: (p.Instructions - b.instructions) / (p.Cycles - b.cycles)}
				if got.Cores[i] != want {
					t.Errorf("core entry %d = %+v, want %+v", i, got.Cores[i], want)
				}
			}
			if len(got.Groups) != len(snap.Clos) {
				t.Fatalf("%d groups in the period, want %d", len(got.Groups), len(snap.Clos))
			}
			for i, g := range snap.Clos {
				want := PeriodGroup{Clos: g.Clos, CBM: g.Mask, OccupancyBytes: g.OccupancyBytes,
					BandwidthGbps: (g.MemBytes - baseBytes[g.Clos]) * 8 / dt / 1e9}
				if got.Groups[i] != want {
					t.Errorf("group entry %d = %+v, want %+v", i, got.Groups[i], want)
				}
			}
		})
	}
}
