package chaos

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"dicer/internal/app"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"

	"dicer/internal/machine"
)

// newSys builds a small simulated platform (HP + 3 BEs) wrapped in the
// given schedule.
func newSys(t *testing.T, cfg Config, seed int64) (*System, *sim.Runner) {
	t.Helper()
	m := machine.Default()
	r, err := sim.New(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(0, policy.HPClos, app.MustByName("omnetpp1")); err != nil {
		t.Fatal(err)
	}
	for core := 1; core <= 3; core++ {
		if err := r.Attach(core, policy.BEClos, app.MustByName("gcc_base1")); err != nil {
			t.Fatal(err)
		}
	}
	return New(resctrl.NewEmu(r, false), cfg, seed), r
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{DropoutProb: -0.1},
		{DropoutProb: 1.5},
		{FreezeProb: 2},
		{JitterPct: 1},
		{JitterPct: -0.2},
		{WriteFailProb: -1},
		{WriteDelayProb: 1.01},
		{FreezePeriods: -1},
		{DelayPeriods: -3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
	}
	for _, c := range append(Schedules(), Config{}) {
		if err := c.Validate(); err != nil {
			t.Errorf("schedule %q: %v", c.Name, err)
		}
	}
}

func TestActive(t *testing.T) {
	if (Config{}).Active() {
		t.Error("zero config must be inactive")
	}
	for _, c := range Schedules() {
		if !c.Active() {
			t.Errorf("schedule %q inactive", c.Name)
		}
	}
}

func TestScheduleByName(t *testing.T) {
	for _, want := range Schedules() {
		got, err := ScheduleByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%q: got %+v want %+v", want.Name, got, want)
		}
	}
	if c, err := ScheduleByName("none"); err != nil || c.Active() {
		t.Errorf("none: %+v, %v", c, err)
	}
	if _, err := ScheduleByName("bogus"); err == nil {
		t.Error("expected error for unknown schedule")
	}
}

func TestInactivePassThrough(t *testing.T) {
	sys, r := newSys(t, Config{}, 1)
	if err := policy.SplitWays(sys, 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.Step(0.5)
	}
	got := sys.Counters()
	want := resctrl.NewEmu(r, false).Counters()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("inactive chaos altered counters:\n got %+v\nwant %+v", got, want)
	}
	if sys.Stats().Dropouts+sys.Stats().FrozenReads+sys.Stats().JitteredReads+
		sys.Stats().WritesRejected+sys.Stats().WritesDelayed != 0 {
		t.Errorf("inactive chaos injected faults: %v", sys.Stats())
	}
}

func TestDropoutServesEmptySnapshots(t *testing.T) {
	sys, r := newSys(t, Config{DropoutProb: 0.5}, 42)
	dropped, served := 0, 0
	for i := 0; i < 60; i++ {
		r.Step(1)
		c := sys.Counters()
		if len(c.Cores) == 0 && len(c.Clos) == 0 {
			dropped++
		} else {
			served++
		}
	}
	if dropped == 0 || served == 0 {
		t.Fatalf("dropout 0.5 over 60 reads: %d dropped, %d served", dropped, served)
	}
	if sys.Stats().Dropouts != dropped {
		t.Errorf("stats dropouts %d, observed %d", sys.Stats().Dropouts, dropped)
	}
}

func TestFreezeRepeatsSnapshots(t *testing.T) {
	sys, r := newSys(t, Config{FreezeProb: 0.3, FreezePeriods: 2}, 7)
	var prev sim.Snapshot
	frozen := 0
	for i := 0; i < 60; i++ {
		r.Step(1)
		c := sys.Counters()
		if i > 0 && c.Time == prev.Time {
			frozen++
		}
		prev = c
	}
	if frozen == 0 {
		t.Fatal("freeze schedule never served a stale snapshot")
	}
	if sys.Stats().FrozenReads != frozen {
		t.Errorf("stats frozen %d, observed %d", sys.Stats().FrozenReads, frozen)
	}
}

func TestJitterKeepsCumulativeMonotone(t *testing.T) {
	sys, r := newSys(t, Config{JitterPct: 0.2}, 3)
	var prevInstr, prevMem float64
	for i := 0; i < 40; i++ {
		r.Step(1)
		c := sys.Counters()
		var instr, mem float64
		for _, cc := range c.Cores {
			instr += cc.Instructions
		}
		for _, g := range c.Clos {
			mem += g.MemBytes
			if g.OccupancyBytes < 0 {
				t.Fatalf("read %d: negative occupancy", i)
			}
		}
		if instr < prevInstr || mem < prevMem {
			t.Fatalf("read %d: cumulative counters regressed (%g<%g or %g<%g)",
				i, instr, prevInstr, mem, prevMem)
		}
		prevInstr, prevMem = instr, mem
	}
	if sys.Stats().JitteredReads < 30 {
		t.Errorf("jitter rarely applied: %v", sys.Stats())
	}
}

func TestJitterActuallyPerturbs(t *testing.T) {
	cfg := Config{JitterPct: 0.2}
	sysA, rA := newSys(t, cfg, 5)
	// Compare a jittered meter stream against the unjittered one on an
	// identically-stepped platform.
	sysB := New(resctrl.NewEmu(rA, false), Config{}, 5)
	mA, mB := resctrl.NewMeter(sysA), resctrl.NewMeter(sysB)
	diff := 0.0
	for i := 0; i < 20; i++ {
		rA.Step(1)
		pa, pb := mA.Sample(), mB.Sample()
		diff += math.Abs(pa.TotalGbps - pb.TotalGbps)
	}
	if diff == 0 {
		t.Fatal("20%% jitter left every bandwidth reading untouched")
	}
}

func TestWriteRejection(t *testing.T) {
	sys, _ := newSys(t, Config{WriteFailProb: 0.5}, 11)
	rejected, accepted := 0, 0
	for i := 0; i < 40; i++ {
		err := sys.SetCBM(policy.HPClos, 0xff)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrInjected):
			rejected++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if rejected == 0 || accepted == 0 {
		t.Fatalf("rejection 0.5 over 40 writes: %d rejected, %d accepted", rejected, accepted)
	}
	if sys.Stats().WritesRejected != rejected || sys.Stats().Writes != 40 {
		t.Errorf("stats %v", sys.Stats())
	}
}

func TestDelayedActuationLandsLate(t *testing.T) {
	sys, r := newSys(t, Config{WriteDelayProb: 1, DelayPeriods: 2}, 1)
	before := sys.CBM(policy.HPClos)
	if err := sys.SetCBM(policy.HPClos, 0xf0000); err != nil {
		t.Fatal(err)
	}
	if got := sys.CBM(policy.HPClos); got != before {
		t.Fatalf("delayed write landed immediately: %#x", got)
	}
	if len(sys.pending) != 1 {
		t.Fatalf("pending %d, want 1", len(sys.pending))
	}
	r.Step(1)
	sys.Counters() // read 1: not yet due
	if got := sys.CBM(policy.HPClos); got != before {
		t.Fatalf("write landed after 1 read: %#x", got)
	}
	r.Step(1)
	sys.Counters() // read 2: due
	if got := sys.CBM(policy.HPClos); got != 0xf0000 {
		t.Fatalf("write did not land after %d reads: %#x", 2, got)
	}
	if len(sys.pending) != 0 {
		t.Fatalf("pending %d after landing", len(sys.pending))
	}
}

func TestDrainFlushesPendingWrites(t *testing.T) {
	sys, _ := newSys(t, Config{WriteDelayProb: 1, DelayPeriods: 100}, 2)
	if err := sys.SetCBM(policy.HPClos, 0xf0000); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetCBM(policy.BEClos, 0x0ffff); err != nil {
		t.Fatal(err)
	}
	if n := sys.Drain(); n != 2 {
		t.Fatalf("drained %d, want 2", n)
	}
	if sys.CBM(policy.HPClos) != 0xf0000 || sys.CBM(policy.BEClos) != 0x0ffff {
		t.Fatal("drain did not land the writes")
	}
}

// TestDeterministicReplay is the core guarantee: same schedule + seed +
// workload => bit-identical fault sequence and counter stream.
func TestDeterministicReplay(t *testing.T) {
	for _, cfg := range Schedules() {
		t.Run(cfg.Name, func(t *testing.T) {
			trace := func(seed int64) (Stats, string) {
				sys, r := newSys(t, cfg, seed)
				meter := resctrl.NewMeter(sys)
				fp := ""
				for i := 0; i < 40; i++ {
					r.Step(1)
					p := meter.Sample()
					if err := sys.SetCBM(policy.HPClos, 0x3fc00); err != nil &&
						!errors.Is(err, ErrInjected) {
						t.Fatal(err)
					}
					fp += fmt.Sprintf("%.9g|", p.TotalGbps)
				}
				return sys.Stats(), fp
			}
			s1, f1 := trace(99)
			s2, f2 := trace(99)
			if s1 != s2 || f1 != f2 {
				t.Fatalf("replay diverged:\n%v\n%v", s1, s2)
			}
			s3, f3 := trace(100)
			if f1 == f3 && cfg.DropoutProb+cfg.FreezeProb+cfg.JitterPct > 0 {
				t.Errorf("different seed produced identical monitoring stream (stats %v)", s3)
			}
		})
	}
}

func TestCoreParkingForwarded(t *testing.T) {
	sys, r := newSys(t, Config{}, 1)
	if err := sys.ParkCore(3); err != nil {
		t.Fatal(err)
	}
	if !sys.CoreParked(3) || !r.CoreParked(3) {
		t.Fatal("park not forwarded to inner system")
	}
	if err := sys.UnparkCore(3); err != nil {
		t.Fatal(err)
	}
	if sys.CoreParked(3) {
		t.Fatal("unpark not forwarded")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Reads: 10, Dropouts: 1, Writes: 4, WritesRejected: 2}
	out := s.String()
	for _, want := range []string{"reads=10", "dropout=1", "writes=4", "rejected=2"} {
		if !contains(out, want) {
			t.Errorf("Stats.String() = %q missing %q", out, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
