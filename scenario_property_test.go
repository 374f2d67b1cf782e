package dicer

import (
	"fmt"
	"math/rand"
	"testing"

	"dicer/internal/app"
)

// Scenario-level (metamorphic) properties: transformations of a workload
// that must not change — or may only improve — what the controller and
// the metrics report. The trace ring doubles as the assertion surface:
// the HP-facing decision trajectory is exactly what a record carries.

// hpTrajectory runs sc under a fresh DICER controller with a trace ring
// attached and returns a fingerprint of everything HP-facing: per-period
// controller state and decisions (the one group's), intended ways, and
// installed HP mask.
func hpTrajectory(t *testing.T, sc *Scenario) string {
	t.Helper()
	ring := NewTraceRing(sc.HorizonPeriods + 1)
	sc.Trace = ring
	res, err := sc.Run(NewDICER())
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyName != "DICER" {
		t.Fatalf("unexpected policy %q", res.PolicyName)
	}
	var out []byte
	for _, r := range ring.Snapshot() {
		out = append(out, fmt.Sprintf("%d:%s:%v:%d:%x|",
			r.Period, r.Groups[0].State, r.Groups[0].Decisions, r.HPWays, r.HPMask)...)
	}
	return string(out)
}

// TestPropertyBEPermutationInvariance: the HP decision trajectory depends
// on the BE *class*, not on which core each BE instance landed on —
// permuting the BE list is invisible to the controller.
func TestPropertyBEPermutationInvariance(t *testing.T) {
	mixes := [][]string{
		{"gcc_base1", "gcc_base1", "lbm1", "lbm1", "mcf1"},
		{"gcc_base1", "omnetpp1", "lbm1", "gcc_base2", "milc1"},
	}
	for _, names := range mixes {
		build := func(order []string) *Scenario {
			sc := &Scenario{HPs: []HPApp{{Profile: app.MustByName("milc1")}}, HorizonPeriods: 40}
			for _, n := range order {
				sc.BEs = append(sc.BEs, app.MustByName(n))
			}
			return sc
		}
		base := hpTrajectory(t, build(names))
		if base == "" {
			t.Fatal("empty trajectory; fingerprint broken")
		}
		rng := rand.New(rand.NewSource(1))
		for trial := 0; trial < 3; trial++ {
			perm := append([]string(nil), names...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			if got := hpTrajectory(t, build(perm)); got != base {
				t.Fatalf("BE order %v changed the HP decision trajectory vs %v", perm, names)
			}
		}
	}
}

// TestPropertyMoreCacheNeverHurtsUM: growing the LLC way by way (each
// way carrying the paper machine's way capacity) never lowers Unmanaged
// EFU — with no partitioning every application shares the whole cache,
// so more cache can only reduce misses. A small tolerance absorbs
// floating-point noise in the simulator's operating-point solve.
func TestPropertyMoreCacheNeverHurtsUM(t *testing.T) {
	const tol = 1e-6
	wayBytes := DefaultMachine().WayBytes()
	prev := -1.0
	for _, ways := range []int{10, 14, 18, 20, 24, 28} {
		m := DefaultMachine()
		m.LLCWays = ways
		m.LLCBytes = int(wayBytes) * ways
		sc := NewScenario("omnetpp1", "gcc_base1", 9)
		sc.Machine = m
		sc.HorizonPeriods = 40
		res, err := sc.Run(Unmanaged())
		if err != nil {
			t.Fatal(err)
		}
		efu := res.EFU()
		if efu <= 0 {
			t.Fatalf("%d ways: non-positive EFU %v", ways, efu)
		}
		if efu < prev-tol {
			t.Fatalf("EFU dropped when adding ways: %v @ previous size, %v @ %d ways", prev, efu, ways)
		}
		prev = efu
	}
}

// TestPropertyScenarioMatrixBounds: across a seeded matrix of workloads,
// every recorded period respects the controller's allocation bounds and
// the mask/intent consistency the invariant guard checks — asserted here
// from the *trace*, proving the records faithfully carry what the guard
// sees.
func TestPropertyScenarioMatrixBounds(t *testing.T) {
	names := AppNames()
	rng := rand.New(rand.NewSource(42))
	cfg := DefaultControllerConfig()
	for trial := 0; trial < 6; trial++ {
		hp := names[rng.Intn(len(names))]
		be := names[rng.Intn(len(names))]
		sc := NewScenario(hp, be, 1+rng.Intn(9))
		sc.HorizonPeriods = 30
		sc.CheckInvariants = true
		ring := NewTraceRing(64)
		sc.Trace = ring
		if _, err := sc.Run(NewDICER()); err != nil {
			t.Fatalf("%s + %s: %v", hp, be, err)
		}
		snap := ring.Snapshot()
		if len(snap) != 30 {
			t.Fatalf("%s + %s: %d records, want 30", hp, be, len(snap))
		}
		for _, r := range snap {
			if r.HPWays < cfg.MinHPWays || r.HPWays > 20-cfg.MinBEWays {
				t.Fatalf("%s + %s period %d: HP ways %d out of bounds", hp, be, r.Period, r.HPWays)
			}
			if r.HPMask&r.BEMask != 0 {
				t.Fatalf("%s + %s period %d: masks overlap: %#x & %#x", hp, be, r.Period, r.HPMask, r.BEMask)
			}
			if r.Guard != "" || r.Err != "" {
				t.Fatalf("%s + %s period %d: unexpected annotation %+v", hp, be, r.Period, r)
			}
		}
	}
}
