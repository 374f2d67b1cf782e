package core

import (
	"fmt"
	"math/rand"
	"testing"

	"dicer/internal/policy"
)

// Property tests: seeded pseudorandom observation streams drive the
// controller through every state, and invariants that must hold on every
// single period are asserted after each Observe. These complement the
// pointwise robustness tests with coverage of input shapes nobody
// hand-picked, and they document the properties the observability
// layer's replay depends on (determinism in particular).

// randomStream returns a seeded generator of plausible-but-adversarial
// observations: IPC in (0, 2), HP bandwidth in (0, 15), total bandwidth
// in (0, 68) so streams cross the 50 Gbps saturation threshold often.
func randomStream(seed int64) func() (hpIPC, hpBW, totalBW float64) {
	rng := rand.New(rand.NewSource(seed))
	return func() (float64, float64, float64) {
		return 0.05 + 1.95*rng.Float64(), 15 * rng.Float64(), 68 * rng.Float64()
	}
}

// TestPropertyHPWaysAlwaysBounded: whatever the counters claim, the
// enforced HP allocation stays inside [MinHPWays, Ways-MinBEWays], the
// state machine stays in a known state, and — on a synchronous substrate
// — the installed masks always equal the controller's intent.
func TestPropertyHPWaysAlwaysBounded(t *testing.T) {
	const ways = 20
	for seed := int64(0); seed < 25; seed++ {
		ctl := MustNew(DefaultConfig())
		sys := &quietSystem{ways: ways}
		if err := ctl.Setup(sys); err != nil {
			t.Fatal(err)
		}
		cfg := ctl.Config()
		next := randomStream(seed)
		for i := 0; i < 400; i++ {
			ipc, bw, tot := next()
			if err := ctl.Observe(sys, obs(ipc, bw, tot)); err != nil {
				t.Fatalf("seed %d period %d: %v", seed, i, err)
			}
			hp := ctl.HPWays()
			if hp < cfg.MinHPWays || hp > ways-cfg.MinBEWays {
				t.Fatalf("seed %d period %d: HP ways %d outside [%d,%d]",
					seed, i, hp, cfg.MinHPWays, ways-cfg.MinBEWays)
			}
			switch ctl.GroupState(0) {
			case "optimise", "sampling", "validate":
			default:
				t.Fatalf("seed %d period %d: unknown state %q", seed, i, ctl.GroupState(0))
			}
			wantHP, wantBE := policy.HPMask(ways, hp), policy.BEMask(ways, hp)
			if sys.CBM(policy.HPClos) != wantHP || sys.CBM(policy.BEClos) != wantBE {
				t.Fatalf("seed %d period %d: installed masks %#x/%#x diverge from intent %#x/%#x",
					seed, i, sys.CBM(policy.HPClos), sys.CBM(policy.BEClos), wantHP, wantBE)
			}
		}
	}
}

// TestPropertyGrowthNeedsACause: the HP allocation never grows in a
// period whose only decisions were shrink/hold (or none at all). Growth
// is always attributable to a recorded reset, sampling, rollback, or
// validation event — which is what makes the decision trace a complete
// audit of allocation changes.
func TestPropertyGrowthNeedsACause(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		ctl := MustNew(DefaultConfig())
		sys := &quietSystem{ways: 20}
		var kinds []EventKind
		ctl.Trace = func(e Event) { kinds = append(kinds, e.Kind) }
		if err := ctl.Setup(sys); err != nil {
			t.Fatal(err)
		}
		next := randomStream(seed)
		prev := ctl.HPWays()
		for i := 0; i < 400; i++ {
			kinds = kinds[:0]
			ipc, bw, tot := next()
			if err := ctl.Observe(sys, obs(ipc, bw, tot)); err != nil {
				t.Fatal(err)
			}
			hp := ctl.HPWays()
			if hp > prev {
				benign := true
				for _, k := range kinds {
					if k != EventShrink && k != EventHold {
						benign = false
					}
				}
				if len(kinds) == 0 || benign {
					t.Fatalf("seed %d period %d: HP ways grew %d -> %d with decisions %v",
						seed, i, prev, hp, kinds)
				}
			}
			prev = hp
		}
	}
}

// TestPropertyStableUnsaturatedNeverGrows: under a constant IPC and an
// unsaturated link, the allocation is monotone non-increasing — DICER
// only ever hands ways to the BEs — and settles at MinHPWays, after
// which it never changes (the steady hold path).
func TestPropertyStableUnsaturatedNeverGrows(t *testing.T) {
	for _, ipc := range []float64{0.3, 0.8, 1.0, 1.7} {
		ctl := MustNew(DefaultConfig())
		sys := &quietSystem{ways: 20}
		if err := ctl.Setup(sys); err != nil {
			t.Fatal(err)
		}
		steady := obs(ipc, 5, 20)
		prev := ctl.HPWays()
		for i := 0; i < 120; i++ {
			if err := ctl.Observe(sys, steady); err != nil {
				t.Fatal(err)
			}
			hp := ctl.HPWays()
			if hp > prev {
				t.Fatalf("ipc %v period %d: allocation grew %d -> %d under stable unsaturated IPC",
					ipc, i, prev, hp)
			}
			if i > 60 && hp != ctl.Config().MinHPWays {
				t.Fatalf("ipc %v period %d: settled at %d ways, want MinHPWays %d",
					ipc, i, hp, ctl.Config().MinHPWays)
			}
			if ctl.GroupState(0) == "sampling" {
				t.Fatalf("ipc %v period %d: sampling without saturation", ipc, i)
			}
			prev = hp
		}
	}
}

// TestPropertySamplingNeedsSaturation: streams that never cross the
// bandwidth threshold never put the controller in the sampling state,
// and it keeps believing the workload is CT-Favoured.
func TestPropertySamplingNeedsSaturation(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		ctl := MustNew(DefaultConfig())
		sys := &quietSystem{ways: 20}
		if err := ctl.Setup(sys); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			p := obs(0.05+1.95*rng.Float64(), 10*rng.Float64(), 45*rng.Float64())
			if err := ctl.Observe(sys, p); err != nil {
				t.Fatal(err)
			}
			if ctl.GroupState(0) == "sampling" {
				t.Fatalf("seed %d period %d: entered sampling below the threshold", seed, i)
			}
		}
		if !ctl.CTFavoured() {
			t.Fatalf("seed %d: dropped the CT-F assumption without ever saturating", seed)
		}
	}
}

// TestPropertyDecisionsDeterministic: the controller is a pure function
// of its observation stream — two controllers fed identical streams make
// identical decisions, states, and allocations. This is the property the
// trace replay (internal/obs) turns into a regression check for every
// recorded run.
func TestPropertyDecisionsDeterministic(t *testing.T) {
	fingerprint := func(seed int64) string {
		ctl := MustNew(DefaultConfig())
		sys := &quietSystem{ways: 20}
		var out []byte
		ctl.Trace = func(e Event) {
			out = append(out, fmt.Sprintf("%d:%s:%s:%d|", e.Period, e.State, e.Kind, e.HPWays)...)
		}
		if err := ctl.Setup(sys); err != nil {
			t.Fatal(err)
		}
		next := randomStream(seed)
		for i := 0; i < 300; i++ {
			ipc, bw, tot := next()
			if err := ctl.Observe(sys, obs(ipc, bw, tot)); err != nil {
				t.Fatal(err)
			}
		}
		return string(out)
	}
	for seed := int64(0); seed < 5; seed++ {
		a, b := fingerprint(seed), fingerprint(seed)
		if a != b {
			t.Fatalf("seed %d: identical streams produced different decision traces", seed)
		}
		if a == "" {
			t.Fatalf("seed %d: no decisions at all", seed)
		}
	}
	if fingerprint(1) == fingerprint(2) {
		t.Fatal("different streams produced identical decision traces; fingerprint too weak")
	}
}
