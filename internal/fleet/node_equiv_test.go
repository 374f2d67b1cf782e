package fleet_test

import (
	"math/bits"
	"testing"

	"dicer/internal/app"
	"dicer/internal/core"
	"dicer/internal/experiments"
	"dicer/internal/fleet"
	"dicer/internal/machine"
	"dicer/internal/metrics"
	"dicer/internal/obs"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// equivCase is one server both ways: a fleet node with its BE set placed
// before period 0, and the Scenario with the same HPs and BEs.
type equivCase struct {
	name   string
	hps    []string
	bes    []string
	policy string // node policy name; the Scenario runs the same policy
}

func equivCases() []equivCase {
	milc9 := make([]string, 9)
	for i := range milc9 {
		milc9[i] = "milc1"
	}
	mixed := []string{"gcc_base1", "milc1", "lbm1"}
	return []equivCase{
		{"omnetpp+9milc/DICER", []string{"omnetpp1"}, milc9, "DICER"},
		{"omnetpp+9milc/UM", []string{"omnetpp1"}, milc9, "UM"},
		{"omnetpp+9milc/CT", []string{"omnetpp1"}, milc9, "CT"},
		{"sphinx+mixed/DICER", []string{"sphinx1"}, mixed, "DICER"},
		{"omnetpp,sphinx+mixed/grouped", []string{"omnetpp1", "sphinx1"}, mixed, "DICER"},
		{"mcf,Xalan+mixed/grouped", []string{"mcf1", "Xalan1"}, mixed, "DICER"},
	}
}

const (
	equivSLO     = 0.9
	equivPeriods = 60
)

// equivRefs resolves the alone-IPC references both sides normalise to.
func equivRefs(t *testing.T, m machine.Machine, names []string) ([]app.Profile, []float64) {
	t.Helper()
	profs := make([]app.Profile, len(names))
	refs := make([]float64, len(names))
	for i, name := range names {
		profs[i] = app.MustByName(name)
		ref, err := experiments.AloneIPC(m, profs[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	return profs, refs
}

// equivNode builds the case's node and places its BEs on cores
// len(hps).. before period 0, as jobs that never finish.
func equivNode(t *testing.T, tc equivCase, m machine.Machine) *fleet.Node {
	t.Helper()
	hps, hpRefs := equivRefs(t, m, tc.hps)
	bes, beRefs := equivRefs(t, m, tc.bes)
	n, err := fleet.NewNode(fleet.NodeConfig{
		Machine:        m,
		HPs:            hps,
		HPAloneIPCs:    hpRefs,
		Policy:         tc.policy,
		DICER:          core.DefaultConfig(),
		SLO:            equivSLO,
		PeriodSec:      1,
		StepsPerPeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, be := range bes {
		j := &fleet.Job{ID: i, Profile: be, AloneIPC: beRefs[i], RemainingPeriods: 1 << 30, PlacedPeriod: -1, Core: -1}
		if err := n.Place(j, 0); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// equivScenario is the case as a Scenario, without its hooks.
func equivScenario(t *testing.T, tc equivCase, m machine.Machine) (*experiments.Scenario, policy.Policy) {
	t.Helper()
	sc := &experiments.Scenario{Machine: m, PeriodSec: 1, StepsPerPeriod: 4, HorizonPeriods: equivPeriods}
	hps, _ := equivRefs(t, m, tc.hps)
	for _, hp := range hps {
		sc.HPs = append(sc.HPs, experiments.HPApp{Profile: hp, SLO: equivSLO})
	}
	sc.BEs, _ = equivRefs(t, m, tc.bes)
	var pol policy.Policy // nil: the Scenario's own DICER
	if tc.policy != "DICER" {
		var ok bool
		if pol, ok = policy.ByName(tc.policy); !ok {
			t.Fatalf("unknown policy %q", tc.policy)
		}
	}
	return sc, pol
}

// TestNodeMatchesScenario pins the fleet node to the Scenario: a node
// with a fixed BE set placed before period 0 and no arrivals reports,
// every period, exactly the heartbeat the same Scenario's readings give,
// bit for bit — the worst HP's IPC and normalised IPC, the HP ways and
// groups after the policy acted, the HP and total bandwidth, the
// saturation and SLO verdicts and the normalised-IPC sum.
func TestNodeMatchesScenario(t *testing.T) {
	m := machine.Default()
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			n := equivNode(t, tc, m)
			got := make([]fleet.Heartbeat, equivPeriods)
			for p := range got {
				hb, done, err := n.StepPeriod(p)
				if err != nil {
					t.Fatal(err)
				}
				if done != 0 {
					t.Fatalf("period %d: %d jobs finished", p, done)
				}
				got[p] = hb
			}

			_, hpRefs := equivRefs(t, m, tc.hps)
			_, beRefs := equivRefs(t, m, tc.bes)
			grouped := len(tc.hps) > 1
			link := m.Link
			sc, pol := equivScenario(t, tc, m)
			var want []fleet.Heartbeat
			var cur fleet.Heartbeat
			var groupBW []float64
			// OnPeriod sees the reading before the policy observes it;
			// the record carries what the policy installed after.
			sc.OnPeriod = func(period int, p resctrl.Period) {
				cur = fleet.Heartbeat{BECount: len(tc.bes)}
				worst := 0
				for i, ref := range hpRefs {
					ipc := p.CoreIPC(i)
					norm := metrics.NormIPC(ipc, ref)
					cur.NormSum += norm
					if i == 0 || norm < cur.HPNorm {
						worst, cur.HPNorm = i, norm
					}
					if !metrics.SLOAchieved(ipc, ref, equivSLO) {
						cur.SLOViolated = true
					}
				}
				cur.HPIPC = p.CoreIPC(worst)
				cur.TotalGbps = p.TotalGbps
				cur.Saturated = p.TotalGbps > link.Knee*link.CapacityGBps
				for c, ref := range beRefs {
					cur.NormSum += metrics.NormIPC(p.CoreIPC(len(hpRefs)+c), ref)
				}
				groupBW = groupBW[:0]
				for gi := range p.Groups {
					groupBW = append(groupBW, p.GroupBW(gi))
				}
			}
			sc.Trace = obs.FuncSink(func(r *obs.Record) {
				hb := cur
				if grouped {
					hb.HPGroups = len(r.Groups)
					for gi, g := range r.Groups {
						hb.HPWays += g.Ways
						hb.HPBWGbps += groupBW[gi]
					}
				} else {
					hb.HPWays = bits.OnesCount64(r.HPMask)
					hb.HPBWGbps = groupBW[policy.HPClos]
				}
				want = append(want, hb)
			})
			if _, err := sc.Run(pol); err != nil {
				t.Fatal(err)
			}

			if len(want) != equivPeriods {
				t.Fatalf("scenario recorded %d periods, want %d", len(want), equivPeriods)
			}
			for p := range got {
				if got[p] != want[p] {
					t.Fatalf("period %d:\nnode     %+v\nscenario %+v", p, got[p], want[p])
				}
			}
		})
	}
}
