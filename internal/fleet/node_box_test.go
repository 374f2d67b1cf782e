package fleet_test

import (
	"bytes"
	"testing"

	"dicer/internal/core"
	"dicer/internal/fleet"
	"dicer/internal/machine"
	"dicer/internal/obs"
)

// recordLines encodes every record as one trace line into buf, without
// a header.
func recordLines(buf *bytes.Buffer) obs.Sink { return obs.FuncSink(obs.NewJSONL(buf).Emit) }

// TestNodeTraceMatchesScenario: a recorder on a single-HP node's box
// writes the same trace records as the same Scenario, byte for
// byte, under DICER, UM and CT.
func TestNodeTraceMatchesScenario(t *testing.T) {
	m := machine.Default()
	for _, tc := range equivCases() {
		if len(tc.hps) > 1 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			var got, want bytes.Buffer
			n := equivNode(t, tc, m)
			b := fleet.BoxOf(n)
			b.Rec = obs.NewRecorder(recordLines(&got))
			b.Rec.AttachController(core.ControllerOf(b.Policy))
			for p := 0; p < equivPeriods; p++ {
				if _, _, err := n.StepPeriod(p); err != nil {
					t.Fatal(err)
				}
			}

			sc, pol := equivScenario(t, tc, m)
			sc.Trace = recordLines(&want)
			if _, err := sc.Run(pol); err != nil {
				t.Fatal(err)
			}
			if got.Len() == 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("node records differ from the scenario's:\nnode:\n%.600s\nscenario:\n%.600s", got.String(), want.String())
			}
		})
	}
}

// TestRepackPlansOnLiveSpecs: a two-HP node's box refreshes its planning
// specs every period, so a repack after the apps have moved phase
// replans against their current miss curves — and a second repack on
// the same specs finds nothing left to change.
func TestRepackPlansOnLiveSpecs(t *testing.T) {
	m := machine.Default()
	n := equivNode(t, equivCase{hps: []string{"mcf1", "Xalan1"}, policy: "DICER"}, m)
	for p := 0; p < 16; p++ {
		if _, _, err := n.StepPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	changed, err := n.Repack()
	if err != nil || !changed {
		t.Fatalf("first repack after 16 periods: changed=%v err=%v, want a new plan", changed, err)
	}
	if changed, err := n.Repack(); err != nil || changed {
		t.Fatalf("second repack on the same specs: changed=%v err=%v, want no change", changed, err)
	}
}
