package dicer

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// Golden-trace tests: two canonical scenarios are recorded through the
// JSONL sink and compared byte-for-byte against testdata/*.jsonl.golden.
// Because the simulator, the chaos layer, and the JSONL encoding are all
// deterministic, any byte of drift means controller decisions, counter
// modelling, or the trace schema changed — each of which deserves a
// deliberate golden refresh:
//
//	go test . -run TestGoldenTrace -update-traces
//
// The goldens also feed the replay verifier, so the committed files
// continuously prove the decision-equivalence guarantee on real traces,
// not just freshly recorded ones.

var updateTraces = flag.Bool("update-traces", false, "rewrite golden trace files with current recordings")

// goldenScenarios are the two canonical runs: the paper's CT-Thwarted
// pair (milc saturates the link, driving sampling), and a CT-Favoured
// friendly pair recorded under delayed-actuation chaos so the golden
// exercises fault annotations and the decisions-only replay path.
var goldenScenarios = []struct {
	name  string
	hp    string
	be    string
	n     int
	chaos string
	seed  int64
}{
	{name: "ctt_milc", hp: "milc1", be: "gcc_base1", n: 9},
	{name: "ctf_omnetpp_chaos", hp: "omnetpp1", be: "gcc_base1", n: 9, chaos: "delayed-actuation", seed: 7},
}

func recordGoldenTrace(t *testing.T, idx int) []byte {
	t.Helper()
	g := goldenScenarios[idx]
	sc := NewScenario(g.hp, g.be, g.n)
	sc.HorizonPeriods = 60
	if g.chaos != "" {
		cfg, err := ChaosScheduleByName(g.chaos)
		if err != nil {
			t.Fatal(err)
		}
		sc.Chaos = &cfg
		sc.ChaosSeed = g.seed
	}
	var buf bytes.Buffer
	jl := NewTraceJSONL(&buf)
	sc.Trace = jl
	if _, err := sc.Run(NewDICER()); err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenTraces(t *testing.T) {
	for i := range goldenScenarios {
		g := goldenScenarios[i]
		t.Run(g.name, func(t *testing.T) {
			got := recordGoldenTrace(t, i)
			path := filepath.Join("testdata", g.name+".jsonl.golden")
			if *updateTraces {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden trace (run with -update-traces to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: recorded trace drifted from golden (%d vs %d bytes); "+
					"controller decisions or trace schema changed — re-run with -update-traces if intended",
					g.name, len(got), len(want))
			}
		})
	}
}

// TestGoldenTracesReplay replays the committed golden files themselves:
// the fault-free golden verifies decisions and installed masks, the
// chaos golden decisions only.
func TestGoldenTracesReplay(t *testing.T) {
	for i := range goldenScenarios {
		g := goldenScenarios[i]
		t.Run(g.name, func(t *testing.T) {
			f, err := os.Open(filepath.Join("testdata", g.name+".jsonl.golden"))
			if err != nil {
				t.Fatalf("missing golden trace (run TestGoldenTraces with -update-traces first): %v", err)
			}
			defer f.Close()
			h, recs, err := ReadTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ReplayTrace(h, recs)
			if err != nil {
				t.Fatalf("golden trace does not replay: %v", err)
			}
			if res.Periods != 60 {
				t.Fatalf("replayed %d periods, want 60", res.Periods)
			}
			if wantMasks := g.chaos == ""; res.MasksVerified != wantMasks {
				t.Fatalf("MasksVerified = %v, want %v", res.MasksVerified, wantMasks)
			}
			if res.Decisions == 0 {
				t.Fatal("golden trace carried no decisions")
			}
		})
	}
}

// goldenV2Periods is the v2 golden's horizon: long enough for the
// re-cluster schedule to regroup the apps at least once.
const goldenV2Periods = 30

// recordGoldenTraceV2 records the multi-HP re-clustering configuration
// (four HP apps plus one BE under an 8-CLOS budget, re-planned every 5
// periods against upcoming-phase hints) as a dicer-trace/v2 trace.
func recordGoldenTraceV2(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	jl := NewTraceJSONL(&buf)
	ms := &Scenario{
		HPs:            multiHPs(t, "astar1", "bzip21", "milc1", "namd1"),
		BEs:            []Profile{mustApp(t, "lbm1")},
		HorizonPeriods: goldenV2Periods,
		CLOSBudget:     8,
		ReclusterEvery: 5,
		UsePhaseHints:  true,
		Trace:          jl,
	}
	res, err := ms.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reclusters == 0 {
		t.Fatal("golden v2 run never re-clustered")
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTraceV2 pins the multi-HP trace byte for byte: per-group
// decisions, masks, states and re-cluster markers.
func TestGoldenTraceV2(t *testing.T) {
	got := recordGoldenTraceV2(t)
	path := filepath.Join("testdata", "recluster_v2.jsonl.golden")
	if *updateTraces {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden trace (run with -update-traces to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recorded v2 trace drifted from golden (%d vs %d bytes); "+
			"controller decisions or trace schema changed — re-run with -update-traces if intended",
			len(got), len(want))
	}
}
