package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dicer"
	"dicer/internal/diag"
)

var update = flag.Bool("update", false, "rewrite golden report files")

// TestAnalyzeGoldenReports pins the rendered diagnostic report for both
// committed golden traces — one single-node, one fleet — byte-for-byte.
// Any drift means the analytics engine (or the trace behind it) changed
// and must be reviewed, then refreshed with -update.
func TestAnalyzeGoldenReports(t *testing.T) {
	cases := []struct {
		name  string
		trace string
	}{
		{"node_report", filepath.Join("..", "..", "testdata", "ctt_milc.jsonl.golden")},
		{"fleet_report", filepath.Join("..", "dicer-fleet", "testdata", "cluster.jsonl.golden")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := runAnalyze([]string{tc.trace}, &out); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("analyze report drifted from golden:\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
			}
		})
	}
}

// TestAnalyzeDeterministic runs the engine twice over the committed
// fleet trace and demands byte-identical output, text and JSON — the
// acceptance bar for the offline engine.
func TestAnalyzeDeterministic(t *testing.T) {
	trace := filepath.Join("..", "dicer-fleet", "testdata", "cluster.jsonl.golden")
	for _, args := range [][]string{{trace}, {"-json", trace}} {
		var a, b bytes.Buffer
		if err := runAnalyze(args, &a); err != nil {
			t.Fatal(err)
		}
		if err := runAnalyze(args, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("analyze %v not deterministic across runs", args)
		}
	}
}

// TestSummaryAndAlertsJSON smoke-checks the two report slices: valid
// JSON carrying the expected fields.
func TestSummaryAndAlertsJSON(t *testing.T) {
	trace := filepath.Join("..", "..", "testdata", "ctt_milc.jsonl.golden")

	var out bytes.Buffer
	if err := runSummary([]string{"-json", trace}, &out); err != nil {
		t.Fatal(err)
	}
	var metrics []diag.Summary
	if err := json.Unmarshal(out.Bytes(), &metrics); err != nil {
		t.Fatalf("summary -json is not valid JSON: %v\n%s", err, out.Bytes())
	}
	if len(metrics) == 0 || metrics[0].Name != "hp_slowdown" {
		t.Fatalf("summary metrics = %+v, want hp_slowdown first", metrics)
	}

	out.Reset()
	if err := runAlerts([]string{"-json", trace}, &out); err != nil {
		t.Fatal(err)
	}
	var alert diag.AlertReport
	if err := json.Unmarshal(out.Bytes(), &alert); err != nil {
		t.Fatalf("alerts -json is not valid JSON: %v\n%s", err, out.Bytes())
	}
	if alert.Config.Budget <= 0 || len(alert.Config.Windows) == 0 {
		t.Fatalf("alerts report missing config: %+v", alert.Config)
	}

	out.Reset()
	if err := runSummary([]string{trace}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hp_slowdown") {
		t.Fatalf("summary text missing percentile table:\n%s", out.String())
	}
}

// TestAnalyzeMultiHPTrace records a short multi-HP run (which emits a
// dicer-trace/v2 stream) and checks that all three subcommands sniff
// the schema, and that analyze reports the per-CLOS-group breakdown in
// both text and JSON.
func TestAnalyzeMultiHPTrace(t *testing.T) {
	var hps []dicer.HPApp
	for _, name := range []string{"omnetpp1", "sphinx1", "milc1"} {
		p, err := dicer.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		hps = append(hps, dicer.HPApp{Profile: p})
	}
	be, err := dicer.AppByName("gcc_base1")
	if err != nil {
		t.Fatal(err)
	}

	var rec bytes.Buffer
	jl := dicer.NewTraceJSONL(&rec)
	ms := &dicer.Scenario{
		HPs:            hps,
		BEs:            []dicer.Profile{be, be, be},
		HorizonPeriods: 30,
		Trace:          jl,
	}
	if _, err := ms.Run(nil); err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(t.TempDir(), "multi.jsonl")
	if err := os.WriteFile(trace, rec.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runAnalyze([]string{trace}, &out); err != nil {
		t.Fatalf("analyze rejected a v2 trace: %v", err)
	}
	if !strings.Contains(out.String(), "CLOS group breakdown:") {
		t.Errorf("v2 analyze report missing group breakdown:\n%s", out.String())
	}

	out.Reset()
	if err := runAnalyze([]string{"-json", trace}, &out); err != nil {
		t.Fatal(err)
	}
	var rep diag.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("analyze -json is not valid JSON: %v", err)
	}
	if rep.Schema != "dicer-trace/v2" {
		t.Errorf("report schema = %q, want dicer-trace/v2", rep.Schema)
	}
	if len(rep.Groups) == 0 {
		t.Fatalf("v2 report has no group summaries")
	}
	for _, g := range rep.Groups {
		if g.Periods == 0 || g.WaysMean <= 0 {
			t.Errorf("group %d summary looks empty: %+v", g.Group, g)
		}
	}

	// summary and alerts run the same engine; they must accept v2 too.
	out.Reset()
	if err := runSummary([]string{trace}, &out); err != nil {
		t.Fatalf("summary rejected a v2 trace: %v", err)
	}
	if !strings.Contains(out.String(), "hp_slowdown") {
		t.Errorf("v2 summary missing percentile table:\n%s", out.String())
	}
	out.Reset()
	if err := runAlerts([]string{"-json", trace}, &out); err != nil {
		t.Fatalf("alerts rejected a v2 trace: %v", err)
	}
}

// TestAnalyzeRejectsGarbage covers the error paths: missing file, not a
// trace, wrong argument count.
func TestAnalyzeRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	if err := runAnalyze([]string{filepath.Join(t.TempDir(), "nope.jsonl")}, &out); err == nil {
		t.Error("analyze accepted a missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("{\"schema\":\"not-a-trace/v9\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runAnalyze([]string{bad}, &out); err == nil {
		t.Error("analyze accepted an unknown schema")
	}
	if err := runAnalyze([]string{"a", "b"}, &out); err == nil {
		t.Error("analyze accepted two positional arguments")
	}
}

// TestLiveOfflineEquivalence is the acceptance test for the diagnostic
// engine's central claim: a live Monitor attached to a running scenario
// and an offline Analyze over the JSONL that same run recorded produce
// the same report — and in a scenario engineered to violate the SLO,
// the burn-rate alert fires at the same period on both paths.
func TestLiveOfflineEquivalence(t *testing.T) {
	// omnetpp1 under UM with 9 streaming BEs misses a 99% SLO nearly
	// every period, so the alert must fire; milc1 under DICER clears a
	// lax 50% SLO every period. Both must agree live/offline.
	cases := []struct {
		name     string
		hp       string
		policy   dicer.Policy
		slo      float64
		wantFire bool
	}{
		{"slo_violation_fires", "omnetpp1", dicer.Unmanaged(), 0.99, true},
		{"managed_run", "milc1", dicer.NewDICER(), 0.5, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := dicer.NewScenario(tc.hp, "gcc_base1", 9)
			sc.HorizonPeriods = 30
			sc.HPs[0].SLO = tc.slo

			live := dicer.NewDiagMonitor(diag.MonitorConfig{})
			var rec bytes.Buffer
			jl := dicer.NewTraceJSONL(&rec)
			sc.Trace = dicer.TraceMulti{jl, live}
			if _, err := sc.Run(tc.policy); err != nil {
				t.Fatal(err)
			}
			if err := jl.Flush(); err != nil {
				t.Fatal(err)
			}

			offline, err := dicer.AnalyzeTrace(bytes.NewReader(rec.Bytes()), dicer.DiagAnalyzeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantFire != (offline.Alert.Fires > 0) {
				t.Fatalf("offline fires = %d, want firing=%v", offline.Alert.Fires, tc.wantFire)
			}

			// The offline engine adds trace-level metadata the live
			// monitor never sees; blank it, then demand byte equality.
			liveRep := live.Report()
			offline.Schema, offline.Workload, offline.Policy, offline.RefSource = "", "", "", ""
			lj, err := liveRep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			oj, err := offline.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(lj, oj) {
				t.Fatalf("live and offline reports diverge:\nlive:\n%s\noffline:\n%s", lj, oj)
			}

			if tc.wantFire {
				ls, os := live.Snapshot(), offline.Alert
				if len(ls.Events) == 0 || len(os.Events) == 0 {
					t.Fatalf("fire events missing: live=%d offline=%d", len(ls.Events), len(os.Events))
				}
				if !ls.Events[0].Firing || !os.Events[0].Firing ||
					ls.Events[0].Period != os.Events[0].Period {
					t.Fatalf("first fire differs: live %+v vs offline %+v", ls.Events[0], os.Events[0])
				}
			}
		})
	}
}
