package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dicer"
)

// recordTrace runs sc under pol with a JSONL trace sink and writes the
// trace to a file in a fresh temporary directory, returning its path.
func recordTrace(t *testing.T, sc *dicer.Scenario, pol dicer.Policy) string {
	t.Helper()
	var rec bytes.Buffer
	jl := dicer.NewTraceJSONL(&rec)
	sc.Trace = jl
	if _, err := sc.Run(pol); err != nil {
		t.Fatal(err)
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, rec.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newScenario is the single-HP scenario a test records: hp beside nine
// gcc_base1 copies for the given periods.
func newScenario(hp string, periods int) *dicer.Scenario {
	sc := dicer.NewScenario(hp, "gcc_base1", 9)
	sc.HorizonPeriods = periods
	return sc
}

func TestRecordThenReplay(t *testing.T) {
	path := recordTrace(t, newScenario("milc1", 30), dicer.NewDICER())
	var out bytes.Buffer
	if err := runReplay([]string{path}, &out); err != nil {
		t.Fatalf("replay of a fresh recording failed: %v", err)
	}
	if !strings.Contains(out.String(), "OK") || !strings.Contains(out.String(), "installed masks") {
		t.Fatalf("replay output %q lacks full verification", out.String())
	}
}

func TestReplayChaosTraceDecisionsOnly(t *testing.T) {
	sc := newScenario("omnetpp1", 30)
	cfg, err := dicer.ChaosScheduleByName("delayed-actuation")
	if err != nil {
		t.Fatal(err)
	}
	sc.Chaos, sc.ChaosSeed = &cfg, 7
	path := recordTrace(t, sc, dicer.NewDICER())
	var out bytes.Buffer
	if err := runReplay([]string{path}, &out); err != nil {
		t.Fatalf("replay of a chaos recording failed: %v", err)
	}
	if !strings.Contains(out.String(), "decisions only") {
		t.Fatalf("chaos replay output %q should note the mask check was skipped", out.String())
	}
}

func TestReplayDetectsTamperedFile(t *testing.T) {
	path := recordTrace(t, newScenario("milc1", 20), dicer.NewDICER())
	// Falsify one recorded allocation decision and rewrite the file.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	h, recs, err := dicer.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	recs[10].HPWays++
	var tampered bytes.Buffer
	jl := dicer.NewTraceJSONL(&tampered)
	if err := jl.Start(h); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		jl.Emit(&recs[i])
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = runReplay([]string{path}, &out)
	if err == nil {
		t.Fatal("replay accepted a tampered trace")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered replay error %q does not name the divergence", err)
	}
}

func TestReplayRejectsNonDICERTrace(t *testing.T) {
	path := recordTrace(t, newScenario("milc1", 5), dicer.Unmanaged())
	var out bytes.Buffer
	if err := runReplay([]string{path}, &out); err == nil {
		t.Fatal("replay of a UM trace (no controller config) accepted")
	}
}

// TestRecordThenReplayGrouped: a grouped controller's trace replays
// through the CLI like the two-CLOS controller's, at one HP app and at
// three, with decisions and installed masks verified.
func TestRecordThenReplayGrouped(t *testing.T) {
	be, err := dicer.AppByName("gcc_base1")
	if err != nil {
		t.Fatal(err)
	}
	for _, names := range [][]string{{"omnetpp1"}, {"omnetpp1", "sphinx1", "milc1"}} {
		var hps []dicer.HPApp
		for _, name := range names {
			p, err := dicer.AppByName(name)
			if err != nil {
				t.Fatal(err)
			}
			hps = append(hps, dicer.HPApp{Profile: p})
		}
		path := recordTrace(t, &dicer.Scenario{
			HPs:            hps,
			BEs:            []dicer.Profile{be, be, be},
			HorizonPeriods: 10,
			Grouping:       dicer.GroupingClustered,
		}, nil)
		var out bytes.Buffer
		if err := runReplay([]string{path}, &out); err != nil {
			t.Errorf("M=%d: replay of a grouped recording failed: %v", len(names), err)
			continue
		}
		if !strings.Contains(out.String(), "OK") || !strings.Contains(out.String(), "installed masks") {
			t.Errorf("M=%d: replay output %q lacks full verification", len(names), out.String())
		}
	}
}
