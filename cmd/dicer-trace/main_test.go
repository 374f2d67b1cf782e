package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dicer"
)

func TestRecordThenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	err := runRecord([]string{"-hp", "milc1", "-be", "gcc_base1", "-n", "9",
		"-periods", "30", "-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runReplay([]string{path}, &out); err != nil {
		t.Fatalf("replay of a fresh recording failed: %v", err)
	}
	if !strings.Contains(out.String(), "OK") || !strings.Contains(out.String(), "installed masks") {
		t.Fatalf("replay output %q lacks full verification", out.String())
	}
}

func TestReplayChaosTraceDecisionsOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	var out bytes.Buffer
	err := runRecord([]string{"-hp", "omnetpp1", "-be", "gcc_base1", "-n", "9",
		"-periods", "30", "-chaos", "delayed-actuation", "-chaos-seed", "7", "-o", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runReplay([]string{path}, &out); err != nil {
		t.Fatalf("replay of a chaos recording failed: %v", err)
	}
	if !strings.Contains(out.String(), "decisions only") {
		t.Fatalf("chaos replay output %q should note the mask check was skipped", out.String())
	}
}

func TestReplayDetectsTamperedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	if err := runRecord([]string{"-hp", "milc1", "-be", "gcc_base1",
		"-periods", "20", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
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
	err = runReplay([]string{path}, &out)
	if err == nil {
		t.Fatal("replay accepted a tampered trace")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered replay error %q does not name the divergence", err)
	}
}

func TestReplayRejectsNonDICERTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "um.jsonl")
	var out bytes.Buffer
	if err := runRecord([]string{"-hp", "milc1", "-be", "gcc_base1",
		"-periods", "5", "-policy", "um", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
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
		var rec bytes.Buffer
		jl := dicer.NewTraceJSONL(&rec)
		ms := &dicer.Scenario{
			HPs:            hps,
			BEs:            []dicer.Profile{be, be, be},
			HorizonPeriods: 10,
			Grouping:       dicer.GroupingClustered,
			Trace:          jl,
		}
		if _, err := ms.Run(nil); err != nil {
			t.Fatal(err)
		}
		if err := jl.Flush(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "grouped.jsonl")
		if err := os.WriteFile(path, rec.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
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

func TestRecordRequiresOutput(t *testing.T) {
	var out bytes.Buffer
	if err := runRecord([]string{"-hp", "milc1"}, &out); err == nil {
		t.Fatal("record without -o accepted")
	}
}

func TestTracePolicy(t *testing.T) {
	for _, name := range []string{"um", "ct", "static:8", "dicer"} {
		if _, err := tracePolicy(name); err != nil {
			t.Errorf("tracePolicy(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "bogus", "static:x"} {
		if _, err := tracePolicy(name); err == nil {
			t.Errorf("tracePolicy(%q) accepted", name)
		}
	}
}
