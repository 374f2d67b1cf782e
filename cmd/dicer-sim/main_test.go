package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dicer"
)

// TestTraceOutReplays records a run with -trace-out and replays the file
// through the facade: every period, decisions and installed masks.
func TestTraceOutReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	var out bytes.Buffer
	err := run([]string{"-hp", "milc1", "-be", "gcc_base1", "-n", "9",
		"-periods", "30", "-every", "0", "-trace-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dicer-trace replay "+path) {
		t.Fatalf("output does not name the trace:\n%s", out.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, recs, err := dicer.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dicer.ReplayTrace(h, recs)
	if err != nil {
		t.Fatalf("replay of a -trace-out recording failed: %v", err)
	}
	if res.Periods != 30 || res.Decisions == 0 || !res.MasksVerified {
		t.Fatalf("replay %+v, want 30 periods of decisions with masks verified", res)
	}
}

func TestChaosNamesResolve(t *testing.T) {
	names := chaosNames()
	if len(names) < 5 {
		t.Fatalf("only %d chaos schedules in the flag help", len(names))
	}
	for _, n := range names {
		if _, err := dicer.ChaosScheduleByName(n); err != nil {
			t.Errorf("%q: %v", n, err)
		}
	}
}

func TestBuildPolicy(t *testing.T) {
	cases := []struct {
		spec    string
		name    string
		hasCtl  bool
		withMBA bool
	}{
		{"um", "UM", false, false},
		{"ct", "CT", false, false},
		{"static:8", "Static(8)", false, false},
		{"dicer", "DICER", true, false},
		{"dicer+mba", "DICER+MBA", true, true},
		{"dicer+bemgr", "DICER+BEMGR", true, false},
		{"heracles:0.9", "Heracles", false, false},
	}
	for _, tc := range cases {
		pol, ctl, mba, err := buildPolicy(tc.spec, "omnetpp1")
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		if pol.Name() != tc.name {
			t.Errorf("%q: policy %q, want %q", tc.spec, pol.Name(), tc.name)
		}
		if (ctl != nil) != tc.hasCtl {
			t.Errorf("%q: controller presence %v, want %v", tc.spec, ctl != nil, tc.hasCtl)
		}
		if mba != tc.withMBA {
			t.Errorf("%q: withMBA %v, want %v", tc.spec, mba, tc.withMBA)
		}
	}
}

func TestBuildPolicyErrors(t *testing.T) {
	bad := []string{"", "bogus", "static:", "static:x", "heracles:x", "heracles:2"}
	for _, spec := range bad {
		if _, _, _, err := buildPolicy(spec, "omnetpp1"); err == nil {
			t.Errorf("%q: expected error", spec)
		}
	}
	if _, _, _, err := buildPolicy("heracles:0.9", "nosuchapp"); err == nil {
		t.Error("expected error for unknown HP with heracles")
	}
}
