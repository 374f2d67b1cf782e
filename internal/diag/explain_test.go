package diag

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dicer/internal/fleet"
	"dicer/internal/slo"
)

// syntheticIncident builds a hand-crafted bundle with a known causal
// story: BE placements at p35-36, a fleet repack at p38 followed by a
// controller shrink at p39, link saturation at p40, a violation run
// from p41 through the p47 trigger, a chaos freeze masking p43-44, and
// the node's own burn-driven eviction at p45.
func syntheticIncident() *fleet.Incident {
	inc := &fleet.Incident{
		Manifest: fleet.IncidentManifest{
			Schema: fleet.IncidentSchema, Seq: 3,
			Trigger: fleet.TriggerSLOBurn, Node: 1, Period: 47,
			Detail: "burn=2.40/1.10", WindowFrom: 30, WindowTo: 51,
			Policy: "dicer", Scheduler: "headroom", Nodes: 3,
			SLO: 0.9, PeriodSec: 1, Alert: slo.DefaultAlertConfig(),
		},
	}
	for p := 30; p <= 51; p++ {
		e := fleet.FlightEntry{
			Period:    p,
			Heartbeat: fleet.Heartbeat{Node: 1, HPIPC: 1.2, HPWays: 12, BECount: 2},
			State:     "optimise",
		}
		if p >= 35 {
			e.BECount = 3
		}
		if p >= 36 {
			e.BECount = 4
		}
		if p >= 39 {
			e.HPWays = 9
			if p == 39 {
				e.Cause, e.Decisions = "shrink-step", 1
			}
		}
		if p >= 40 {
			e.Saturated = true
		}
		if p >= 41 {
			e.SLOViolated = true
		}
		if p == 43 || p == 44 {
			e.Frozen = true
		}
		inc.Flight = append(inc.Flight, e)
	}
	inc.Events = []fleet.TimedEvent{
		{Period: 33, FleetEvent: fleet.FleetEvent{Cause: fleet.CauseMigration, Node: 0, Jobs: []int{5}, Detail: "burn=2.10/1.00"}},
		{Period: 38, FleetEvent: fleet.FleetEvent{Cause: fleet.CauseRepack, Node: -1, Detail: "nodes=3"}},
		{Period: 45, FleetEvent: fleet.FleetEvent{Cause: fleet.CauseMigration, Node: 1, Jobs: []int{7, 9}, Detail: "burn=2.40/1.10"}},
	}
	return inc
}

func TestExplainOnsetAndRanking(t *testing.T) {
	rep := ExplainIncident(syntheticIncident())
	if rep.Schema != ExplainSchema {
		t.Fatalf("schema %q", rep.Schema)
	}
	if rep.Onset != 41 {
		t.Fatalf("onset %d, want 41", rep.Onset)
	}
	if rep.RunLength != 7 {
		t.Fatalf("run length %d, want 7 (p41..p47)", rep.RunLength)
	}
	if rep.Violations != 11 {
		t.Fatalf("violations %d, want 11 (run + tail)", rep.Violations)
	}
	if rep.Masked != 2 {
		t.Fatalf("masked %d, want 2 (p43-44 frozen)", rep.Masked)
	}
	if len(rep.Findings) == 0 {
		t.Fatal("no findings")
	}
	// The repack 3 periods before onset must outrank everything: the
	// controller shrink it precipitated, the saturation symptom, and
	// every post-onset event.
	top := rep.Findings[0]
	if top.Cause != fleet.CauseRepack || top.Period != 38 || top.Lead != 3 {
		t.Fatalf("top finding %+v, want repack at p38 lead 3", top)
	}
	if rep.Findings[1].Cause != "shrink-step" || rep.Findings[1].Period != 39 {
		t.Fatalf("second finding %+v, want shrink-step at p39", rep.Findings[1])
	}
	// Ranks are 1..n and scores are non-increasing.
	for i, f := range rep.Findings {
		if f.Rank != i+1 {
			t.Fatalf("finding %d has rank %d", i, f.Rank)
		}
		if i > 0 && f.Score > rep.Findings[i-1].Score {
			t.Fatalf("scores not sorted at %d: %v > %v", i, f.Score, rep.Findings[i-1].Score)
		}
	}
	// The node's own eviction (a response) must score below the repack
	// and carry a negative lead.
	for _, f := range rep.Findings {
		if f.Cause == fleet.CauseMigration && f.Period == 45 {
			if f.Lead != -4 || f.Score >= top.Score {
				t.Fatalf("own eviction scored %+v, want aftermath-dampened", f)
			}
		}
	}
	// The freeze evidence names the masked periods.
	found := false
	for _, f := range rep.Findings {
		if f.Cause == "node-freeze" {
			found = true
			if !strings.Contains(f.Evidence, "masked 2 period(s)") {
				t.Fatalf("freeze evidence %q lacks masking note", f.Evidence)
			}
		}
	}
	if !found {
		t.Fatal("no node-freeze finding")
	}
}

func TestExplainNoViolationRun(t *testing.T) {
	inc := syntheticIncident()
	inc.Manifest.Trigger = fleet.TriggerNodeLoss
	for i := range inc.Flight {
		inc.Flight[i].SLOViolated = false
	}
	rep := ExplainIncident(inc)
	if rep.Onset != inc.Manifest.Period || rep.RunLength != 0 {
		t.Fatalf("onset %d run %d, want trigger-period onset with empty run", rep.Onset, rep.RunLength)
	}
	if rep.Violations != 0 || rep.Masked != 0 {
		t.Fatalf("violations %d masked %d on a clean window", rep.Violations, rep.Masked)
	}
}

// TestExplainDeterministic pins the engine's core property: same bundle
// in, same bytes out — through ExplainIncident, through Dump+Explain
// round-trips, and through both renderings.
func TestExplainDeterministic(t *testing.T) {
	inc := syntheticIncident()
	a, b := ExplainIncident(inc), ExplainIncident(inc)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two explains of the same bundle differ")
	}

	var buf bytes.Buffer
	if err := inc.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := Explain(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("explain over the serialised bundle differs from the live one")
	}

	ja, _ := a.JSON()
	jc, _ := c.JSON()
	if !bytes.Equal(ja, jc) {
		t.Fatal("JSON renderings differ")
	}
	if renderExplain(a, inc.Flight) != renderExplain(c, inc.Flight) {
		t.Fatal("text renderings differ")
	}
}

func TestExplainRenderSections(t *testing.T) {
	inc := syntheticIncident()
	rep := ExplainIncident(inc)
	out := renderExplain(rep, inc.Flight)
	for _, want := range []string{
		"incident #3  slo-burn on node 1 at period 47",
		"onset p41 (run 7)",
		"masked 2",
		"flight strip",
		"root-cause candidates",
		"fleet repack re-clustered",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render lacks %q:\n%s", want, out)
		}
	}
	// The strip marks the onset and trigger under the right columns.
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "  p30") {
			strip, marks := l, lines[i+1]
			vcol := strings.Index(strip, "V") // first violated period = onset
			if marks[vcol] != 'o' {
				t.Fatalf("onset marker misplaced:\n%s\n%s", strip, marks)
			}
			if !strings.Contains(marks, "^") {
				t.Fatalf("no trigger marker:\n%s\n%s", strip, marks)
			}
		}
	}
}

// renderExplain is Render into a string.
func renderExplain(r *ExplainReport, fl []fleet.FlightEntry) string {
	var b strings.Builder
	r.Render(&b, fl)
	return b.String()
}
