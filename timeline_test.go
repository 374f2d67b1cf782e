package dicer

import (
	"strings"
	"testing"
)

func TestTimelineRecordsEveryPeriod(t *testing.T) {
	sc := NewScenario("milc1", "gcc_base1", 9)
	sc.HorizonPeriods = 15
	tl := &Timeline{}
	sc.AttachTimeline(tl)
	if _, err := sc.Run(NewDICER()); err != nil {
		t.Fatal(err)
	}
	if len(tl.Entries) != 15 {
		t.Fatalf("timeline has %d entries, want 15", len(tl.Entries))
	}
	for i, e := range tl.Entries {
		if e.Period != i {
			t.Fatalf("entry %d has period %d", i, e.Period)
		}
		if e.HPWays < 1 || e.HPWays > 19 {
			t.Fatalf("entry %d HP ways %d", i, e.HPWays)
		}
		if e.HPWays+e.BEWays != 20 {
			t.Fatalf("entry %d ways %d+%d do not cover the cache", i, e.HPWays, e.BEWays)
		}
		if e.TotalGbps <= 0 || e.HPIPC <= 0 {
			t.Fatalf("entry %d has empty readings: %+v", i, e)
		}
	}
	// DICER must have actually moved the partition on this CT-T pair.
	lo, hi := tl.MinMaxHPWays()
	if lo == hi {
		t.Fatalf("allocation never moved (stuck at %d ways)", lo)
	}
	if got := len(tl.HPWaysSeries()); got != 15 {
		t.Fatalf("series length %d", got)
	}
}

// TestTimelineGroupedReadsBEPartition: on a grouped run CLOS 1 is an HP
// group, so the BE columns must come from the last CLOS id, where the
// BEs run.
func TestTimelineGroupedReadsBEPartition(t *testing.T) {
	const budget = 4
	sc := &Scenario{
		HPs:            multiHPs(t, "milc1", "namd1", "omnetpp1"),
		BEs:            []Profile{mustApp(t, "lbm1")},
		HorizonPeriods: 10,
		CLOSBudget:     budget,
	}
	tl := &Timeline{}
	sc.AttachTimeline(tl)
	var beIPC []float64
	hook := sc.OnPeriod
	sc.OnPeriod = func(period int, p Period) {
		hook(period, p)
		beIPC = append(beIPC, p.ClosMeanIPC(budget-1))
	}
	res := runMulti(t, sc)
	if res.NumGroups() < 2 {
		t.Fatalf("plan built %d groups; the test needs CLOS 1 to be an HP group", res.NumGroups())
	}
	for i, e := range tl.Entries {
		if e.BEMeanIPC != beIPC[i] || e.BEWays < 1 || e.HPWays+e.BEWays > 20 {
			t.Fatalf("entry %d does not read the BE partition: %+v (BE IPC %v)", i, e, beIPC[i])
		}
	}
}

func TestTimelineCSV(t *testing.T) {
	tl := &Timeline{Entries: []TimelineEntry{
		{Period: 0, HPIPC: 0.5, BEMeanIPC: 0.4, HPWays: 19, BEWays: 1, HPBWGbps: 5, TotalGbps: 50},
	}}
	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "period,hp_ipc") {
		t.Fatalf("missing header: %q", out)
	}
	if !strings.Contains(out, "0,0.5000,0.4000,19,1,5.00,50.00") {
		t.Fatalf("row formatting: %q", out)
	}
}

func TestTimelineEmpty(t *testing.T) {
	tl := &Timeline{}
	if lo, hi := tl.MinMaxHPWays(); lo != 0 || hi != 0 {
		t.Fatal("empty timeline min/max")
	}
	var b strings.Builder
	if err := tl.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "period,") {
		t.Fatal("empty timeline should still emit the header")
	}
}
