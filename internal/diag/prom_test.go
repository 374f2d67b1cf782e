package diag

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dicer/internal/chaos"
	"dicer/internal/fleet"
	"dicer/internal/machine"
	"dicer/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.prom pins")

// checkPin compares a /metrics body with its committed pin
// (testdata/<name>.prom), naming the first line that differs.
func checkPin(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".prom")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("%s: line %d is %q, pin has %q", path, i+1, gl, wl)
		}
	}
}

// TestPromPinNodeStreams pins the Monitor's part of dicer-sim -serve's
// /metrics body over three committed traces (two-CLOS, chaos,
// grouped): the exposition after Start and before the first record,
// then after every record and two completed runs.
func TestPromPinNodeStreams(t *testing.T) {
	for _, name := range []string{"ctt_milc", "ctf_omnetpp_chaos", "recluster"} {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(filepath.Join("..", "..", "testdata", name+".jsonl.golden"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			hdr, recs, err := obs.ReadTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			m := NewMonitor(MonitorConfig{})
			if err := m.Start(hdr); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			m.WriteProm(&buf)
			for i := range recs {
				m.Emit(&recs[i])
			}
			m.AddRun()
			m.AddRun()
			m.WriteProm(&buf)
			checkPin(t, name, buf.Bytes())
		})
	}
}

// TestPromPinFleetStreams pins the FleetMonitor's part of dicer-fleet
// -serve's /metrics body over two committed cluster traces, with the
// link capacity the serve mode configures: the exposition before the
// first record, then after every record.
func TestPromPinFleetStreams(t *testing.T) {
	for _, name := range []string{"cluster", "migration"} {
		t.Run(name, func(t *testing.T) {
			f, err := os.Open(filepath.Join("..", "..", "cmd", "dicer-fleet", "testdata", name+".jsonl.golden"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			_, recs, err := fleet.ReadClusterTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			m := NewFleetMonitor(FleetMonitorConfig{LinkGbps: machine.Default().Link.CapacityGBps})
			var buf bytes.Buffer
			m.WriteProm(&buf)
			for i := range recs {
				m.ObserveRecord(&recs[i])
			}
			m.WriteProm(&buf)
			checkPin(t, name, buf.Bytes())
		})
	}
}

// promText renders a monitor's exposition.
func promText(w interface{ WriteProm(io.Writer) }) string {
	var b strings.Builder
	w.WriteProm(&b)
	return b.String()
}

func wantLine(t *testing.T, text, line string) {
	t.Helper()
	if !strings.Contains(text, "\n"+line+"\n") {
		t.Errorf("missing line %q in exposition:\n%s", line, text)
	}
}

// TestMonitorCountsSyntheticRecords covers what no committed stream
// has: tolerated and guard-vetoed periods and every chaos fault class.
func TestMonitorCountsSyntheticRecords(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	m.Emit(&obs.Record{
		Period: 0, HPIPC: 1.25, BEMeanIPC: 0.5, HPBWGbps: 4.5, TotalGbps: 55,
		Saturated: true, HPWays: 18, HPOccBytes: 2.5e6,
		Faults: chaos.Stats{Dropouts: 2, FrozenReads: 4, WritesRejected: 1},
		Groups: []obs.GroupRecord{{Decisions: []string{"saturated", "sample"}, Cause: "sampling"}},
	})
	m.Emit(&obs.Record{
		Period: 1, HPIPC: 1.3, TotalGbps: 20,
		HPWays: 17, Tolerated: true, Guard: "MaskLegal: x",
		Faults: chaos.Stats{JitteredReads: 3, WritesDelayed: 5},
		Groups: []obs.GroupRecord{{Decisions: []string{"sample"}, Cause: "guard-veto"}},
	})
	m.AddRun()

	text := promText(m)
	for _, line := range []string{
		"dicer_records_total 2",
		"dicer_runs_total 1",
		`dicer_decisions_total{kind="sample"} 2`,
		`dicer_decisions_total{kind="saturated"} 1`,
		"dicer_saturated_periods_total 1",
		"dicer_tolerated_faults_total 1",
		"dicer_guard_violations_total 1",
		`dicer_chaos_faults_total{type="dropout"} 2`,
		`dicer_chaos_faults_total{type="frozen"} 4`,
		`dicer_chaos_faults_total{type="jittered"} 3`,
		`dicer_chaos_faults_total{type="write_delayed"} 5`,
		`dicer_chaos_faults_total{type="write_rejected"} 1`,
		// Gauges reflect the last record.
		"dicer_period 1",
		"dicer_hp_ways 17",
		"dicer_hp_ipc 1.3",
		"dicer_total_bw_gbps 20",
		"dicer_saturated 0",
	} {
		wantLine(t, text, line)
	}
	if m.Records() != 2 {
		t.Fatalf("Records() = %d, want 2", m.Records())
	}
	rep := m.Report()
	if c := rep.Counter; c != (Counters{Saturated: 1, GuardVetoes: 1, Tolerated: 1}) {
		t.Errorf("report counters %+v disagree with the exposition", c)
	}
	if want := []CauseCount{{"guard-veto", 1}, {"sampling", 1}}; !reflect.DeepEqual(rep.Causes, want) {
		t.Errorf("causes %+v, want %+v", rep.Causes, want)
	}
	if again := promText(m); again != text {
		t.Fatal("two WriteProm calls produced different expositions")
	}
	if strings.Index(text, `kind="sample"`) > strings.Index(text, `kind="saturated"`) {
		t.Fatal("decision label values not sorted")
	}
}

// TestMonitorCountsGroups: a grouped record adds every group's
// decisions and one cause per group, a record without groups — no
// controller — adds no cause but still counts its tolerated fault, and
// the monitor adopts the header's SLO only when every HP shares it.
func TestMonitorCountsGroups(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	if err := m.Start(obs.Header{SLOs: []float64{0.8, 0.8, 0.8}}); err != nil {
		t.Fatal(err)
	}
	m.Emit(&obs.Record{Period: 0, Groups: []obs.GroupRecord{
		{Group: 0, Decisions: []string{"shrink"}, Cause: "shrink-step"},
		{Group: 1, Decisions: []string{"hold", "recluster"}, Cause: "recluster"},
		{Group: 2, Decisions: []string{"shrink"}, Cause: "shrink-step"},
	}})
	m.Emit(&obs.Record{Period: 1, Tolerated: true, Groups: []obs.GroupRecord{
		{Group: 0, Decisions: []string{"hold"}, Cause: "chaos-masked"},
		{Group: 1, Decisions: []string{"shrink"}, Cause: "chaos-masked"},
	}})
	m.Emit(&obs.Record{Period: 2, Tolerated: true})

	text := promText(m)
	for _, line := range []string{
		`dicer_decisions_total{kind="hold"} 2`,
		`dicer_decisions_total{kind="recluster"} 1`,
		`dicer_decisions_total{kind="shrink"} 3`,
	} {
		wantLine(t, text, line)
	}
	rep := m.Report()
	want := []CauseCount{{"chaos-masked", 2}, {"shrink-step", 2}, {"recluster", 1}}
	if !reflect.DeepEqual(rep.Causes, want) {
		t.Errorf("causes %+v, want %+v", rep.Causes, want)
	}
	if rep.Counter.Tolerated != 2 {
		t.Errorf("tolerated %d, want 2", rep.Counter.Tolerated)
	}
	if rep.SLO != 0.8 {
		t.Errorf("SLO %v, want the HPs' shared 0.8", rep.SLO)
	}

	mixed := NewMonitor(MonitorConfig{})
	if err := mixed.Start(obs.Header{SLOs: []float64{0.8, 0.95}}); err != nil {
		t.Fatal(err)
	}
	if got := mixed.Report().SLO; got != 0.9 {
		t.Errorf("SLO %v with differing HP SLOs, want the 0.9 default", got)
	}
}

func TestMonitorDoesNotAliasDecisions(t *testing.T) {
	m := NewMonitor(MonitorConfig{})
	dec := []string{"shrink"}
	m.Emit(&obs.Record{Period: 0, Groups: []obs.GroupRecord{{Decisions: dec}}})
	dec[0] = "CLOBBERED" // recorder scratch reuse
	text := promText(m)
	wantLine(t, text, `dicer_decisions_total{kind="shrink"} 1`)
	if strings.Contains(text, "CLOBBERED") {
		t.Fatal("monitor retained the caller's decision slice")
	}
}

// TestMonitorConcurrent scrapes while emitting and counting runs; run
// under -race this pins the lock discipline /metrics depends on.
func TestMonitorConcurrent(t *testing.T) {
	m := NewMonitor(MonitorConfig{AloneIPC: 1})
	if err := m.Start(obs.Header{LinkGbps: 68.3}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Emit(&obs.Record{Period: i, HPIPC: 0.8, TotalGbps: 30,
					Groups: []obs.GroupRecord{{Decisions: []string{"hold"}, Cause: "steady"}}})
				m.AddRun()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			promText(m)
		}
	}()
	wg.Wait()
	<-done
	if m.Records() != 800 {
		t.Fatalf("Records() = %d, want 800", m.Records())
	}
	wantLine(t, promText(m), "dicer_runs_total 800")
}

// TestFleetMonitorNodeGauges feeds heartbeats out of node order, a
// scale-down event and an incident count (no committed cluster stream
// has the last two).
func TestFleetMonitorNodeGauges(t *testing.T) {
	m := NewFleetMonitor(FleetMonitorConfig{})
	m.ObserveRecord(&fleet.ClusterRecord{
		Period: 0, Arrivals: 3, Admitted: 2, Rejected: 1, Placed: 2,
		Running: 2, SLOViolations: 1, FleetEFU: 0.4,
		Nodes: []fleet.Heartbeat{
			{Node: 1, BECount: 1, HPNorm: 0.9, TotalGbps: 12.5},
			{Node: 0, BECount: 1, HPNorm: 0.8, TotalGbps: 30, SLOViolated: true},
		},
	})
	rec := &fleet.ClusterRecord{
		Period: 1, Arrivals: 1, Admitted: 1, Done: 2, FleetEFU: 0.3, Losses: 1,
		Incidents: 2, NodesLive: 2,
		Events: []fleet.FleetEvent{{Cause: fleet.CauseScaleDown, Node: 2, Detail: "drain"}},
		Nodes: []fleet.Heartbeat{
			{Node: 2, Draining: true, Retired: true},
			{Node: 0, Lost: true},
			{Node: 1, Frozen: true, BECount: 1},
		},
	}
	m.ObserveRecord(rec)
	rec.Nodes[0].BECount = 99 // the caller's buffer is reused next period
	if m.Periods() != 2 {
		t.Fatalf("periods = %d, want 2", m.Periods())
	}

	out := promText(m)
	for _, line := range []string{
		"dicer_fleet_periods_total 2",
		"dicer_fleet_arrivals_total 4",
		"dicer_fleet_admitted_total 3",
		"dicer_fleet_rejected_total 1",
		"dicer_fleet_done_total 2",
		"dicer_fleet_node_losses_total 1",
		"dicer_fleet_scale_downs_total 1",
		"dicer_fleet_incidents_total 2",
		"dicer_fleet_slo_violations_total 1",
		"dicer_fleet_efu 0.3",
		"dicer_fleet_nodes_live 2",
		`dicer_fleet_node_state{node="0"} 2`,
		`dicer_fleet_node_state{node="1"} 1`,
		`dicer_fleet_node_state{node="2"} 3`,
		`dicer_fleet_node_be_count{node="2"} 0`,
	} {
		wantLine(t, out, line)
	}
	i0 := strings.Index(out, `node_be_count{node="0"}`)
	i1 := strings.Index(out, `node_be_count{node="1"}`)
	i2 := strings.Index(out, `node_be_count{node="2"}`)
	if i0 < 0 || i1 < i0 || i2 < i1 {
		t.Errorf("node gauges missing or unsorted (%d, %d, %d)", i0, i1, i2)
	}
	if again := promText(m); again != out {
		t.Error("repeated WriteProm produced different bytes")
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{17, "17"},
		{-3, "-3"},
		{1.25, "1.25"},
		{2.5e6, "2500000"},
		{0.30000000000000004, "0.30000000000000004"},
	}
	for _, tc := range cases {
		if got := formatValue(tc.in); got != tc.want {
			t.Errorf("formatValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
