package diag

import (
	"bytes"
	"reflect"
	"testing"

	"dicer/internal/fleet"
	"dicer/internal/obs"
)

// TestAnalyzeLargeClusterRecord reads a trace whose record lines are
// longer than 1 MiB: a 6,000-node fleet's periods, at about 190 B a
// heartbeat. The cluster's encoder writes them, and ReadClusterTrace and
// Analyze must both read them back whole.
func TestAnalyzeLargeClusterRecord(t *testing.T) {
	const nodes = 6000
	rec := fleet.ClusterRecord{
		Arrivals: 64, Admitted: 64, Placed: 64, Running: 64, SLOViolations: nodes / 4,
		FleetEFU: 0.3061044306692559, Nodes: make([]fleet.Heartbeat, nodes),
	}
	for i := range rec.Nodes {
		rec.Nodes[i] = fleet.Heartbeat{
			Node: i, HPIPC: 0.8382229673093042 + float64(i)/1e6, HPNorm: 0.9958088851634613 - float64(i)/1e5,
			HPGroups: 2, BECount: i % 8, HPWays: 9, HPBWGbps: 2.2660184409052806,
			TotalGbps: 7.000428501249548, SLOViolated: i%4 == 0, NormSum: 1.6464179754813435,
		}
	}
	var trace bytes.Buffer
	lw := obs.NewLineWriter(&trace)
	lw.WriteLine(fleet.TraceHeader{Schema: fleet.TraceSchema, Nodes: nodes, CoresPerNode: 10,
		HPs: []string{"omnetpp1", "sphinx1"}, SLO: 0.9})
	lw.WriteLine(&rec)
	rec.Period = 1
	lw.WriteLine(&rec)
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := trace.Len() / 2; n <= 1<<20 {
		t.Fatalf("record lines of about %d B, want more than 1 MiB", n)
	}

	_, recs, err := fleet.ReadClusterTrace(bytes.NewReader(trace.Bytes()))
	if err != nil || len(recs) != 2 || !reflect.DeepEqual(recs[1], rec) {
		t.Fatalf("ReadClusterTrace: %d records, %v; want the 2 written", len(recs), err)
	}
	rep, err := Analyze(bytes.NewReader(trace.Bytes()), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Periods != 2 || len(rep.Nodes) != nodes || rep.Alert.Violations != 2*nodes/4 {
		t.Fatalf("report of %d periods, %d nodes, %d violations; want 2, %d, %d",
			rep.Periods, len(rep.Nodes), rep.Alert.Violations, nodes, 2*nodes/4)
	}
}
