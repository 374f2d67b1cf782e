package fleet

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"dicer/internal/chaos"
)

// testConfig is a small, fast cluster with chaos and a random scheduler
// — the least-deterministic-looking configuration we support, which is
// exactly what the determinism test should exercise.
func testConfig(trace *bytes.Buffer) Config {
	return Config{
		Nodes:          3,
		HorizonPeriods: 40,
		Scheduler:      "random",
		SchedSeed:      11,
		Arrivals:       ArrivalConfig{Seed: 5, RatePerPeriod: 1.2, MeanDurationPeriods: 6},
		NodeChaos:      chaos.GenNodeSchedule("t", 3, 3, 40, 0.02, 0.005, 3),
		Trace:          trace,
	}
}

func runFleet(t *testing.T, cfg Config) Result {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterTraceDeterministic pins the acceptance criterion: the same
// seed and configuration yield a byte-identical cluster trace, despite
// concurrent node stepping, chaos and the random scheduler.
func TestClusterTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	ra := runFleet(t, testConfig(&a))
	rb := runFleet(t, testConfig(&b))
	if ra != rb {
		t.Errorf("same config produced different results:\n%+v\n%+v", ra, rb)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same config produced different cluster trace bytes")
	}
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
}

// TestClusterJobConservation checks no job is created or lost by the
// bookkeeping: every admitted job ends exactly one of done, still
// running, still queued, or dropped after exhausting placement attempts.
func TestClusterJobConservation(t *testing.T) {
	var buf bytes.Buffer
	res := runFleet(t, testConfig(&buf))
	if got := res.Done + res.RunningEnd + res.QueuedEnd + res.Dropped; got != res.Admitted {
		t.Fatalf("job conservation: done %d + running %d + queued %d + dropped %d = %d, want admitted %d",
			res.Done, res.RunningEnd, res.QueuedEnd, res.Dropped, got, res.Admitted)
	}
	if res.Admitted+res.Rejected != res.Arrivals {
		t.Fatalf("admission conservation: admitted %d + rejected %d != arrivals %d",
			res.Admitted, res.Rejected, res.Arrivals)
	}
	if res.Placements < res.Done {
		t.Fatalf("placements %d < done %d", res.Placements, res.Done)
	}
}

// TestClusterTraceRoundTrip checks the emitted trace parses back into
// the same number of records with consistent per-period bookkeeping.
func TestClusterTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig(&buf)
	res := runFleet(t, cfg)

	hdr, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != TraceSchema || hdr.Nodes != cfg.Nodes || hdr.Scheduler != "random" {
		t.Fatalf("bad header %+v", hdr)
	}
	if len(recs) != cfg.HorizonPeriods {
		t.Fatalf("got %d records, want %d", len(recs), cfg.HorizonPeriods)
	}
	sumArr, sumDone := 0, 0
	for i, rec := range recs {
		if rec.Period != i {
			t.Fatalf("record %d has period %d", i, rec.Period)
		}
		if len(rec.Nodes) != cfg.Nodes {
			t.Fatalf("period %d: %d heartbeats, want %d", i, len(rec.Nodes), cfg.Nodes)
		}
		for j, hb := range rec.Nodes {
			if hb.Node != j {
				t.Fatalf("period %d: heartbeats out of order: %+v", i, rec.Nodes)
			}
		}
		if rec.FleetEFU < 0 || rec.FleetEFU > 1.5 {
			t.Fatalf("period %d: implausible fleet EFU %g", i, rec.FleetEFU)
		}
		sumArr += rec.Arrivals
		sumDone += rec.Done
	}
	if sumArr != res.Arrivals || sumDone != res.Done {
		t.Fatalf("trace sums (arrivals %d, done %d) disagree with result (%d, %d)",
			sumArr, sumDone, res.Arrivals, res.Done)
	}
}

// TestClusterAdmissionRejects checks a saturated queue rejects instead
// of growing without bound.
func TestClusterAdmissionRejects(t *testing.T) {
	res := runFleet(t, Config{
		Nodes:          1,
		HorizonPeriods: 30,
		QueueCap:       2,
		Arrivals:       ArrivalConfig{Seed: 9, RatePerPeriod: 4, MeanDurationPeriods: 20},
	})
	if res.Rejected == 0 {
		t.Fatalf("expected rejects at rate 4/period on one node with queue cap 2: %+v", res)
	}
	if res.RejectRate <= 0 || res.RejectRate > 1 {
		t.Fatalf("reject rate %g outside (0,1]", res.RejectRate)
	}
	if res.QueuedEnd > 2 {
		t.Fatalf("queue grew past cap: %d", res.QueuedEnd)
	}
}

// TestClusterNodeLoss checks a lost node re-queues its jobs with bounded
// retries and emits lost heartbeats from then on.
func TestClusterNodeLoss(t *testing.T) {
	var buf bytes.Buffer
	lossAt := 10
	res := runFleet(t, Config{
		Nodes:          2,
		HorizonPeriods: 25,
		Arrivals:       ArrivalConfig{Seed: 3, RatePerPeriod: 2, MeanDurationPeriods: 12},
		NodeChaos: chaos.NodeSchedule{Name: "one-loss", Events: []chaos.NodeEvent{
			{Period: lossAt, Node: 0, Fault: chaos.NodeLoss},
		}},
		Trace: &buf,
	})
	if res.Losses != 1 {
		t.Fatalf("losses = %d, want 1", res.Losses)
	}
	if res.Requeued == 0 {
		t.Fatalf("expected orphans re-queued from the lost node: %+v", res)
	}
	_, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		hb := rec.Nodes[0]
		if rec.Period > lossAt && !hb.Lost {
			t.Fatalf("period %d: node 0 should be lost: %+v", rec.Period, hb)
		}
		if hb.Lost && hb.BECount != 0 {
			t.Fatalf("period %d: lost node still reports %d BEs", rec.Period, hb.BECount)
		}
	}
}

// TestClusterNodeLossCascade pins the re-placement rule: one long job
// under least-loaded placement loses its node each time it lands. A
// loss at period p re-queues it for period p + 2 × its placements so
// far, and the loss of its fifth placement drops it.
func TestClusterNodeLossCascade(t *testing.T) {
	// The job lands on node 0 at period 0, then on the lowest-ID node
	// left after each loss.
	losses := []int{3, 7, 13, 21, 31}
	wantPlaced := []int{0, 3 + 1*2, 7 + 2*2, 13 + 3*2, 21 + 4*2}
	var events []chaos.NodeEvent
	for k, p := range losses {
		events = append(events, chaos.NodeEvent{Period: p, Node: k, Fault: chaos.NodeLoss})
	}
	var buf bytes.Buffer
	c, err := New(Config{
		Nodes:          6,
		HorizonPeriods: 36,
		Scheduler:      "least-loaded",
		Arrivals:       ArrivalConfig{Seed: 1, RatePerPeriod: 1e-9},
		NodeChaos:      chaos.NodeSchedule{Name: "cascade", Events: events},
		Trace:          &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.arrivals = []Arrival{{Job: 0, Period: 0, App: "mcf1", DurationPeriods: 100}}
	c.res.Arrivals = 1
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Losses != 5 || res.Placements != 5 || res.Requeued != 4 || res.Dropped != 1 || res.QueuedEnd != 0 {
		t.Fatalf("losses %d, placements %d, requeued %d, dropped %d, queued %d; want 5, 5, 4, 1, 0",
			res.Losses, res.Placements, res.Requeued, res.Dropped, res.QueuedEnd)
	}
	_, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var placed []int
	for _, rec := range recs {
		if rec.Placed == 0 {
			continue
		}
		k := len(placed)
		placed = append(placed, rec.Period)
		if k < len(wantPlaced) && rec.Nodes[k].BECount != 1 {
			t.Fatalf("period %d: placement %d not on node %d: %+v", rec.Period, k, k, rec.Nodes)
		}
	}
	if !slices.Equal(placed, wantPlaced) {
		t.Fatalf("placed at periods %v, want %v", placed, wantPlaced)
	}
	for k, p := range losses {
		requeued, dropped := 1, 0
		if k == len(losses)-1 {
			requeued, dropped = 0, 1
		}
		if rec := recs[p]; rec.Losses != 1 || rec.Requeued != requeued || rec.Dropped != dropped {
			t.Fatalf("loss %d at period %d: losses %d, requeued %d, dropped %d; want 1, %d, %d",
				k, p, rec.Losses, rec.Requeued, rec.Dropped, requeued, dropped)
		}
	}
}

// TestReadClusterTraceRejectsBadSchema guards the schema tag.
func TestReadClusterTraceRejectsBadSchema(t *testing.T) {
	_, _, err := ReadClusterTrace(strings.NewReader(`{"schema":"bogus/v9"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
	_, _, err = ReadClusterTrace(strings.NewReader(""))
	if err == nil {
		t.Fatal("want error on empty trace")
	}
}

// TestArrivalsDeterministic pins the arrival generator.
func TestArrivalsDeterministic(t *testing.T) {
	cfg := ArrivalConfig{Seed: 21, RatePerPeriod: 2}
	a, err := GenArrivals(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenArrivals(cfg, 100)
	if len(a) == 0 {
		t.Fatal("no arrivals at rate 2 over 100 periods")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i, arr := range a {
		if arr.Job != i {
			t.Fatalf("job IDs not dense: %+v at %d", arr, i)
		}
		if arr.DurationPeriods < 1 || arr.DurationPeriods > 40 {
			t.Fatalf("duration %d outside [1,40]", arr.DurationPeriods)
		}
	}
}
