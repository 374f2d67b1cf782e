package fleet

import (
	"bytes"
	"testing"

	"dicer/internal/chaos"
)

// controlConfig is a small saturating cluster — stream-heavy arrivals
// hot enough that burn-rate alerts actually fire — with node chaos
// layered on top, used by the migration tests.
func controlConfig(trace *bytes.Buffer) Config {
	return Config{
		Nodes:          3,
		HorizonPeriods: 60,
		Scheduler:      "headroom",
		Arrivals: ArrivalConfig{
			Seed: 42, RatePerPeriod: 4, MeanDurationPeriods: 8,
			ClassWeights: [4]float64{0.5, 0.2, 0.2, 0.1},
		},
		NodeChaos: chaos.GenNodeSchedule("t", 3, 3, 60, 0.02, 0.005, 3),
		Migration: MigrationConfig{Enabled: true},
		Trace:     trace,
	}
}

// TestMigrationConservesJobs checks the eviction path creates and loses
// nothing: with migration evicting BE jobs off burning nodes (under
// chaos re-queueing jobs too), every admitted job still ends in exactly
// one of done, running, queued, or dropped, and the per-period eviction
// counts in the trace sum to the result total.
func TestMigrationConservesJobs(t *testing.T) {
	var buf bytes.Buffer
	res := runFleet(t, controlConfig(&buf))
	if res.Evicted == 0 || res.Migrations == 0 {
		t.Fatalf("control config exercised no migrations: %+v", res)
	}
	if got := res.Done + res.RunningEnd + res.QueuedEnd + res.Dropped; got != res.Admitted {
		t.Fatalf("job conservation under migration: done %d + running %d + queued %d + dropped %d = %d, want admitted %d",
			res.Done, res.RunningEnd, res.QueuedEnd, res.Dropped, got, res.Admitted)
	}
	_, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evicted, events := 0, 0
	for _, rec := range recs {
		evicted += rec.Evicted
		for _, ev := range rec.Events {
			if ev.Cause == CauseMigration {
				events++
				if ev.Node < 0 || len(ev.Jobs) == 0 {
					t.Fatalf("malformed migration event %+v", ev)
				}
			}
		}
	}
	if evicted != res.Evicted {
		t.Fatalf("trace evictions %d != result %d", evicted, res.Evicted)
	}
	if events != res.Migrations {
		t.Fatalf("trace migration events %d != result %d", events, res.Migrations)
	}
}

// TestMigrationHysteresis checks the loop does not ping-pong: two
// migrations off the same node must be separated by at least the
// per-node cooldown, each decision evicts at most maxEvict jobs, and an
// evicted node takes no placements while it is quarantined, so its
// heartbeat BE count does not rise from the eviction period through the
// last quarantined period. Under controlConfig no node's alert fires
// again inside its cooldown, so the spacing check alone cannot fail
// there. Twenty-period jobs without chaos keep a node burning through
// its cooldown: that run migrates 7 times, and 17 times without the
// per-node cooldown check, node 1 at periods 26, 27 and 29.
func TestMigrationHysteresis(t *testing.T) {
	longJobs := func(trace *bytes.Buffer) Config {
		cfg := controlConfig(trace)
		cfg.HorizonPeriods = 80
		cfg.Arrivals.MeanDurationPeriods = 20
		cfg.NodeChaos = chaos.NodeSchedule{}
		return cfg
	}
	for _, tc := range []struct {
		name   string
		config func(*bytes.Buffer) Config
	}{{"chaos", controlConfig}, {"long-jobs", longJobs}} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			res := runFleet(t, tc.config(&buf))
			if res.Migrations < 2 {
				t.Fatalf("want at least two migrations to check spacing, got %d", res.Migrations)
			}
			_, recs, err := ReadClusterTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			checkHysteresis(t, recs)
		})
	}
}

// checkHysteresis applies TestMigrationHysteresis's spacing, eviction
// and quarantine checks to one run's records.
func checkHysteresis(t *testing.T, recs []ClusterRecord) {
	t.Helper()
	beCount := func(period, node int) int {
		for _, hb := range recs[period].Nodes {
			if hb.Node == node {
				return hb.BECount
			}
		}
		t.Fatalf("period %d has no heartbeat for node %d", period, node)
		return 0
	}
	last := map[int]int{}
	for _, rec := range recs {
		for _, ev := range rec.Events {
			if ev.Cause != CauseMigration {
				continue
			}
			if prev, ok := last[ev.Node]; ok && rec.Period-prev < migrationCooldown {
				t.Fatalf("node %d migrated at periods %d and %d, inside cooldown %d",
					ev.Node, prev, rec.Period, migrationCooldown)
			}
			last[ev.Node] = rec.Period
			if len(ev.Jobs) > maxEvict {
				t.Fatalf("period %d: node %d evicted %d jobs, above maxEvict %d",
					rec.Period, ev.Node, len(ev.Jobs), maxEvict)
			}
			for q := rec.Period + 1; q < rec.Period+quarantinePeriods && q < len(recs); q++ {
				if before, now := beCount(q-1, ev.Node), beCount(q, ev.Node); now > before {
					t.Fatalf("node %d quarantined from period %d took placements: BE count %d -> %d at period %d",
						ev.Node, rec.Period, before, now, q)
				}
			}
		}
	}
}

// TestAutoscalerMonotone checks the controller does not act without its
// signal: an autoscale-enabled fleet whose queue never breaches
// queueHigh must end with zero repacks and zero scale-ups.
func TestAutoscalerMonotone(t *testing.T) {
	res := runFleet(t, Config{
		Nodes:          4,
		HorizonPeriods: 60,
		Arrivals:       ArrivalConfig{Seed: 7, RatePerPeriod: 1, MeanDurationPeriods: 5},
		Autoscale:      AutoscaleConfig{Enabled: true, MinNodes: 4},
	})
	if res.Repacks != 0 || res.ScaleUps != 0 || res.NodesAdded != 0 {
		t.Fatalf("autoscaler acted without queue pressure: repacks %d, scale-ups %d (+%d nodes)",
			res.Repacks, res.ScaleUps, res.NodesAdded)
	}
	if res.NodesEnd != 4 {
		t.Fatalf("fleet size drifted without signal: %d nodes at end", res.NodesEnd)
	}
}

// TestAutoscalerRepartitionFirst checks the two-rung ladder: in any run
// that scales up, the first pressure response must have been a repack —
// capacity is only added after repartitioning failed to relieve the
// queue.
func TestAutoscalerRepartitionFirst(t *testing.T) {
	var buf bytes.Buffer
	res := runFleet(t, Config{
		Nodes:          2,
		HorizonPeriods: 80,
		Scheduler:      "headroom",
		QueueCap:       64,
		Arrivals:       ArrivalConfig{Seed: 42, RatePerPeriod: 4, MeanDurationPeriods: 12},
		Autoscale:      AutoscaleConfig{Enabled: true, MaxNodes: 6},
		Trace:          &buf,
	})
	if res.ScaleUps == 0 {
		t.Fatalf("overloaded 2-node fleet never scaled up: %+v", res)
	}
	if res.Repacks == 0 {
		t.Fatal("fleet scaled up without ever trying a repack")
	}
	_, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	firstRepack, firstUp := -1, -1
	for _, rec := range recs {
		for _, ev := range rec.Events {
			switch ev.Cause {
			case CauseRepack:
				if firstRepack < 0 {
					firstRepack = rec.Period
				}
			case CauseScaleUp:
				if firstUp < 0 {
					firstUp = rec.Period
				}
			}
		}
	}
	if firstRepack < 0 || firstUp < 0 || firstUp <= firstRepack {
		t.Fatalf("repartition-first violated: first repack at %d, first scale-up at %d", firstRepack, firstUp)
	}
	if res.NodesEnd > 6 {
		t.Fatalf("fleet grew past MaxNodes: %d", res.NodesEnd)
	}
}

// TestAutoscalerDrainsIdleFleet checks graceful scale-down: an idle
// fleet drains nodes down toward MinNodes, retired nodes leave the EFU
// denominator, and the working fleet never shrinks below the floor.
func TestAutoscalerDrainsIdleFleet(t *testing.T) {
	var buf bytes.Buffer
	res := runFleet(t, Config{
		Nodes:          5,
		HorizonPeriods: 100,
		Arrivals:       ArrivalConfig{Seed: 3, RatePerPeriod: 0.1, MeanDurationPeriods: 3},
		Autoscale:      AutoscaleConfig{Enabled: true, MinNodes: 2},
		Trace:          &buf,
	})
	if res.ScaleDowns == 0 || res.NodesRetired == 0 {
		t.Fatalf("idle 5-node fleet never drained: %+v", res)
	}
	if res.NodesEnd < 2 {
		t.Fatalf("fleet shrank below MinNodes: %d nodes at end", res.NodesEnd)
	}
	_, recs, err := ReadClusterTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.NodesLive != 0 && rec.NodesLive < 2 {
			t.Fatalf("period %d: %d live nodes, below MinNodes 2", rec.Period, rec.NodesLive)
		}
	}
}

// scaleConfig is the parallel-determinism configuration: a large
// multi-HP cluster with chaos and both control loops on — every source
// of cross-node coupling the stepping path has.
func scaleConfig(nodes, periods, workers int, trace *bytes.Buffer) Config {
	return Config{
		Nodes:          nodes,
		HPsPerNode:     2,
		HorizonPeriods: periods,
		Scheduler:      "headroom",
		QueueCap:       nodes,
		Workers:        workers,
		Arrivals: ArrivalConfig{
			Seed: 42, RatePerPeriod: float64(nodes) / 4, MeanDurationPeriods: 8,
			ClassWeights: [4]float64{0.5, 0.2, 0.2, 0.1},
		},
		NodeChaos: chaos.GenNodeSchedule("t", 9, nodes, periods, 0.01, 0.002, 3),
		Migration: MigrationConfig{Enabled: true},
		Autoscale: AutoscaleConfig{Enabled: true},
		Trace:     trace,
	}
}

// checkParallelByteIdentical runs the scale configuration serially and
// with a worker pool and requires byte-identical traces: float merges
// are index-ordered and control decisions serial, so worker count must
// be invisible.
func checkParallelByteIdentical(t *testing.T, nodes, periods int) {
	t.Helper()
	var serial, parallel bytes.Buffer
	rs := runFleet(t, scaleConfig(nodes, periods, 1, &serial))
	rp := runFleet(t, scaleConfig(nodes, periods, 8, &parallel))
	if rs != rp {
		t.Errorf("Workers=1 and Workers=8 results differ:\n%+v\n%+v", rs, rp)
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("Workers=1 and Workers=8 traces differ (%d vs %d bytes)", serial.Len(), parallel.Len())
	}
	if rs.Done == 0 || serial.Len() == 0 {
		t.Fatalf("degenerate scale run: %+v", rs)
	}
}

// TestParallelSteppingByteIdentical256 is the CI smoke variant of the
// 1000-node determinism check.
func TestParallelSteppingByteIdentical256(t *testing.T) {
	checkParallelByteIdentical(t, 256, 20)
}

// TestParallelSteppingByteIdentical1000 pins the production-scale
// acceptance criterion: a 1000-node multi-HP cluster with migration,
// autoscaling and chaos steps byte-identically at any worker count.
func TestParallelSteppingByteIdentical1000(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-node determinism check skipped in -short")
	}
	checkParallelByteIdentical(t, 1000, 12)
}

// TestStepAllocFree pins the pooled stepping path: once warm, a cluster
// period with migration alerting enabled allocates nothing. Arrivals
// use a vanishingly small (not zero — zero means "default 1") rate so
// the trace is deterministically empty: admission builds *Jobs and so
// inherently allocates, and what this test pins is everything else —
// stepping, aggregation, heartbeat pooling and alerter bookkeeping.
func TestStepAllocFree(t *testing.T) {
	c, err := New(Config{
		Nodes:          4,
		HorizonPeriods: 1 << 20,
		Workers:        1,
		Arrivals:       ArrivalConfig{Seed: 1, RatePerPeriod: 1e-300},
		Migration:      MigrationConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state Step allocates %.1f times per period, want 0", avg)
	}
}
