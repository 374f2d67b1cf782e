package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"dicer/internal/chaos"
	"dicer/internal/slo"
)

// forensicsConfig is controlConfig with the flight recorder armed: the
// same saturating, chaos-laden cluster whose burn-rate alerts reliably
// fire, now dumping incident bundles.
func forensicsConfig(trace *bytes.Buffer) Config {
	cfg := controlConfig(trace)
	// A short cooldown and a generous retention bound: the chaos
	// schedule's freezes land near the burn-alert transitions, and the
	// test wants to see both trigger kinds.
	cfg.Forensics = ForensicsConfig{
		Enabled: true, WindowPeriods: 24, TailPeriods: 4,
		CooldownPeriods: 2, MaxIncidents: 32,
	}
	return cfg
}

// TestForensicsCapturesIncidents runs the engineered-violation cluster
// and checks the flight recorder produced well-formed bundles: known
// trigger kinds, window bounds that contain the trigger, flight entries
// dense and ordered within the window for the triggering node, and
// every in-scope control event attached.
func TestForensicsCapturesIncidents(t *testing.T) {
	var buf bytes.Buffer
	cfg := forensicsConfig(&buf)
	var fromCallback []*Incident
	cfg.OnIncident = func(inc *Incident) { fromCallback = append(fromCallback, inc) }
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	incidents := c.Incidents()
	if len(incidents) == 0 {
		t.Fatal("engineered violation run produced no incidents")
	}
	if res.Incidents != len(incidents) {
		t.Fatalf("Result.Incidents %d != len(Incidents()) %d", res.Incidents, len(incidents))
	}
	if len(fromCallback) != len(incidents) {
		t.Fatalf("OnIncident saw %d bundles, cluster retained %d", len(fromCallback), len(incidents))
	}
	sawBurn := false
	for i, inc := range incidents {
		m := inc.Manifest
		if m.Schema != IncidentSchema || m.Seq != i {
			t.Fatalf("incident %d manifest schema/seq: %+v", i, m)
		}
		switch m.Trigger {
		case TriggerSLOBurn:
			sawBurn = true
		case TriggerNodeLoss, TriggerNodeFreeze:
		default:
			t.Fatalf("unknown trigger %q", m.Trigger)
		}
		if m.Period < m.WindowFrom || m.Period > m.WindowTo {
			t.Fatalf("incident %d: trigger period %d outside window [%d,%d]", i, m.Period, m.WindowFrom, m.WindowTo)
		}
		if m.Policy != "DICER" || m.Scheduler != "headroom" || m.Nodes != 3 {
			t.Fatalf("incident %d manifest context: %+v", i, m)
		}
		if len(inc.Flight) == 0 {
			t.Fatalf("incident %d has no flight entries", i)
		}
		for j, e := range inc.Flight {
			if e.Node != m.Node {
				t.Fatalf("incident %d flight[%d] from node %d, want %d", i, j, e.Node, m.Node)
			}
			if j > 0 && e.Period != inc.Flight[j-1].Period+1 {
				t.Fatalf("incident %d flight gap at %d: %d after %d", i, j, e.Period, inc.Flight[j-1].Period)
			}
		}
		if first, last := inc.Flight[0].Period, inc.Flight[len(inc.Flight)-1].Period; first != m.WindowFrom || last != m.WindowTo {
			t.Fatalf("incident %d window [%d,%d] vs flight [%d,%d]", i, m.WindowFrom, m.WindowTo, first, last)
		}
		for _, ev := range inc.Events {
			if ev.Period < m.WindowFrom || ev.Period > m.WindowTo {
				t.Fatalf("incident %d event outside window: %+v", i, ev)
			}
		}
	}
	if !sawBurn {
		t.Fatalf("no slo-burn incident among %d bundles", len(incidents))
	}
	// The bundles' evidence carries decision provenance: at least one
	// flight entry should name a controller cause. The state is the
	// deciding group's after the period, so a period whose last decision
	// was a reset ends in validate.
	withCause, resets := 0, 0
	for _, inc := range incidents {
		for _, e := range inc.Flight {
			if e.Cause != "" {
				withCause++
			}
			if e.Cause == "perf-reset" || e.Cause == "phase-reset" {
				resets++
				if e.State != "validate" {
					t.Fatalf("node %d period %d: %s left the group in %q, want validate", e.Node, e.Period, e.Cause, e.State)
				}
			}
		}
	}
	if withCause == 0 || resets == 0 {
		t.Fatalf("%d flight entries carry a controller cause tag, %d a reset; want both", withCause, resets)
	}
}

// TestFlightStateSurvivesRepack: the autoscaler repacks a node before
// node chaos can freeze or lose it, so a repack may drop the group that
// decided last and leave the node deciding nothing that period. The
// flight entry then repeats the last state read rather than reading the
// dropped group; the next stepped period reads the new plan's group.
func TestFlightStateSurvivesRepack(t *testing.T) {
	c, err := New(Config{Nodes: 1, HPsPerNode: 2, HPs: []string{"mcf1", "Xalan1"}, Forensics: ForensicsConfig{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	n, ctl := c.nodes[0], c.nodes[0].box.Grouped
	var e FlightEntry
	for p := 0; p < 16; p++ {
		if _, _, err := n.StepPeriod(p); err != nil {
			t.Fatal(err)
		}
		e = FlightEntry{}
		n.takeFlight(&e)
	}
	if ctl.NumGroups() != 2 || n.flightGroup != 1 || e.Decisions == 0 || e.State == "" {
		t.Fatalf("after 16 periods: %d groups, group %d decided last, entry %+v; want group 1 of 2 deciding", ctl.NumGroups(), n.flightGroup, e)
	}
	if changed, err := n.Repack(); err != nil || !changed || ctl.NumGroups() != 1 {
		t.Fatalf("repack: changed=%v err=%v, %d groups; want one group", changed, err, ctl.NumGroups())
	}
	last := e.State
	e = FlightEntry{}
	n.takeFlight(&e)
	if e.State != last || e.Decisions != 0 {
		t.Fatalf("period without decisions after the repack: state %q, %d decisions; want %q, 0", e.State, e.Decisions, last)
	}
	if _, _, err := n.StepPeriod(16); err != nil {
		t.Fatal(err)
	}
	e = FlightEntry{}
	n.takeFlight(&e)
	if e.Decisions == 0 || e.State != ctl.GroupState(0) {
		t.Fatalf("period after the repack: state %q, %d decisions; want group 0's %q", e.State, e.Decisions, ctl.GroupState(0))
	}
}

// TestForensicsWithoutMigration checks the recorder arms its own
// burn-rate alerters when the migration engine is off: the same hot
// cluster still produces slo-burn incidents (and, chaos permitting,
// loss/freeze ones), with no migration events in scope.
func TestForensicsWithoutMigration(t *testing.T) {
	var buf bytes.Buffer
	cfg := forensicsConfig(&buf)
	cfg.Migration = MigrationConfig{}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	incidents := c.Incidents()
	sawBurn := false
	for _, inc := range incidents {
		if inc.Manifest.Trigger == TriggerSLOBurn {
			sawBurn = true
		}
		if !reflect.DeepEqual(inc.Manifest.Alert, slo.DefaultAlertConfig()) {
			t.Fatalf("manifest alert config %+v not the rule the alerters ran", inc.Manifest.Alert)
		}
	}
	if !sawBurn {
		t.Fatalf("no slo-burn incident without migration (got %d incidents)", len(incidents))
	}
}

// TestIncidentBundleByteDeterminism seals the same engineered run twice
// and requires every bundle to serialise to identical bytes — the
// property that makes a live dump interchangeable with its committed
// golden.
func TestIncidentBundleByteDeterminism(t *testing.T) {
	dump := func() [][]byte {
		var buf bytes.Buffer
		c, err := New(forensicsConfig(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, inc := range c.Incidents() {
			var b bytes.Buffer
			if err := inc.Dump(&b); err != nil {
				t.Fatal(err)
			}
			out = append(out, b.Bytes())
		}
		return out
	}
	a, b := dump(), dump()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("bundle counts differ or zero: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("bundle %d differs between identical runs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
}

// TestIncidentRoundTrip writes a bundle and reads it back unchanged:
// ReadIncident(Dump(inc)) == inc, so offline explain sees exactly
// what the live cluster sealed.
func TestIncidentRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c, err := New(forensicsConfig(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	incidents := c.Incidents()
	if len(incidents) == 0 {
		t.Fatal("no incidents to round-trip")
	}
	for i, inc := range incidents {
		var b bytes.Buffer
		if err := inc.Dump(&b); err != nil {
			t.Fatal(err)
		}
		got, err := ReadIncident(&b)
		if err != nil {
			t.Fatalf("incident %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, inc) {
			t.Fatalf("incident %d round-trip mismatch:\n%+v\nvs\n%+v", i, got, inc)
		}
	}
}

// TestForensicsTriggerHygiene unit-tests the trigger bookkeeping: the
// per-node cooldown suppresses repeat triggers, the retention bound
// counts drops, and a trigger seals at its tail bound with the node's
// ring as evidence under the run's manifest.
func TestForensicsTriggerHygiene(t *testing.T) {
	cfg := ForensicsConfig{Enabled: true, WindowPeriods: 8, TailPeriods: 2, CooldownPeriods: 10, MaxIncidents: 2}
	cfg.withDefaults()
	f := newForensics(cfg, IncidentManifest{})
	f.addNode()
	f.addNode()

	f.trigger(5, 0, TriggerSLOBurn, "")
	f.trigger(6, 0, TriggerNodeFreeze, "") // cooldown: suppressed
	f.trigger(6, 1, TriggerNodeLoss, "")   // other node: allowed
	if len(f.pending) != 2 {
		t.Fatalf("pending %d, want 2 (cooldown must suppress same-node repeat)", len(f.pending))
	}
	f.trigger(7, 1, TriggerSLOBurn, "") // node 1 cooling down
	if len(f.pending) != 2 {
		t.Fatalf("pending %d after cooled trigger, want 2", len(f.pending))
	}
	// Past both cooldowns the bound bites: MaxIncidents 2 already pending.
	f.trigger(30, 0, TriggerSLOBurn, "")
	if len(f.pending) != 2 || f.dropped != 1 {
		t.Fatalf("pending %d dropped %d, want bound to drop the third", len(f.pending), f.dropped)
	}

	// A freeze at period 3 seals once period 5's entry is recorded.
	g := newForensics(cfg, IncidentManifest{Schema: IncidentSchema, Policy: "DICER", Nodes: 1})
	g.addNode()
	g.rings[0].Push(FlightEntry{Period: 3, Heartbeat: Heartbeat{Node: 0, Frozen: true}})
	g.trigger(3, 0, TriggerNodeFreeze, "periods=2")
	g.rings[0].Push(FlightEntry{Period: 4, Heartbeat: Heartbeat{Node: 0, Frozen: true}})
	if n := g.seal(4, false); n != 0 {
		t.Fatalf("sealed %d incidents inside the tail, want 0", n)
	}
	g.rings[0].Push(FlightEntry{Period: 5, Heartbeat: Heartbeat{Node: 0}})
	if n := g.seal(5, false); n != 1 || len(g.incidents) != 1 {
		t.Fatalf("sealed %d incidents at the tail bound, want 1", n)
	}
	want := IncidentManifest{
		Schema: IncidentSchema, Trigger: TriggerNodeFreeze, Period: 3, Detail: "periods=2",
		WindowFrom: 3, WindowTo: 5, Policy: "DICER", Nodes: 1,
	}
	if inc := g.incidents[0]; !reflect.DeepEqual(inc.Manifest, want) || len(inc.Flight) != 3 {
		t.Fatalf("sealed bundle %+v with %d flight entries, want %+v with 3", inc.Manifest, len(inc.Flight), want)
	}
}

// TestParallelSteppingByteIdenticalForensics256 extends the fleet's
// determinism acceptance to an armed recorder: a 256-node chaos-laden
// cluster with migration, autoscaling and forensics on steps to
// byte-identical traces AND byte-identical incident bundles at any
// worker count. CI's forensics-smoke job runs this under -race.
func TestParallelSteppingByteIdenticalForensics256(t *testing.T) {
	run := func(workers int) (Result, []byte, [][]byte) {
		var trace bytes.Buffer
		cfg := scaleConfig(256, 20, workers, &trace)
		cfg.Forensics = ForensicsConfig{Enabled: true, WindowPeriods: 12, TailPeriods: 3, CooldownPeriods: 10}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var bundles [][]byte
		for _, inc := range c.Incidents() {
			var b bytes.Buffer
			if err := inc.Dump(&b); err != nil {
				t.Fatal(err)
			}
			bundles = append(bundles, b.Bytes())
		}
		return res, trace.Bytes(), bundles
	}
	rs, ts, bs := run(1)
	rp, tp, bp := run(8)
	if rs != rp {
		t.Errorf("Workers=1 and Workers=8 results differ:\n%+v\n%+v", rs, rp)
	}
	if !bytes.Equal(ts, tp) {
		t.Fatalf("traces differ with recorder armed (%d vs %d bytes)", len(ts), len(tp))
	}
	if len(bs) == 0 || len(bs) != len(bp) {
		t.Fatalf("bundle counts differ or zero: %d vs %d", len(bs), len(bp))
	}
	for i := range bs {
		if !bytes.Equal(bs[i], bp[i]) {
			t.Fatalf("bundle %d differs across worker counts", i)
		}
	}
}

// TestStepAllocFreeForensics pins the armed recorder's hot-path cost: a
// warm, healthy cluster (no triggers, no seals) steps at 0 allocs per
// period with per-node rings recording every heartbeat.
func TestStepAllocFreeForensics(t *testing.T) {
	c, err := New(Config{
		Nodes:          4,
		HorizonPeriods: 1 << 20,
		Workers:        1,
		Arrivals:       ArrivalConfig{Seed: 1, RatePerPeriod: 1e-300},
		Migration:      MigrationConfig{Enabled: true},
		Forensics:      ForensicsConfig{Enabled: true},
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
		t.Fatalf("armed steady-state Step allocates %.1f times per period, want 0", avg)
	}
}

// TestForensicsRetainsTail checks the post-trigger tail: a node-loss
// trigger at period p seals TailPeriods later and the bundle's window
// extends to the seal period, showing the aftermath.
func TestForensicsRetainsTail(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{
		Nodes:          2,
		HorizonPeriods: 30,
		Workers:        1,
		Arrivals:       ArrivalConfig{Seed: 7, RatePerPeriod: 1, MeanDurationPeriods: 6},
		NodeChaos: chaos.NodeSchedule{Name: "one-loss", Events: []chaos.NodeEvent{
			{Period: 10, Node: 1, Fault: chaos.NodeLoss},
		}},
		Forensics: ForensicsConfig{Enabled: true, WindowPeriods: 8, TailPeriods: 5},
		Trace:     &buf,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	incidents := c.Incidents()
	if len(incidents) != 1 {
		t.Fatalf("want exactly the loss incident, got %d", len(incidents))
	}
	m := incidents[0].Manifest
	if m.Trigger != TriggerNodeLoss || m.Node != 1 || m.Period != 10 {
		t.Fatalf("manifest %+v", m)
	}
	if m.WindowTo != 15 {
		t.Fatalf("window ends at %d, want trigger+tail = 15", m.WindowTo)
	}
	// Tail entries exist and carry the lost flag.
	tail := incidents[0].Flight[len(incidents[0].Flight)-1]
	if tail.Period != 15 || !tail.Lost {
		t.Fatalf("tail entry %+v, want lost node at period 15", tail)
	}
}
