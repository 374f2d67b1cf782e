package obs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dicer/internal/cache"
	"dicer/internal/chaos"
	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/invariant"
	"dicer/internal/mrc"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// fakeSystem is an allocation-free resctrl.System for driving the
// controller and recorder without a simulator (the quietSystem pattern
// from internal/core).
type fakeSystem struct {
	ways  int
	masks [4]uint64
}

func (q *fakeSystem) NumWays() int { return q.ways }
func (q *fakeSystem) NumClos() int { return len(q.masks) }
func (q *fakeSystem) SetCBM(clos int, mask uint64) error {
	if err := cache.CheckMask(mask, q.ways); err != nil {
		return err
	}
	q.masks[clos] = mask
	return nil
}
func (q *fakeSystem) CBM(clos int) uint64          { return q.masks[clos] }
func (q *fakeSystem) SetMBACap(int, float64) error { return errors.New("no MBA") }
func (q *fakeSystem) LinkCapacityGbps() float64    { return 68.3 }
func (q *fakeSystem) Counters() sim.Snapshot       { return sim.Snapshot{} }
func (q *fakeSystem) MoveCore(int, int) error      { return nil }

var _ resctrl.System = (*fakeSystem)(nil)

// period builds the observables the controller reads: one HP core, one BE
// core, one monitoring group per class.
func period(hpIPC, beIPC, hpBW, totalBW float64) resctrl.Period {
	return resctrl.Period{
		Seconds: 1,
		Cores: []resctrl.PeriodCore{
			{Core: 0, Clos: policy.HPClos, IPC: hpIPC},
			{Core: 1, Clos: policy.BEClos, IPC: beIPC},
		},
		Groups: []resctrl.PeriodGroup{
			{Clos: policy.HPClos, BandwidthGbps: hpBW, OccupancyBytes: 1 << 20},
			{Clos: policy.BEClos, BandwidthGbps: totalBW - hpBW},
		},
		TotalGbps: totalBW,
	}
}

// last returns the ring's most recent record.
func last(t *testing.T, g *Ring) Record {
	t.Helper()
	snap := g.Snapshot()
	if len(snap) == 0 {
		t.Fatal("ring holds no record")
	}
	return snap[len(snap)-1]
}

func TestRingEvictionAndSnapshot(t *testing.T) {
	g := NewRing(3)
	if len(g.Snapshot()) != 0 {
		t.Fatalf("fresh ring holds %d records", len(g.Snapshot()))
	}
	for i := 0; i < 5; i++ {
		g.Emit(&Record{Period: i})
	}
	if len(g.Snapshot()) != 3 {
		t.Fatalf("Len=%d, want 3", len(g.Snapshot()))
	}
	snap := g.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d records, want 3", len(snap))
	}
	for i, want := range []int{2, 3, 4} {
		if snap[i].Period != want {
			t.Errorf("snapshot[%d].Period = %d, want %d (oldest-first)", i, snap[i].Period, want)
		}
	}
}

func TestRingDeepCopiesDecisions(t *testing.T) {
	g := NewRing(4)
	buf := [maxDecisions]string{"shrink"}
	g.Emit(&Record{Period: 0, Groups: []GroupRecord{{Decisions: buf[:1]}}})
	buf[0] = "CLOBBERED" // the recorder reuses its scratch like this
	snap := g.Snapshot()
	if got := snap[0].Groups[0].Decisions[0]; got != "shrink" {
		t.Fatalf("ring aliased the caller's decision buffer: got %q", got)
	}
	// Snapshot copies must also be independent of the ring's own slots.
	snap[0].Groups[0].Decisions[0] = "MUTATED"
	if again := last(t, g); again.Groups[0].Decisions[0] != "shrink" {
		t.Fatalf("snapshot aliased the ring slot: got %q", again.Groups[0].Decisions[0])
	}
}

// cloneSink keeps a deep copy of every record as it is emitted.
type cloneSink []Record

func (c *cloneSink) Emit(r *Record) { *c = append(*c, r.clone()) }

// TestRingDeepCopiesGroups runs a grouped recorder into a ring: every
// retained record's groups must equal a deep copy taken at Emit,
// although the recorder rewrites its group scratch every period. A
// later record with more groups regrows the ring's group storage
// without disturbing the records it holds.
func TestRingDeepCopiesGroups(t *testing.T) {
	ctl := threeHP(t)
	sys := &fakeSystem{ways: 20}
	ring := NewRing(64)
	var want cloneSink
	rec := NewRecorder(MultiSink{ring, &want})
	rec.AttachController(ctl)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p := groupedPeriod(1+0.1*float64(i%7), 0.8+0.1*float64(i%5))
		if err := ctl.Observe(sys, p); err != nil {
			t.Fatal(err)
		}
		rec.EndPeriod(i, p, sys, nil)
	}
	got := ring.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("ring holds %d records, %d emitted", len(got), len(want))
	}
	decisions := 0
	for i := range got {
		if len(want[i].Groups) != 3 {
			t.Fatalf("period %d emitted %d groups, want 3", i, len(want[i].Groups))
		}
		if !reflect.DeepEqual(got[i].Groups, want[i].Groups) {
			t.Fatalf("period %d: ring holds groups %+v, emitted %+v", i, got[i].Groups, want[i].Groups)
		}
		for _, g := range want[i].Groups {
			decisions += len(g.Decisions)
		}
	}
	if decisions == 0 {
		t.Fatal("no group decisions emitted: the run does not exercise their copies")
	}

	two := []GroupRecord{{Group: 0, IPC: 1, Decisions: []string{"shrink"}}, {Group: 1, IPC: 2}}
	three := []GroupRecord{{Group: 0, IPC: 3}, {Group: 1, IPC: 4}, {Group: 2, IPC: 5, Decisions: []string{"sample"}}}
	g := NewRing(3)
	g.Emit(&Record{Period: 0, Groups: two})
	g.Emit(&Record{Period: 1, Groups: three})
	wantTwo := []GroupRecord{{Group: 0, IPC: 1, Decisions: []string{"shrink"}}, {Group: 1, IPC: 2}}
	wantThree := []GroupRecord{{Group: 0, IPC: 3}, {Group: 1, IPC: 4}, {Group: 2, IPC: 5, Decisions: []string{"sample"}}}
	two[0].IPC, two[0].Decisions[0], three[2].Decisions[0] = -1, "CLOBBERED", "CLOBBERED"
	snap := g.Snapshot()
	if !reflect.DeepEqual(snap[0].Groups, wantTwo) || !reflect.DeepEqual(snap[1].Groups, wantThree) {
		t.Fatalf("ring holds groups %+v and %+v after regrowing", snap[0].Groups, snap[1].Groups)
	}
}

func TestMultiSinkFanOutAndStart(t *testing.T) {
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	ring := NewRing(8)
	m := MultiSink{ring, jl}
	if err := m.Start(Header{Schema: Schema, Policy: "UM", NumWays: 20}); err != nil {
		t.Fatal(err)
	}
	m.Emit(&Record{Period: 7})
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(ring.Snapshot()) != 1 {
		t.Fatalf("ring got %d records, want 1", len(ring.Snapshot()))
	}
	if got := last(t, ring); got.Period != 7 {
		t.Fatalf("ring record period = %d, want 7", got.Period)
	}
	h, recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Policy != "UM" || len(recs) != 1 || recs[0].Period != 7 {
		t.Fatalf("JSONL leg diverged: header %+v, records %+v", h, recs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	cfg := core.DefaultConfig()
	hIn := Header{
		Schema: Schema, Policy: "DICER-clustered", HPs: []string{"milc1", "namd1"},
		SLOs: []float64{0.9, 0.8}, BEs: []string{"gcc_base1", "gcc_base1"},
		NumWays: 20, PeriodSec: 1, HorizonPeriods: 2,
		Chaos: "storm", ChaosSeed: 7, Controller: &cfg,
		CLOSBudget: 4, Grouping: core.GroupingClustered,
		Plan: []PlanGroup{{Apps: []int{0}, Ways: 12}, {Apps: []int{1}, Ways: 7}},
	}
	if err := jl.Start(hIn); err != nil {
		t.Fatal(err)
	}
	in := []Record{
		{Period: 0, TimeSec: 1, HPIPC: 1.25, HPBWGbps: 4.5, TotalGbps: 55.5,
			Saturated: true, HPWays: 18, HPMask: 0x3ffff, BEMask: 0xc0000,
			Faults: chaos.Stats{Reads: 1, Dropouts: 1},
			Groups: []GroupRecord{
				{Group: 0, IPC: 1.5, BWGbps: 3, Ways: 11, Mask: 0xffe00, State: "sampling",
					Decisions: []string{"saturated", "sample"}, Cause: "sampling"},
				{Group: 1, IPC: 1, BWGbps: 1.5, Ways: 7, Mask: 0x1fc, State: "optimise",
					Decisions: []string{"hold", "recluster"}, Cause: "recluster"},
			},
			Plan: []PlanGroup{{Apps: []int{0, 1}, Ways: 18}}},
		{Period: 1, TimeSec: 2, HPIPC: 1.3, HPWays: 2,
			Tolerated: true, Guard: "MaskLegal: boom", Err: "other"},
	}
	for i := range in {
		jl.Emit(&in[i])
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}

	hOut, out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hOut, hIn) {
		t.Fatalf("header round-trip diverged:\n got %+v\nwant %+v", hOut, hIn)
	}
	if hOut.FaultFree() {
		t.Fatal("chaos trace reported fault-free")
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("records round-trip diverged:\n got %+v\nwant %+v", out, in)
	}
}

// TestReadTraceRefusesEarlierSchemas: a trace written under an earlier
// schema is refused by a reader error that names the schema it found.
func TestReadTraceRefusesEarlierSchemas(t *testing.T) {
	for _, schema := range []string{"dicer-trace/v1", "dicer-trace/v2"} {
		_, _, err := ReadTrace(strings.NewReader(`{"schema":"` + schema + `","policy":"DICER","num_ways":20}` + "\n"))
		if err == nil || !strings.Contains(err.Error(), schema) {
			t.Errorf("%s header: ReadTrace returned %v, want an error naming %s", schema, err, schema)
		}
	}
}

func TestReadTraceRejectsBadInput(t *testing.T) {
	if _, _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
	if _, _, err := ReadTrace(strings.NewReader(`{"schema":"bogus/v9"}` + "\n")); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
}

// TestRecorderCapturesPeriods drives a real controller through quiet,
// saturated, and phase-change periods, and checks every record against an
// independently chained trace subscriber and the controller's own state.
func TestRecorderCapturesPeriods(t *testing.T) {
	ctl := core.MustNew(core.DefaultConfig())
	sys := &fakeSystem{ways: 20}
	ring := NewRing(128)
	rec := NewRecorder(ring)

	// Independent witness for the decision stream; AttachController must
	// chain after it, not replace it.
	var witness []string
	ctl.Trace = func(e core.Event) { witness = append(witness, string(e.Kind)) }
	rec.AttachController(ctl)

	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	ipcs := []float64{1.0, 1.0, 1.0, 1.0, 0.6, 1.4, 0.6, 1.4, 1.0, 1.0}
	bws := []float64{20, 20, 60, 60, 20, 20, 20, 20, 60, 20}
	for i := range ipcs {
		witness = witness[:0]
		p := period(ipcs[i], 0.8, 5, bws[i])
		if err := ctl.Observe(sys, p); err != nil {
			t.Fatal(err)
		}
		rec.EndPeriod(i, p, sys, nil)

		if len(ring.Snapshot()) != i+1 {
			t.Fatalf("period %d: ring holds %d records", i, len(ring.Snapshot()))
		}
		r := last(t, ring)
		if r.Period != i || r.TimeSec != float64(i+1) {
			t.Fatalf("period %d: bookkeeping %d/%v", i, r.Period, r.TimeSec)
		}
		if r.HPIPC != ipcs[i] || r.TotalGbps != bws[i] || r.HPBWGbps != 5 ||
			r.BEMeanIPC != 0.8 || r.HPOccBytes != 1<<20 {
			t.Fatalf("period %d: inputs diverged: %+v", i, r)
		}
		if want := bws[i] > 50; r.Saturated != want {
			t.Fatalf("period %d: saturated = %v, want %v (bw %v)", i, r.Saturated, want, bws[i])
		}
		if len(r.Groups) != 1 || r.Plan != nil {
			t.Fatalf("period %d: two-CLOS record has %d groups, plan %v", i, len(r.Groups), r.Plan)
		}
		g := r.Groups[0]
		if g.Group != 0 || g.IPC != ipcs[i] || g.BWGbps != 5 {
			t.Fatalf("period %d: group inputs diverged: %+v", i, g)
		}
		if g.State != ctl.GroupState(0) || g.Ways != ctl.HPWays() || r.HPWays != ctl.HPWays() {
			t.Fatalf("period %d: state/ways diverged from controller", i)
		}
		if r.HPMask != sys.CBM(policy.HPClos) || g.Mask != r.HPMask || r.BEMask != sys.CBM(policy.BEClos) {
			t.Fatalf("period %d: masks diverged from substrate", i)
		}
		if fmt.Sprint(g.Decisions) != fmt.Sprint(witness) {
			t.Fatalf("period %d: decisions %v, witness saw %v", i, g.Decisions, witness)
		}
		if len(witness) > 0 {
			if want := core.EventKind(witness[len(witness)-1]).Cause(); g.Cause != want {
				t.Fatalf("period %d: cause %q, want %q (the last decision's)", i, g.Cause, want)
			}
		}
		if r.Tolerated || r.Guard != "" || r.Err != "" || r.Faults != (chaos.Stats{}) {
			t.Fatalf("period %d: clean run carried annotations: %+v", i, r)
		}
	}
	if len(ring.Snapshot()) != len(ipcs) {
		t.Fatalf("emitted %d records, want %d", len(ring.Snapshot()), len(ipcs))
	}
}

// TestRecorderClassifiesErrors sorts Observe errors into the record's
// annotations and overrides the group's cause with the substrate's
// provenance: chaos-masked for a tolerated fault, guard-veto for an
// invariant violation (also when both occurred).
func TestRecorderClassifiesErrors(t *testing.T) {
	ring := NewRing(8)
	rec := NewRecorder(ring)
	sys := &fakeSystem{ways: 20}
	ctl := core.MustNew(core.DefaultConfig())
	rec.AttachController(ctl)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	p := period(1, 1, 5, 20)
	end := func(i int, err error) Record {
		t.Helper()
		if err := ctl.Observe(sys, p); err != nil {
			t.Fatal(err)
		}
		rec.EndPeriod(i, p, sys, err)
		return last(t, ring)
	}

	r := end(0, fmt.Errorf("write: %w", chaos.ErrInjected))
	if !r.Tolerated || r.Guard != "" || r.Err != "" || r.Groups[0].Cause != "chaos-masked" {
		t.Fatalf("injected fault misclassified: %+v", r)
	}

	ie := &invariant.Error{Period: 1, Violations: []invariant.Violation{{Name: "MaskLegal", Detail: "empty"}}}
	r = end(1, ie)
	if r.Guard == "" || r.Tolerated || r.Err != "" || r.Groups[0].Cause != "guard-veto" {
		t.Fatalf("invariant violation misclassified: %+v", r)
	}

	// A joined injected-fault + guard error (the soak harness's shape)
	// annotates both; the guard's veto is the cause.
	r = end(2, errors.Join(fmt.Errorf("w: %w", chaos.ErrInjected), ie))
	if !r.Tolerated || r.Guard == "" || r.Groups[0].Cause != "guard-veto" {
		t.Fatalf("joined error misclassified: %+v", r)
	}

	r = end(3, errors.New("boom"))
	if r.Err != "boom" || r.Tolerated || r.Guard != "" || r.Groups[0].Cause != "shrink-step" {
		t.Fatalf("plain error misclassified: %+v", r)
	}

	// The scratch annotations must reset for the next clean period.
	r = end(4, nil)
	if r.Err != "" || r.Tolerated || r.Guard != "" || r.Groups[0].Cause != "shrink-step" {
		t.Fatalf("annotations leaked into a clean period: %+v", r)
	}
}

// TestRecorderNonDICER: without a controller a record has no groups and
// HPWays is derived from the installed mask.
func TestRecorderNonDICER(t *testing.T) {
	ring := NewRing(4)
	rec := NewRecorder(ring)
	sys := &fakeSystem{ways: 20}
	if err := sys.SetCBM(policy.HPClos, 0xff); err != nil {
		t.Fatal(err)
	}
	rec.EndPeriod(0, period(1, 1, 5, 60), sys, nil)
	r := last(t, ring)
	if r.Groups != nil || r.Plan != nil {
		t.Fatalf("non-DICER record has controller fields: %+v", r)
	}
	if r.HPWays != 8 {
		t.Fatalf("HPWays = %d, want 8 (popcount of installed mask)", r.HPWays)
	}
	if r.Saturated {
		t.Fatal("saturation verdict without a controller threshold")
	}
}

// TestRecorderChaosDeltas: per-record fault counts are deltas whose sum
// equals the chaos layer's cumulative stats.
func TestRecorderChaosDeltas(t *testing.T) {
	sched, err := chaos.ScheduleByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	cs := chaos.New(&fakeSystem{ways: 20}, sched, 1)
	ring := NewRing(64)
	rec := NewRecorder(ring)
	rec.AttachChaos(cs)

	meter := resctrl.NewMeter(cs)
	for i := 0; i < 20; i++ {
		p := meter.Sample()
		rec.EndPeriod(i, p, cs, nil)
	}
	var sum chaos.Stats
	for _, r := range ring.Snapshot() {
		sum = sum.Add(r.Faults)
	}
	if sum != cs.Stats() {
		t.Fatalf("fault deltas sum to %+v, cumulative stats are %+v", sum, cs.Stats())
	}
	if !sum.Injected() {
		t.Fatal("storm schedule injected nothing in 20 periods; deltas untested")
	}
}

// traceRun records a fault-free run of ctl through a JSONL sink, fed
// reading(i) in period i, and returns the parsed trace.
func traceRun(t *testing.T, periods int, ctl *core.Controller, reading func(i int) resctrl.Period) (Header, []Record) {
	t.Helper()
	sys := &fakeSystem{ways: 20}
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	rec := NewRecorder(jl)
	rec.AttachController(ctl)
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	if err := rec.Start(Header{
		Policy: ctl.Name(), HPs: []string{"synthetic"}, BEs: []string{"synthetic"},
		NumWays: 20, PeriodSec: 1, HorizonPeriods: periods,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < periods; i++ {
		p := reading(i)
		err := ctl.Observe(sys, p)
		rec.EndPeriod(i, p, sys, err)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	h, recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return h, recs
}

// mixedReading is a mix of steady, saturated, improved and degraded
// periods, so a replay exercises every decision kind; HP IPC ipc0 goes
// to group 0 and ipc12 to groups 1 and 2 of a three-group reading.
func mixedReading(i int) (ipc0, ipc12, bw float64) {
	ipc0, ipc12, bw = 1.0, 0.8, 20.0
	switch {
	case i%7 == 3:
		ipc0, ipc12 = 0.6, 1.2
	case i%7 == 5:
		ipc0, ipc12 = 1.5, 0.5
	case i%5 == 2:
		bw = 60
	}
	return ipc0, ipc12, bw
}

// splitTrace records the two-CLOS controller.
func splitTrace(t *testing.T, periods int) (Header, []Record) {
	return traceRun(t, periods, core.MustNew(core.DefaultConfig()), func(i int) resctrl.Period {
		ipc, _, bw := mixedReading(i)
		return period(ipc, 0.8, 5, bw)
	})
}

// groupedTrace records the three-group controller.
func groupedTrace(t *testing.T, periods int) (Header, []Record) {
	return traceRun(t, periods, threeHP(t), func(i int) resctrl.Period {
		ipc0, ipc12, bw := mixedReading(i)
		p := groupedPeriod(ipc0, ipc12)
		p.TotalGbps = bw
		return p
	})
}

func TestReplayRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		trace  func(*testing.T, int) (Header, []Record)
		groups int
	}{
		{"two-clos", splitTrace, 1},
		{"grouped", groupedTrace, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, recs := tc.trace(t, 60)
			if h.CLOSBudget != tc.groups+1 || len(h.Plan) != tc.groups {
				t.Fatalf("header budget %d and plan %+v, want %d groups", h.CLOSBudget, h.Plan, tc.groups)
			}
			res, err := Replay(h, recs)
			if err != nil {
				t.Fatalf("replay of a freshly recorded trace diverged: %v", err)
			}
			if res.Periods != 60 || res.Groups != tc.groups {
				t.Fatalf("replayed %d periods over %d groups, want 60 over %d", res.Periods, res.Groups, tc.groups)
			}
			if !res.MasksVerified {
				t.Fatal("fault-free trace did not verify masks")
			}
			if res.Decisions == 0 {
				t.Fatal("trace carried no decisions; replay proved nothing")
			}
		})
	}
}

// TestReplayInstallsRecordedReplans records a per-app controller whose
// apps swap miss curves mid-run, so the re-cluster schedule installs new
// budgets; the replay must install each recorded plan and match.
func TestReplayInstallsRecordedReplans(t *testing.T) {
	specs := make([]cluster.AppSpec, 3)
	for i, mb := range []float64{16, 8, 2} {
		specs[i] = cluster.AppSpec{Name: "hp", Core: i, SLO: 0.9,
			Curve: mrc.MustCurve(0.05, mrc.Component{Bytes: mb * (1 << 20), Frac: 0.6})}
	}
	ctl, err := core.NewMulti(core.MultiConfig{
		Group:          core.DefaultConfig(),
		WayBytes:       1.25 * (1 << 20),
		CLOSBudget:     4,
		Grouping:       core.GroupingPerApp,
		ReclusterEvery: 5,
	}, specs)
	if err != nil {
		t.Fatal(err)
	}
	h, recs := traceRun(t, 40, ctl, func(i int) resctrl.Period {
		if i == 12 || i == 27 {
			live := ctl.Specs()
			live[0].Curve, live[2].Curve = live[2].Curve, live[0].Curve
		}
		ipc0, ipc12, bw := mixedReading(i)
		p := groupedPeriod(ipc0, ipc12)
		p.TotalGbps = bw
		return p
	})
	replans := 0
	for i := range recs {
		if recs[i].Plan != nil {
			replans++
		}
	}
	if replans == 0 {
		t.Fatal("the run never re-planned; the test proves nothing")
	}
	res, err := Replay(h, recs)
	if err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if res.Replans != replans {
		t.Fatalf("replay installed %d re-plans, trace records %d", res.Replans, replans)
	}

	// A recorded plan the run never installed is a divergence.
	i := slices.IndexFunc(recs, func(r Record) bool { return r.Plan != nil })
	tampered := append([]Record(nil), recs...)
	tampered[i].Plan = []PlanGroup{{Apps: []int{0, 1, 2}, Ways: 10}}
	if _, err := Replay(h, tampered); err == nil {
		t.Fatal("replay accepted a tampered re-plan")
	}
}

// TestReplayDetectsTampering falsifies one output field of period 20 at
// a time, on the two-CLOS trace and on the grouped one: replay reads
// only the records' inputs, so each must surface as exactly that
// divergence, naming the period, the group and the field.
func TestReplayDetectsTampering(t *testing.T) {
	cases := []struct {
		group  int
		field  string
		mutate func(r *Record)
	}{
		{-1, "hp_ways", func(r *Record) { r.HPWays++ }},
		{-1, "be_mask", func(r *Record) { r.BEMask ^= 1 }},
		{0, "state", func(r *Record) { r.Groups[0].State += "-tampered" }},
		{0, "decisions", func(r *Record) { r.Groups[0].Decisions = append(r.Groups[0].Decisions, "shrink") }},
		{0, "ways", func(r *Record) { r.Groups[0].Ways++ }},
		{0, "mask", func(r *Record) { r.Groups[0].Mask ^= 1 << 19 }},
		{-1, "groups", func(r *Record) { r.Groups = append(r.Groups, GroupRecord{}) }},
	}
	grouped := []struct {
		group  int
		field  string
		mutate func(r *Record)
	}{
		{2, "ways", func(r *Record) { r.Groups[2].Ways++ }},
		{1, "decisions", func(r *Record) { r.Groups[1].Decisions = nil }},
		{2, "mask", func(r *Record) { r.Groups[2].Mask ^= r.Groups[2].Mask & -r.Groups[2].Mask }},
	}
	for _, trace := range []struct {
		name  string
		trace func(*testing.T, int) (Header, []Record)
	}{{"two-clos", splitTrace}, {"grouped", groupedTrace}} {
		h, recs := trace.trace(t, 40)
		all := cases
		if trace.name == "grouped" {
			all = append(all, grouped...)
		}
		for _, tc := range all {
			cp := make([]Record, len(recs))
			for i := range recs {
				cp[i] = recs[i].clone()
			}
			tc.mutate(&cp[20])
			_, err := Replay(h, cp)
			var re *ReplayError
			if !errors.As(err, &re) {
				t.Errorf("%s: tampered %s: replay returned %v, want *ReplayError", trace.name, tc.field, err)
				continue
			}
			if re.Period != 20 || re.Group != tc.group || re.Field != tc.field {
				t.Errorf("%s: tampered group %d %s at period 20, replay reported %v", trace.name, tc.group, tc.field, err)
			}
			if tc.group >= 0 && !strings.Contains(err.Error(), fmt.Sprintf("period 20, group %d: %s", tc.group, tc.field)) {
				t.Errorf("%s: error %q does not name the period, group and field", trace.name, err)
			}
		}
	}
}

func TestReplayRequiresControllerConfig(t *testing.T) {
	h, recs := splitTrace(t, 5)
	for name, mutate := range map[string]func(h *Header){
		"no controller config": func(h *Header) { h.Controller = nil },
		"1 way":                func(h *Header) { h.NumWays = 1 },
		"CLOS budget 1":        func(h *Header) { h.CLOSBudget = 1 },
		"no plan":              func(h *Header) { h.Plan = nil },
		"plan over budget":     func(h *Header) { h.Plan = append(h.Plan, h.Plan[0]) },
	} {
		bad := h
		mutate(&bad)
		if _, err := Replay(bad, recs); err == nil {
			t.Errorf("replay with %s accepted", name)
		}
	}
}

// TestReplaySkipsMaskCheckUnderChaos: a trace header naming a fault
// schedule must replay decisions but not masks.
func TestReplayMasksSkippedForChaosTrace(t *testing.T) {
	h, recs := splitTrace(t, 30)
	h.Chaos = "storm"
	h.ChaosSeed = 7
	res, err := Replay(h, recs)
	if err != nil {
		t.Fatal(err)
	}
	if res.MasksVerified {
		t.Fatal("chaos trace verified masks")
	}
}
