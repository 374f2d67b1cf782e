package obs

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dicer/internal/cache"
	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/invariant"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
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
func (q *fakeSystem) Counters() resctrl.Counters   { return resctrl.Counters{} }
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

func TestRingEvictionAndSnapshot(t *testing.T) {
	g := NewRing(3)
	for i := 0; i < 5; i++ {
		g.Emit(&Record{Period: i})
	}
	if g.Len() != 3 || g.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3 and 5", g.Len(), g.Total())
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
	last, ok := g.Last()
	if !ok || last.Period != 4 {
		t.Fatalf("Last = %+v, %v; want period 4", last, ok)
	}
}

func TestRingDeepCopiesDecisions(t *testing.T) {
	g := NewRing(4)
	buf := [maxDecisions]string{"shrink"}
	g.Emit(&Record{Period: 0, Decisions: buf[:1]})
	buf[0] = "CLOBBERED" // the recorder reuses its scratch like this
	snap := g.Snapshot()
	if got := snap[0].Decisions[0]; got != "shrink" {
		t.Fatalf("ring aliased the caller's decision buffer: got %q", got)
	}
	// Snapshot copies must also be independent of the ring's own slots.
	snap[0].Decisions[0] = "MUTATED"
	if again, _ := g.Last(); again.Decisions[0] != "shrink" {
		t.Fatalf("snapshot aliased the ring slot: got %q", again.Decisions[0])
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
	if ring.Total() != 1 {
		t.Fatalf("ring got %d records, want 1", ring.Total())
	}
	if got, _ := ring.Last(); got.Period != 7 {
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
		Schema: Schema, Policy: "DICER", HP: "milc1", BEs: []string{"gcc_base1", "gcc_base1"},
		NumWays: 20, PeriodSec: 1, HorizonPeriods: 2,
		Chaos: "storm", ChaosSeed: 7, Controller: &cfg,
	}
	if err := jl.Start(hIn); err != nil {
		t.Fatal(err)
	}
	in := []Record{
		{Period: 0, TimeSec: 1, HPIPC: 1.25, HPBWGbps: 4.5, TotalGbps: 55.5,
			Saturated: true, State: "sampling", Decisions: []string{"saturated", "sample"},
			HPWays: 18, HPMask: 0x3ffff, BEMask: 0xc0000,
			Faults: chaos.Stats{Reads: 1, Dropouts: 1}},
		{Period: 1, TimeSec: 2, HPIPC: 1.3, State: "optimise", HPWays: 2,
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
	if hOut.Policy != hIn.Policy || hOut.Chaos != hIn.Chaos || hOut.ChaosSeed != hIn.ChaosSeed ||
		hOut.NumWays != hIn.NumWays || len(hOut.BEs) != 2 {
		t.Fatalf("header round-trip diverged: %+v vs %+v", hOut, hIn)
	}
	if hOut.Controller == nil || *hOut.Controller != cfg {
		t.Fatalf("controller config round-trip diverged: %+v", hOut.Controller)
	}
	if hOut.FaultFree() {
		t.Fatal("chaos trace reported fault-free")
	}
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	for i := range in {
		got, want := out[i], in[i]
		if got.Period != want.Period || got.HPIPC != want.HPIPC ||
			got.Saturated != want.Saturated || got.State != want.State ||
			got.HPWays != want.HPWays || got.HPMask != want.HPMask ||
			got.BEMask != want.BEMask || got.Faults != want.Faults ||
			got.Tolerated != want.Tolerated || got.Guard != want.Guard ||
			got.Err != want.Err {
			t.Errorf("record %d round-trip diverged:\n got %+v\nwant %+v", i, got, want)
		}
		if fmt.Sprint(got.Decisions) != fmt.Sprint(want.Decisions) {
			t.Errorf("record %d decisions diverged: %v vs %v", i, got.Decisions, want.Decisions)
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

		r, ok := ring.Last()
		if !ok {
			t.Fatalf("period %d: no record emitted", i)
		}
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
		if r.State != ctl.State() || r.HPWays != ctl.HPWays() {
			t.Fatalf("period %d: state/ways diverged from controller", i)
		}
		if r.HPMask != sys.CBM(policy.HPClos) || r.BEMask != sys.CBM(policy.BEClos) {
			t.Fatalf("period %d: masks diverged from substrate", i)
		}
		if fmt.Sprint(r.Decisions) != fmt.Sprint(witness) {
			t.Fatalf("period %d: decisions %v, witness saw %v", i, r.Decisions, witness)
		}
		if r.Tolerated || r.Guard != "" || r.Err != "" || r.Faults != (chaos.Stats{}) {
			t.Fatalf("period %d: clean run carried annotations: %+v", i, r)
		}
	}
	if ring.Total() != len(ipcs) {
		t.Fatalf("emitted %d records, want %d", ring.Total(), len(ipcs))
	}
}

func TestRecorderClassifiesErrors(t *testing.T) {
	ring := NewRing(8)
	rec := NewRecorder(ring)
	sys := &fakeSystem{ways: 20}
	p := period(1, 1, 5, 20)

	rec.EndPeriod(0, p, sys, fmt.Errorf("write: %w", chaos.ErrInjected))
	r, _ := ring.Last()
	if !r.Tolerated || r.Guard != "" || r.Err != "" {
		t.Fatalf("injected fault misclassified: %+v", r)
	}

	ie := &invariant.Error{Period: 1, Violations: []invariant.Violation{{Name: "MaskLegal", Detail: "empty"}}}
	rec.EndPeriod(1, p, sys, ie)
	r, _ = ring.Last()
	if r.Guard == "" || r.Tolerated || r.Err != "" {
		t.Fatalf("invariant violation misclassified: %+v", r)
	}

	// A joined injected-fault + guard error (the soak harness's shape)
	// annotates both.
	rec.EndPeriod(2, p, sys, errors.Join(fmt.Errorf("w: %w", chaos.ErrInjected), ie))
	r, _ = ring.Last()
	if !r.Tolerated || r.Guard == "" {
		t.Fatalf("joined error misclassified: %+v", r)
	}

	rec.EndPeriod(3, p, sys, errors.New("boom"))
	r, _ = ring.Last()
	if r.Err != "boom" || r.Tolerated || r.Guard != "" {
		t.Fatalf("plain error misclassified: %+v", r)
	}

	// The scratch annotations must reset for the next clean period.
	rec.EndPeriod(4, p, sys, nil)
	r, _ = ring.Last()
	if r.Err != "" || r.Tolerated || r.Guard != "" {
		t.Fatalf("annotations leaked into a clean period: %+v", r)
	}
}

// TestRecorderNonDICER: without a controller, State stays empty and
// HPWays is derived from the installed mask.
func TestRecorderNonDICER(t *testing.T) {
	ring := NewRing(4)
	rec := NewRecorder(ring)
	sys := &fakeSystem{ways: 20}
	if err := sys.SetCBM(policy.HPClos, 0xff); err != nil {
		t.Fatal(err)
	}
	rec.EndPeriod(0, period(1, 1, 5, 60), sys, nil)
	r, _ := ring.Last()
	if r.State != "" || len(r.Decisions) != 0 {
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

// traceRun records a fault-free DICER run through a JSONL sink and
// returns the parsed trace.
func traceRun(t *testing.T, periods int) (Header, []Record) {
	t.Helper()
	ctl := core.MustNew(core.DefaultConfig())
	sys := &fakeSystem{ways: 20}
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	rec := NewRecorder(jl)
	rec.AttachController(ctl)
	cfg := ctl.Config()
	if err := rec.Start(Header{
		Schema: Schema, Policy: ctl.Name(), HP: "synthetic", BEs: []string{"synthetic"},
		NumWays: 20, PeriodSec: 1, HorizonPeriods: periods, Controller: &cfg,
	}); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Setup(sys); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < periods; i++ {
		// A mix of steady, saturated, and phase-change periods so the
		// replay exercises every decision kind.
		ipc, bw := 1.0, 20.0
		switch {
		case i%7 == 3:
			ipc = 0.6
		case i%7 == 5:
			ipc = 1.5
		case i%5 == 2:
			bw = 60
		}
		p := period(ipc, 0.8, 5, bw)
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

func TestReplayRoundTrip(t *testing.T) {
	h, recs := traceRun(t, 60)
	res, err := Replay(h, recs)
	if err != nil {
		t.Fatalf("replay of a freshly recorded trace diverged: %v", err)
	}
	if res.Periods != 60 {
		t.Fatalf("replayed %d periods, want 60", res.Periods)
	}
	if !res.MasksVerified {
		t.Fatal("fault-free trace did not verify masks")
	}
	if res.Decisions == 0 {
		t.Fatal("trace carried no decisions; replay proved nothing")
	}
}

func TestReplayDetectsTampering(t *testing.T) {
	h, recs := traceRun(t, 40)
	tamper := func(mutate func(r *Record)) error {
		cp := make([]Record, len(recs))
		copy(cp, recs)
		for i := range cp {
			cp[i] = *(&recs[i])
			cp[i].Decisions = append([]string(nil), recs[i].Decisions...)
		}
		mutate(&cp[20])
		_, err := Replay(h, cp)
		return err
	}
	cases := []struct {
		field  string
		mutate func(r *Record)
	}{
		{"hp_ways", func(r *Record) { r.HPWays++ }},
		{"state", func(r *Record) { r.State = "sampling" }},
		{"decisions", func(r *Record) { r.Decisions = append(r.Decisions, "shrink") }},
		{"hp_mask", func(r *Record) { r.HPMask ^= 1 << 19 }},
	}
	for _, tc := range cases {
		err := tamper(tc.mutate)
		var re *ReplayError
		if !errors.As(err, &re) {
			t.Errorf("tampered %s: replay returned %v, want *ReplayError", tc.field, err)
			continue
		}
		// Tampering one field can legitimately surface on a neighbouring
		// one first (state and decisions are coupled); requiring *a*
		// divergence at or after the tampered period is the contract.
		if re.Period < 20 {
			t.Errorf("tampered %s at period 20, divergence reported at %d", tc.field, re.Period)
		}
	}
}

func TestReplayRequiresControllerConfig(t *testing.T) {
	h, recs := traceRun(t, 5)
	h.Controller = nil
	if _, err := Replay(h, recs); err == nil {
		t.Fatal("replay without controller config accepted")
	}
	h2, _ := traceRun(t, 5)
	h2.NumWays = 1
	if _, err := Replay(h2, recs); err == nil {
		t.Fatal("replay with 1 way accepted")
	}
}

// TestReplaySkipsMaskCheckUnderChaos: a trace header naming a fault
// schedule must replay decisions but not masks.
func TestReplayMasksSkippedForChaosTrace(t *testing.T) {
	h, recs := traceRun(t, 30)
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
