package fleet

import (
	"io"
	"testing"

	"dicer/internal/app"
	"dicer/internal/obs"
)

// BenchmarkFleetStep measures one cluster monitoring period end to end —
// admission, placement, concurrent node stepping, aggregation — on a
// loaded 4-node fleet. The cluster is rebuilt when the horizon runs out
// (setup cost excluded via timer pauses).
func BenchmarkFleetStep(b *testing.B) {
	mk := func() *Cluster {
		c, err := New(Config{
			Nodes:          4,
			HorizonPeriods: 1 << 20,
			Arrivals:       ArrivalConfig{Seed: 1, RatePerPeriod: 2, MeanDurationPeriods: 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		// Warm the fleet to a steady-state population.
		for i := 0; i < 20; i++ {
			if err := c.Step(); err != nil {
				b.Fatal(err)
			}
		}
		return c
	}
	c := mk()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// placementCandidates is fleet-scale's pick-weighted mean candidate
// count: the views one headroom Pick scores in the 1000-node run.
const placementCandidates = 180

// placementInputs builds the views a loaded fleet offers the scheduler
// (placementCandidates two-HP nodes stepped a few periods under heavy
// stream-weighted arrivals, so BE populations and bandwidth vary) and
// one job per catalog profile.
func placementInputs(tb testing.TB) ([]NodeView, []*Job) {
	tb.Helper()
	c, err := New(Config{
		Nodes:          placementCandidates,
		HPsPerNode:     2,
		HorizonPeriods: 4,
		QueueCap:       2000,
		Arrivals: ArrivalConfig{
			Seed: 2, RatePerPeriod: 400, MeanDurationPeriods: 10,
			ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := c.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	views := make([]NodeView, 0, len(c.nodes))
	for i, n := range c.nodes {
		views = append(views, n.view(c.lastGbps[i]))
	}
	cat := app.Catalog()
	jobs := make([]*Job, len(cat))
	for i := range cat {
		jobs[i] = &Job{Profile: cat[i]}
	}
	return views, jobs
}

// BenchmarkFleetPlacement times the headroom scheduler's Pick alone: one
// job per iteration, cycling through the catalog profiles, over
// placementCandidates views of a loaded two-HP fleet. No admission,
// placement or node stepping is timed.
func BenchmarkFleetPlacement(b *testing.B) {
	views, jobs := placementInputs(b)
	sched, err := NewScheduler("headroom", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pickSink, _ = sched.Pick(jobs[i%len(jobs)], views)
	}
}

// pickSink keeps the benchmarked picks live.
var pickSink int

// passNodes and passBurst size BenchmarkFleetPlacementPass after
// fleet-scale: a 1000-node two-HP fleet and the 2,000-job placement
// bursts its lock-step migrations cause.
const (
	passNodes = 1000
	passBurst = 2000
)

// passInputs builds the candidate views a loaded passNodes-node two-HP
// fleet offers its placement pass (stepped a few periods under
// fleet-scale's stream-heavy class mix, so BE populations and bandwidth
// vary, and less its nodes without a free core) and a burst of
// passBurst jobs drawn from the same mix.
func passInputs(tb testing.TB) ([]NodeView, []*Job) {
	tb.Helper()
	arr := ArrivalConfig{
		Seed: 2, RatePerPeriod: 1500, MeanDurationPeriods: 10,
		ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
	}
	c, err := New(Config{
		Nodes:          passNodes,
		HPsPerNode:     2,
		HorizonPeriods: 4,
		QueueCap:       2000,
		Arrivals:       arr,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := c.Step(); err != nil {
			tb.Fatal(err)
		}
	}
	var views []NodeView
	for i, n := range c.nodes {
		if n.FreeCores() > 0 {
			views = append(views, n.view(c.lastGbps[i]))
		}
	}
	arr.Seed = 3
	burst, err := GenArrivals(arr, 2)
	if err != nil {
		tb.Fatal(err)
	}
	if len(burst) < passBurst {
		tb.Fatalf("%d arrivals, want %d", len(burst), passBurst)
	}
	jobs := make([]*Job, passBurst)
	for i := range jobs {
		jobs[i] = &Job{Profile: app.MustByName(burst[i].App)}
	}
	return views, jobs
}

// BenchmarkFleetPlacementPass times one whole placement pass, the way
// the cluster runs it: passBurst jobs in order over a loaded fleet's
// views, each placement folded into its view and a filled view leaving
// the list in order. Every iteration starts from the same views.
func BenchmarkFleetPlacementPass(b *testing.B) {
	views, jobs := passInputs(b)
	sched, err := NewScheduler("headroom", 0)
	if err != nil {
		b.Fatal(err)
	}
	m := views[0].Machine
	vs := make([]NodeView, len(views))
	placed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vs = append(vs[:0], views...)
		placed = 0
		sched.BeginPass(vs)
		for _, j := range jobs {
			idx, ok := sched.Pick(j, vs)
			if !ok {
				continue
			}
			placed++
			vs[idx].fold(m, &j.Profile)
			left := vs[idx].FreeCores <= 0
			sched.Folded(idx, left)
			if left {
				vs = append(vs[:idx], vs[idx+1:]...)
			}
		}
		sched.EndPass()
	}
	b.ReportMetric(float64(placed), "placed/pass")
	b.ReportMetric(float64(len(views)), "views")
}

// BenchmarkClusterTraceEncode times writing one period's record of a
// 512-node fleet (fleet-ops' size) through a warm obs.LineWriter, as the
// cluster writes its trace.
func BenchmarkClusterTraceEncode(b *testing.B) {
	rec := syntheticRecord(512)
	line, err := rec.AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	lw := obs.NewLineWriter(io.Discard)
	lw.WriteLine(rec)
	b.SetBytes(int64(len(line) + 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lw.WriteLine(rec)
	}
	if err := lw.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkClusterTraceDecode times decoding that record's line into a
// warm record, as analyze reads a trace.
func BenchmarkClusterTraceDecode(b *testing.B) {
	line, err := syntheticRecord(512).AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	var rec ClusterRecord
	if err := rec.decodeLine(line); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.decodeLine(line); err != nil {
			b.Fatal(err)
		}
	}
}
