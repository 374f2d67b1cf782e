package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"dicer/internal/app"
	"dicer/internal/cluster"
	"dicer/internal/core"
	"dicer/internal/fleet"
	"dicer/internal/obs"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// perLayer lists the traced run's metrics. Every workload reports all
// of them; a layer a workload does not run reads 0 and is named in the
// run's "n/a" line.
var perLayer = []struct{ name, unit string }{
	{"sim.step_ns", "ns"},
	{"sim.steps", "count"},
	{"sim.step_pct", "%"},
	{"resctrl.sample_ns", "ns"},
	{"resctrl.sample_pct", "%"},
	{"core.observe_ns", "ns"},
	{"core.observe_pct", "%"},
	{"core.events_per_kperiod", "1/kperiod"},
	{"experiments.residual_pct", "%"},
	{"fleet.new_ms", "ms"},
	{"fleet.step_ms.p50", "ms"},
	{"fleet.step_ms.tail", "ms"},
	{"fleet.step_ms.tail_at", "percentile"},
	{"fleet.step_samples", "count"},
	{"fleet.picks", "count"},
	{"fleet.pick_candidates", "count"},
	{"fleet.pick_us", "us"},
	{"fleet.predict_ns", "ns"},
	{"fleet.node_step_us", "us"},
	{"fleet.place_est_pct", "%"},
	{"fleet.nodestep_est_pct", "%"},
	{"fleet.residual_pct", "%"},
	{"fleet.placed", "count"},
	{"fleet.rejected_frac", "ratio"},
	{"fleet.requeued", "count"},
	{"fleet.dropped", "count"},
	{"fleet.mean_running_be", "jobs"},
	{"fleet.migrations_per_node", "ratio"},
	{"fleet.evicted", "count"},
	{"fleet.quarantined_node_periods", "count"},
	{"slo.fires", "count"},
	{"fleet.freezes", "count"},
	{"fleet.losses", "count"},
	{"fleet.scale_ups", "count"},
	{"fleet.repacks", "count"},
	{"fleet.incidents", "count"},
	{"fleet.incidents_dropped", "count"},
	{"fleet.incident_dump_us", "us"},
	{"obs.trace_bytes_per_node_period", "B"},
	{"obs.encode_us_per_period", "us"},
	{"obs.encode_est_pct", "%"},
	{"fleet.decode_mb_per_s", "MB/s"},
	{"diag.analyze_ms", "ms"},
	{"diag.monitor_ms", "ms"},
	{"diag.explain_ms_per_bundle", "ms"},
	{"par.speedup_2w", "ratio"},
	{"par.cpu_per_wall_2w", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// naLine names the per-layer metrics a workload leaves at 0.
func naLine(v map[string]float64) string {
	var na []string
	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			na = append(na, m.name)
		}
	}
	return "n/a (reported as 0, the workload does not run the layer): " + strings.Join(na, " ")
}

// rounds runs round until budget seconds have passed, at least twice.
// The traced run interleaves its variants within each round, so every
// comparison between them (overhead, residual, speed-up) is a median of
// ratios taken moments apart: the host drifts by 20% and more over tens
// of seconds, which would swamp a difference between sequential phases.
func rounds(budget float64, round func() error) (int, error) {
	n := 0
	for start := time.Now(); n < 2 || time.Since(start).Seconds() < budget; n++ {
		if err := round(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// ratios returns num[i]/den[i] for every i.
func ratios(num, den []float64) []float64 {
	out := make([]float64, len(num))
	for i := range num {
		out[i] = num[i] / den[i]
	}
	return out
}

// gatedRep runs one untraced repetition at the given worker count and
// checks its outputs against ref.
func gatedRep(w *workload, o options, workers int, ref *outcome, ops *opsCount) (repetition, error) {
	r, err := once(w, o, workers, false, nil)
	if err != nil {
		return r, err
	}
	ops.add(r.out, ref)
	r.out = outcome{}
	return r, nil
}

// parRow fills the par.* rows from paired Workers=1 and Workers=2
// repetitions.
func parRow(v map[string]float64, w1, w2 []repetition) {
	e1 := pick(w1, func(r *repetition) float64 { return r.eval })
	e2 := pick(w2, func(r *repetition) float64 { return r.eval })
	v["par.speedup_2w"] = median(ratios(e1, e2))
	v["par.cpu_per_wall_2w"] = median(pick(w2, func(r *repetition) float64 { return r.cpu / r.eval }))
}

// tracePaper measures a paper workload layer by layer. Each round runs
// the suite evaluation untraced at Workers=1 (the baseline) and at
// Workers=2, an untimed replay of every cell through the public layer
// calls, and the same replay with every call timed. Both replays must
// match the suite bit for bit, and Workers=2 must match Workers=1.
func tracePaper(dicer bool) func(*workload, options, float64) (map[string]float64, []string, opsCount, error) {
	return func(w *workload, o options, budget float64) (map[string]float64, []string, opsCount, error) {
		return tracePaperCells(dicer, w, o, budget)
	}
}

func tracePaperCells(dicer bool, w *workload, o options, budget float64) (map[string]float64, []string, opsCount, error) {
	v := map[string]float64{}
	var ops opsCount
	warm, err := once(w, o, gatedWorkers, true, nil)
	if err != nil {
		return nil, nil, ops, err
	}
	ref := warm.out
	ops.add(ref, nil)

	suite, err := newSuite(o, gatedWorkers, nil)
	if err != nil {
		return nil, nil, ops, err
	}
	cells := paperCells(dicer)
	horizon := int64(suite.Config().SweepHorizonPeriods)
	replay := func(t *tracer) (float64, int64, error) {
		x, err := newReplayer(suite, t)
		if err != nil {
			return 0, 0, err
		}
		runtime.GC()
		rs, wall, err := x.replayAll(cells)
		if err != nil {
			return 0, 0, err
		}
		ops.add(paperOutcome(cells, rs, horizon), &ref)
		return wall, x.events, nil
	}

	var (
		w1, w2        []repetition
		bare, timed   []float64
		events        int64
		tr            *tracer
		totals        = map[string]*layerTime{}
		timedSelfSums = map[string][]float64{}
	)
	n, err := rounds(budget, func() error {
		tr = nil // keep only the last round's spans, off this round's heap
		r, err := gatedRep(w, o, gatedWorkers, &ref, &ops)
		if err != nil {
			return err
		}
		w1 = append(w1, r)
		if r, err = gatedRep(w, o, 2, &ref, &ops); err != nil {
			return err
		}
		w2 = append(w2, r)
		b, ev, err := replay(nil)
		if err != nil {
			return err
		}
		bare, events = append(bare, b), ev
		tr = newTracer()
		t, _, err := replay(tr)
		if err != nil {
			return err
		}
		timed = append(timed, t)
		for name, l := range tr.layers() {
			s := totals[name]
			if s == nil {
				s = &layerTime{Name: name}
				totals[name] = s
			}
			s.Calls += l.Calls
			s.Self += l.Self
			timedSelfSums[name] = append(timedSelfSums[name], float64(l.Self)/1e9)
		}
		return nil
	})
	if err != nil {
		return nil, nil, ops, err
	}
	parRow(v, w1, w2)

	evals := pick(w1, func(r *repetition) float64 { return r.eval })
	evalW1 := median(evals)
	// A layer's share of the gated eval is its share of the timed replay
	// scaled by the untimed replay's share of the same round's suite
	// eval, which takes the tracing overhead out evenly.
	scale := ratios(bare, evals)
	share := func(name string) float64 {
		s := timedSelfSums[name]
		if len(s) != n {
			return 0
		}
		per := make([]float64, n)
		for i := range s {
			per[i] = 100 * s[i] / timed[i] * scale[i]
		}
		return median(per)
	}
	perCall := func(name string) float64 {
		if l := totals[name]; l != nil && l.Calls > 0 {
			return float64(l.Self) / float64(l.Calls)
		}
		return 0
	}
	v["sim.step_ns"] = perCall("sim.Runner.Step")
	v["sim.steps"] = float64(totals["sim.Runner.Step"].Calls) / float64(n)
	v["sim.step_pct"] = share("sim.Runner.Step")
	v["resctrl.sample_ns"] = perCall("resctrl.Meter.Sample")
	v["resctrl.sample_pct"] = share("resctrl.Meter.Sample")
	if dicer {
		v["core.observe_ns"] = perCall("core.Controller.Observe")
		v["core.observe_pct"] = share("core.Controller.Observe")
		v["core.events_per_kperiod"] = 1000 * float64(events) / float64(int64(len(cells))*horizon)
	}
	residual := make([]float64, n)
	overhead := make([]float64, n)
	for i := range residual {
		residual[i] = 100 * (evals[i] - bare[i]) / evals[i]
		overhead[i] = 100 * (timed[i] - bare[i]) / bare[i]
	}
	v["experiments.residual_pct"] = median(residual)
	v["bench.trace_overhead_pct"] = median(overhead)

	notes := []string{
		infoLine(o, gatedWorkers, fingerprint(ref)),
		fmt.Sprintf("%d rounds; eval s at Workers=1: median %.4f; replay s untimed %.4f, timed %.4f; Workers=2 speedup %.3f",
			n, evalW1, median(bare), median(timed), v["par.speedup_2w"]),
		fmt.Sprintf("layer ranking (self time of the timed replay, %% of the Workers=1 suite eval; the suite's own share outside the replayed calls is experiments.residual_pct = %.1f%%):",
			v["experiments.residual_pct"]),
	}
	var rank []rankItem
	for name, l := range totals {
		rank = append(rank, rankItem{fmt.Sprintf("%s (%d calls)", name, l.Calls), float64(l.Self)})
	}
	notes = append(notes, rankLines(rank, sum(timed)*1e9/median(scale))...)
	notes = append(notes, naLine(v))
	if err := tr.write(spanPath(o)); err != nil {
		return nil, nil, ops, err
	}
	notes = append(notes, "spans: "+spanPath(o))
	return v, notes, ops, nil
}

// tracedRep is what the per-layer metrics keep of one traced fleet
// repetition: its spans' timings (the last repetition's instance, watch
// and spans are kept whole).
type tracedRep struct {
	steps                  []float64 // Cluster.Step self ns
	newNs, eval            float64
	analyze, dump, explain []float64
}

// traceFleet measures a fleet workload layer by layer. Each round runs
// one untraced repetition at Workers=1 (the baseline) and at Workers=2,
// then one traced repetition with spans around every Cluster.Step,
// Finish and callback. Probes of placement, bandwidth prediction, node
// stepping, its sim/resctrl/core parts and trace encoding and decoding
// then estimate what the cluster does inside Step.
func traceFleet(spec *fleetSpec) func(*workload, options, float64) (map[string]float64, []string, opsCount, error) {
	return func(w *workload, o options, budget float64) (map[string]float64, []string, opsCount, error) {
		return traceFleetSpec(spec, w, o, budget)
	}
}

func traceFleetSpec(spec *fleetSpec, w *workload, o options, budget float64) (map[string]float64, []string, opsCount, error) {
	v := map[string]float64{}
	var ops opsCount
	warm, err := once(w, o, gatedWorkers, true, nil)
	if err != nil {
		return nil, nil, ops, err
	}
	ref := warm.out
	ops.add(ref, nil)

	var (
		w1, w2 []repetition
		traced []tracedRep
		f      *fleetInstance
		watch  *periodWatch
		tr     *tracer
	)
	_, err = rounds(budget, func() error {
		f, watch, tr = nil, nil, nil // keep only the last round's, off this round's heap
		r, err := gatedRep(w, o, gatedWorkers, &ref, &ops)
		if err != nil {
			return err
		}
		w1 = append(w1, r)
		if r, err = gatedRep(w, o, 2, &ref, &ops); err != nil {
			return err
		}
		w2 = append(w2, r)

		watch, tr = &periodWatch{keep: true}, newTracer()
		runtime.GC()
		sp := tr.begin("bench.setup")
		f, err = newFleetInstance(spec, o, gatedWorkers, tr, watch)
		tr.end(sp)
		if err != nil {
			return err
		}
		runtime.GC()
		sp = tr.begin("bench.eval")
		t0 := time.Now()
		err = f.eval()
		eval := time.Since(t0).Seconds()
		tr.end(sp)
		if err != nil {
			return err
		}
		out, err := f.outcome()
		if err != nil {
			return err
		}
		ops.add(out, &ref)
		traced = append(traced, tracedRep{
			steps: tr.selfDurations("fleet.Cluster.Step"), newNs: sum(tr.durations("fleet.New")), eval: eval,
			analyze: tr.durations("diag.Analyze"), dump: tr.durations("fleet.Incident.Dump"), explain: tr.durations("diag.Explain"),
		})
		return nil
	})
	if err != nil {
		return nil, nil, ops, err
	}
	parRow(v, w1, w2)
	evalW1 := median(pick(w1, func(r *repetition) float64 { return r.eval }))

	cfg, res := f.cfg, f.res
	var steps, stepSums, newMs, evals, analyze, dump, explain []float64
	for _, t := range traced {
		steps = append(steps, t.steps...)
		stepSums = append(stepSums, sum(t.steps))
		newMs = append(newMs, t.newNs)
		evals = append(evals, t.eval)
		analyze = append(analyze, t.analyze...)
		dump = append(dump, t.dump...)
		explain = append(explain, t.explain...)
	}
	overhead := ratios(evals, pick(w1, func(r *repetition) float64 { return r.eval }))
	for i := range overhead {
		overhead[i] = 100 * (overhead[i] - 1)
	}
	stepSum := median(stepSums) // ns per repetition
	v["fleet.new_ms"] = median(newMs) / 1e6
	v["fleet.step_ms.p50"] = median(steps) / 1e6
	pct, tailNs := tail(steps)
	v["fleet.step_ms.tail"] = tailNs / 1e6
	v["fleet.step_ms.tail_at"] = pct
	v["fleet.step_samples"] = float64(len(steps))
	v["bench.trace_overhead_pct"] = median(overhead)

	// Behaviour counts of the last traced repetition (every repetition
	// simulates the same run: checkAgainst compares them).
	picks := 0
	for _, p := range watch.picks {
		picks += p
	}
	meanBE := float64(watch.runningBE) / float64(watch.liveNodePeriods)
	v["fleet.picks"] = float64(picks)
	v["fleet.placed"] = float64(res.Placements)
	if res.Arrivals > 0 {
		v["fleet.rejected_frac"] = float64(res.Rejected) / float64(res.Arrivals)
	}
	v["fleet.requeued"] = float64(res.Requeued)
	v["fleet.dropped"] = float64(res.Dropped)
	v["fleet.mean_running_be"] = meanBE
	v["fleet.migrations_per_node"] = float64(res.Migrations) / float64(cfg.Nodes)
	v["fleet.evicted"] = float64(res.Evicted)
	v["fleet.quarantined_node_periods"] = float64(watch.quarantined)
	v["slo.fires"] = float64(watch.fires)
	v["fleet.freezes"] = float64(res.Freezes)
	v["fleet.losses"] = float64(res.Losses)
	v["fleet.scale_ups"] = float64(res.ScaleUps)
	v["fleet.repacks"] = float64(res.Repacks)
	v["fleet.incidents"] = float64(res.Incidents)
	v["fleet.incidents_dropped"] = float64(res.IncidentsDropped)

	// Probes, on inputs drawn from this run.
	rng := rand.New(rand.NewSource(o.seed))
	jobs, err := probeJobs(cfg, rng)
	if err != nil {
		return nil, nil, ops, err
	}
	cands, views := pickViews(cfg, watch)
	pickNs, err := probePick(cfg, views, jobs)
	if err != nil {
		return nil, nil, ops, err
	}
	v["fleet.pick_candidates"] = cands
	v["fleet.pick_us"] = pickNs / 1e3
	v["fleet.predict_ns"] = probePredict(cfg, views, jobs)
	nodeNs, err := probeNodeStep(cfg, meanBE, jobs)
	if err != nil {
		return nil, nil, ops, err
	}
	v["fleet.node_step_us"] = nodeNs / 1e3
	parts, err := probeNodeParts(cfg, meanBE, jobs)
	if err != nil {
		return nil, nil, ops, err
	}
	stepCalls := float64(watch.liveNodePeriods) * float64(cfg.StepsPerPeriod)
	periods := float64(res.Periods)
	live := float64(watch.liveNodePeriods)
	v["sim.steps"] = stepCalls
	v["sim.step_ns"] = parts.step
	v["sim.step_pct"] = 100 * stepCalls * parts.step / 1e9 / evalW1
	v["resctrl.sample_ns"] = parts.sample
	v["resctrl.sample_pct"] = 100 * live * parts.sample / 1e9 / evalW1
	v["core.observe_ns"] = parts.observe
	v["core.observe_pct"] = 100 * live * parts.observe / 1e9 / evalW1
	v["core.events_per_kperiod"] = parts.eventsPerK

	placeNs := float64(picks) * pickNs
	nodeStepNs := live * nodeNs
	encodeNs := 0.0
	rank := []rankItem{
		{"fleet placement (Pick, est.)", placeNs},
		{"fleet node stepping (Node.StepPeriod, est.)", nodeStepNs},
	}
	if spec.ops {
		encUs := probeEncode(watch.records)
		encodeNs = periods * encUs * 1e3
		v["obs.encode_us_per_period"] = encUs
		v["obs.encode_est_pct"] = 100 * encodeNs / stepSum
		v["obs.trace_bytes_per_node_period"] = float64(f.trace.Len()) / float64(watch.heartbeats)
		decodeS, err := probeDecode(f.trace.Bytes())
		if err != nil {
			return nil, nil, ops, err
		}
		v["fleet.decode_mb_per_s"] = float64(f.trace.Len()) / 1e6 / decodeS
		v["diag.analyze_ms"] = median(analyze) / 1e6
		v["diag.monitor_ms"] = median(analyze)/1e6 - decodeS*1e3
		if len(explain) > 0 {
			v["diag.explain_ms_per_bundle"] = sum(explain) / float64(len(explain)) / 1e6
			v["fleet.incident_dump_us"] = sum(dump) / float64(len(dump)) / 1e3
		}
		n := float64(len(traced))
		rank = append(rank,
			rankItem{"obs trace encode (LineWriter.WriteLine, est.)", encodeNs},
			rankItem{"fleet trace decode (ReadClusterTrace)", decodeS * 1e9},
			rankItem{"diag monitor (Analyze minus decode)", median(analyze) - decodeS*1e9},
			rankItem{"diag explain + incident dump", (sum(explain) + sum(dump)) / n},
		)
	}
	v["fleet.place_est_pct"] = 100 * placeNs / stepSum
	v["fleet.nodestep_est_pct"] = 100 * nodeStepNs / stepSum
	v["fleet.residual_pct"] = 100 - v["fleet.place_est_pct"] - v["fleet.nodestep_est_pct"] - v["obs.encode_est_pct"]
	rank = append(rank, rankItem{"fleet Cluster.Step rest (est.)", stepSum - placeNs - nodeStepNs - encodeNs})
	evalNs := median(evals) * 1e9

	notes := []string{
		infoLine(o, gatedWorkers, fingerprint(ref)),
		fmt.Sprintf("%d rounds; eval s: Workers=1 untraced median %.4f, traced median %.4f; Workers=2 speedup %.3f",
			len(traced), evalW1, median(evals), v["par.speedup_2w"]),
		fmt.Sprintf("step ms: p50 %.3f, p%g %.3f over %d Cluster.Step samples; Cluster.Step sum %.1f ms per run",
			v["fleet.step_ms.p50"], pct, v["fleet.step_ms.tail"], len(steps), stepSum/1e6),
		fmt.Sprintf("placement: %d jobs considered over %.0f candidates (pick-weighted mean), %s scheduler", picks, cands, cfg.Scheduler),
		fmt.Sprintf("layer ranking (%% of the traced eval, %.1f ms; estimates are probe cost x call count):", evalNs/1e6),
	}
	notes = append(notes, rankLines(rank, evalNs)...)
	notes = append(notes, naLine(v))
	if err := tr.write(spanPath(o)); err != nil {
		return nil, nil, ops, err
	}
	notes = append(notes, "spans: "+spanPath(o))
	return v, notes, ops, nil
}

// rankItem is one row of a traced run's layer ranking.
type rankItem struct {
	name string
	ns   float64
}

// rankLines renders a layer ranking, largest first, each row's time as
// a share of base ns.
func rankLines(rank []rankItem, base float64) []string {
	sort.Slice(rank, func(i, j int) bool {
		if rank[i].ns != rank[j].ns {
			return rank[i].ns > rank[j].ns
		}
		return rank[i].name < rank[j].name
	})
	var out []string
	for _, r := range rank {
		out = append(out, fmt.Sprintf("  %-52s %10.1f ms  %5.1f%%", r.name, r.ns/1e6, 100*r.ns/base))
	}
	return out
}

// probeSeconds bounds each probe's measuring loop.
const probeSeconds = 0.25

// timeLoop calls fn in growing batches until probeSeconds have passed
// and returns the mean ns per call.
func timeLoop(fn func(i int)) float64 {
	calls := 0
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn(calls + i)
		}
		calls += batch
		if el := time.Since(start); el.Seconds() >= probeSeconds {
			return float64(el.Nanoseconds()) / float64(calls)
		}
	}
}

// probeJobs draws a seeded sample of the workload's own arrivals as
// jobs that never finish.
func probeJobs(cfg fleet.Config, rng *rand.Rand) ([]*fleet.Job, error) {
	arr, err := fleet.GenArrivals(cfg.Arrivals, cfg.HorizonPeriods)
	if err != nil {
		return nil, err
	}
	if len(arr) == 0 {
		return nil, fmt.Errorf("%w: no arrivals to sample", errCheck)
	}
	var jobs []*fleet.Job
	for i, k := range rng.Perm(len(arr)) {
		if i == 256 {
			break
		}
		prof, err := app.ByName(arr[k].App)
		if err != nil {
			return nil, err
		}
		alone, err := cfg.AloneIPC(prof.Name)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, &fleet.Job{ID: arr[k].Job, Profile: prof, AloneIPC: alone,
			PlacedPeriod: -1, RemainingPeriods: math.MaxInt32, Core: -1})
	}
	return jobs, nil
}

// pickViews estimates the placement pass's candidate set and builds one
// of that size. A node is a candidate in period p when its heartbeat
// shows it healthy, not draining and with a free core after period p-1,
// less the period's quarantined nodes. The size is the mean over
// periods weighted by the jobs each period considered; the views come
// from the busiest period's candidates, with their last heartbeat's
// bandwidth and the BE partition the HP ways leave.
func pickViews(cfg fleet.Config, w *periodWatch) (float64, []fleet.NodeView) {
	m := cfg.Machine
	beSlots := m.Cores - cfg.HPsPerNode
	// open returns period p's healthy nodes with a free core, as their
	// period p-1 heartbeats.
	open := func(p int) []fleet.Heartbeat {
		var out []fleet.Heartbeat
		rec := w.records[p]
		for i, hb := range rec.Nodes {
			if hb.Lost || hb.Retired || hb.Draining || hb.Frozen {
				continue
			}
			prev := fleet.Heartbeat{Node: hb.Node}
			if p > 0 && i < len(w.records[p-1].Nodes) {
				prev = w.records[p-1].Nodes[i]
			}
			if prev.BECount < beSlots {
				out = append(out, prev)
			}
		}
		return out
	}
	var weighted, total float64
	busiest := 0
	for p, rec := range w.records {
		k := float64(w.picks[p])
		weighted += k * float64(max(len(open(p))-rec.Quarantined, 0))
		total += k
		if w.picks[p] > w.picks[busiest] {
			busiest = p
		}
	}
	size := 0.0
	if total > 0 {
		size = weighted / total
	}
	src := open(busiest)
	n := int(math.Round(size))
	views := make([]fleet.NodeView, 0, n)
	for i := 0; i < n && len(src) > 0; i++ {
		hb := src[i%len(src)]
		beWays := m.LLCWays - hb.HPWays
		if beWays < 1 {
			beWays = 1
		}
		views = append(views, fleet.NodeView{
			ID: i, FreeCores: beSlots - hb.BECount, BECount: hb.BECount, BEWays: beWays,
			TotalGbps: hb.TotalGbps, Machine: m,
		})
	}
	return size, views
}

// probePick times the workload's scheduler over views, cycling through
// jobs; ns per Pick.
func probePick(cfg fleet.Config, views []fleet.NodeView, jobs []*fleet.Job) (float64, error) {
	if len(views) == 0 {
		return 0, nil
	}
	s, err := fleet.NewScheduler(cfg.Scheduler, cfg.SchedSeed)
	if err != nil {
		return 0, err
	}
	return timeLoop(func(i int) { s.Pick(jobs[i%len(jobs)], views) }), nil
}

// predictSink keeps the probed predictions live.
var predictSink float64

// probePredict times fleet.PredictJobGbps at the views' BE geometry.
func probePredict(cfg fleet.Config, views []fleet.NodeView, jobs []*fleet.Job) float64 {
	beWays, beCount := cfg.Machine.LLCWays/2, 0
	if len(views) > 0 {
		beWays, beCount = views[0].BEWays, views[0].BECount
	}
	return timeLoop(func(i int) {
		predictSink += fleet.PredictJobGbps(cfg.Machine, jobs[i%len(jobs)].Profile, beWays, beCount)
	})
}

// probeNodes is how many nodes the node-stepping probes build, and
// probePeriods how many periods each steps.
const (
	probeNodes   = 8
	probePeriods = 30
)

// nodeHPs returns node id's HP profiles, assigned as the cluster
// assigns them: consecutive entries of the round-robin HP stream.
func nodeHPs(cfg fleet.Config, id int) ([]app.Profile, []float64, error) {
	hps := make([]app.Profile, cfg.HPsPerNode)
	alone := make([]float64, cfg.HPsPerNode)
	for j := range hps {
		p, err := app.ByName(cfg.HPs[(id*cfg.HPsPerNode+j)%len(cfg.HPs)])
		if err != nil {
			return nil, nil, err
		}
		a, err := cfg.AloneIPC(p.Name)
		if err != nil {
			return nil, nil, err
		}
		hps[j], alone[j] = p, a
	}
	return hps, alone, nil
}

// beCount spreads the workload's mean BE occupancy over the probe
// nodes: node id runs floor(mean) or floor(mean)+1 jobs.
func beCount(cfg fleet.Config, meanBE float64, id int) int {
	base := int(meanBE)
	n := base
	if float64(id) < (meanBE-float64(base))*probeNodes {
		n++
	}
	return min(n, cfg.Machine.Cores-cfg.HPsPerNode)
}

// probeNodeStep times Node.StepPeriod on fleet.NewNode nodes built with
// the workload's HP pairs and mean BE occupancy; ns per node-period.
func probeNodeStep(cfg fleet.Config, meanBE float64, jobs []*fleet.Job) (float64, error) {
	var nodes []*fleet.Node
	next := 0
	for id := 0; id < probeNodes; id++ {
		hps, alone, err := nodeHPs(cfg, id)
		if err != nil {
			return 0, err
		}
		n, err := fleet.NewNode(fleet.NodeConfig{
			ID: id, Machine: cfg.Machine, HPs: hps, HPAloneIPCs: alone, CLOSBudget: 16,
			Policy: cfg.Policy, DICER: cfg.DICER, SLO: 0.9,
			PeriodSec: cfg.PeriodSec, StepsPerPeriod: cfg.StepsPerPeriod,
		})
		if err != nil {
			return 0, err
		}
		for k := beCount(cfg, meanBE, id); k > 0; k-- {
			j := *jobs[next%len(jobs)]
			next++
			if err := n.Place(&j, 0); err != nil {
				return 0, err
			}
		}
		nodes = append(nodes, n)
	}
	start := time.Now()
	for p := 0; p < probePeriods; p++ {
		for _, n := range nodes {
			if _, _, err := n.StepPeriod(p); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(probePeriods*probeNodes), nil
}

// nodeParts is the per-call cost of a node period's layer calls.
type nodeParts struct {
	step, sample, observe float64 // ns per call
	eventsPerK            float64 // controller decisions per 1000 periods
}

// probeNodeParts splits a two-HP node's period into its layer calls. It
// builds the node from public parts the way the fleet builds one (HPs
// on CLOS 0, the multi-HP controller's clustered plan, BEs on its BE
// CLOS) and times Runner.Step, Meter.Sample and MultiController.Observe
// over the same HP pairs and BE occupancy as probeNodeStep.
func probeNodeParts(cfg fleet.Config, meanBE float64, jobs []*fleet.Job) (nodeParts, error) {
	const budget = 16
	m := cfg.Machine
	dt := cfg.PeriodSec / float64(cfg.StepsPerPeriod)
	type node struct {
		r     *sim.Runner
		emu   *resctrl.Emu
		meter *resctrl.Meter
		mc    *core.MultiController
	}
	var nodes []node
	var events int64
	next := 0
	for id := 0; id < probeNodes; id++ {
		hps, _, err := nodeHPs(cfg, id)
		if err != nil {
			return nodeParts{}, err
		}
		r, err := sim.New(m, budget)
		if err != nil {
			return nodeParts{}, err
		}
		specs := make([]cluster.AppSpec, len(hps))
		for i, hp := range hps {
			if err := r.Attach(i, 0, hp); err != nil {
				return nodeParts{}, err
			}
			ph := r.Proc(i).PhaseRef()
			specs[i] = cluster.AppSpec{Name: hp.Name, Core: i, SLO: 0.9, Curve: ph.Curve, APKI: ph.APKI}
		}
		mc, err := core.NewMulti(core.MultiConfig{Group: cfg.DICER, WayBytes: m.WaysBytes(1), CLOSBudget: budget}, specs)
		if err != nil {
			return nodeParts{}, err
		}
		emu := resctrl.NewEmu(r, false)
		if err := mc.Setup(emu); err != nil {
			return nodeParts{}, err
		}
		meter := resctrl.NewMeter(emu)
		for k := 0; k < beCount(cfg, meanBE, id); k++ {
			if err := r.Attach(len(hps)+k, mc.BEClos(), jobs[next%len(jobs)].Profile); err != nil {
				return nodeParts{}, err
			}
			next++
		}
		meter.Rebaseline()
		mc.ChainTrace(func(core.GroupEvent) { events++ })
		nodes = append(nodes, node{r, emu, meter, mc})
	}
	var step, sample, observe int64
	clock := newTracer()
	for p := 0; p < probePeriods; p++ {
		for _, n := range nodes {
			t0 := clock.now()
			for s := 0; s < cfg.StepsPerPeriod; s++ {
				n.r.Step(dt)
			}
			t1 := clock.now()
			pp := n.meter.Sample()
			t2 := clock.now()
			err := n.mc.Observe(n.emu, pp)
			t3 := clock.now()
			if err != nil {
				return nodeParts{}, err
			}
			step += t1 - t0
			sample += t2 - t1
			observe += t3 - t2
		}
	}
	periods := float64(probePeriods * probeNodes)
	return nodeParts{
		step:       float64(step) / periods / float64(cfg.StepsPerPeriod),
		sample:     float64(sample) / periods,
		observe:    float64(observe) / periods,
		eventsPerK: 1000 * float64(events) / periods,
	}, nil
}

// probeEncode times obs.LineWriter.WriteLine on the run's own records;
// µs per record.
func probeEncode(recs []*fleet.ClusterRecord) float64 {
	lw := obs.NewLineWriter(io.Discard)
	return timeLoop(func(i int) { lw.WriteLine(recs[i%len(recs)]) }) / 1e3
}

// probeDecode times fleet.ReadClusterTrace over the run's trace; the
// median of three decodes, in seconds.
func probeDecode(trace []byte) (float64, error) {
	var ts []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, _, err := fleet.ReadClusterTrace(bytes.NewReader(trace)); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(start).Seconds())
	}
	return median(ts), nil
}
