package main

import (
	"bytes"
	"encoding/json"

	"dicer/internal/chaos"
	"dicer/internal/diag"
	"dicer/internal/experiments"
	"dicer/internal/fleet"
	"dicer/internal/slo"
)

// fleetHPs is the fleet's HP stream (the fleet package's default),
// pinned so node identity stays fixed across commits.
var fleetHPs = []string{"omnetpp1", "sphinx1", "mcf1", "Xalan1"}

// fleetSpec is one fleet workload.
type fleetSpec struct {
	// ops marks the operator workflow: trace kept in memory, then
	// analyze and explain.
	ops    bool
	config func(o options, suite *experiments.Suite, workers int) (fleet.Config, error)
}

// scaleSpec is the pinned 1000-node reference run of BENCH_fleet.json:
// two-HP nodes under headroom placement and per-node DICER, 400
// ten-period jobs per period from a stream-heavy class mix, SLO-burn
// migration on.
var scaleSpec = &fleetSpec{
	config: func(o options, suite *experiments.Suite, workers int) (fleet.Config, error) {
		cfg := suite.Config()
		return fleet.Config{
			Nodes:          1000,
			HPsPerNode:     2,
			HPs:            fleetHPs,
			Machine:        cfg.Machine,
			Policy:         "DICER",
			DICER:          cfg.DICER,
			PeriodSec:      cfg.PeriodSec,
			StepsPerPeriod: cfg.StepsPerPeriod,
			HorizonPeriods: 60,
			Scheduler:      "headroom",
			QueueCap:       2000,
			Workers:        workers,
			Migration:      fleet.MigrationConfig{Enabled: true},
			Arrivals: fleet.ArrivalConfig{
				Seed: o.arrivalSeed, RatePerPeriod: 400, MeanDurationPeriods: 10,
				ClassWeights: [4]float64{0.5, 0.25, 0.15, 0.1},
			},
			AloneIPC: suite.AloneIPC,
		}, nil
	},
}

// opsHorizon is fleet-ops' run length in periods: long enough for the
// 40-period jobs to reach steady occupancy and for incidents to seal.
const opsHorizon = 100

// opsSpec is the operator's workflow: 512 two-HP nodes, 64 jobs of 40
// periods (at most 160) per period, least-loaded placement, node-storm
// chaos, the autoscaler and flight recorder armed and the cluster trace
// recorded in memory. The admission queue keeps the fleet default of 32,
// so about half of each period's arrivals are rejected before the
// placement pass (fleet.rejected_frac).
var opsSpec = &fleetSpec{
	ops: true,
	config: func(o options, suite *experiments.Suite, workers int) (fleet.Config, error) {
		const nodes = 512
		cfg := suite.Config()
		storm, err := chaos.NodeScheduleByName("node-storm", o.chaosSeed, nodes, opsHorizon)
		if err != nil {
			return fleet.Config{}, err
		}
		return fleet.Config{
			Nodes:          nodes,
			HPsPerNode:     2,
			HPs:            fleetHPs,
			Machine:        cfg.Machine,
			Policy:         "DICER",
			DICER:          cfg.DICER,
			PeriodSec:      cfg.PeriodSec,
			StepsPerPeriod: cfg.StepsPerPeriod,
			HorizonPeriods: opsHorizon,
			Scheduler:      "least-loaded",
			Workers:        workers,
			Autoscale:      fleet.AutoscaleConfig{Enabled: true},
			Forensics:      fleet.ForensicsConfig{Enabled: true},
			NodeChaos:      storm,
			Arrivals: fleet.ArrivalConfig{
				Seed: o.arrivalSeed, RatePerPeriod: 64, MeanDurationPeriods: 40, MaxDurationPeriods: 160,
			},
			AloneIPC: suite.AloneIPC,
		}, nil
	},
}

// fleetInstance is one set-up fleet repetition.
type fleetInstance struct {
	spec  *fleetSpec
	cfg   fleet.Config
	c     *fleet.Cluster
	trace *bytes.Buffer // fleet-ops: the in-memory cluster trace
	tr    *tracer
	// watch, when set, observes every period (the warm-up's counting
	// pass and the traced run); the timed runs of the gated benchmark
	// carry no per-period callback.
	watch *periodWatch

	res      fleet.Result
	report   *diag.Report
	bundles  [][]byte // each incident as dumped
	explains []*diag.ExplainReport
	expErrs  []error
}

func setUpFleet(spec *fleetSpec) func(options, int, bool) (instance, error) {
	return func(o options, workers int, warm bool) (instance, error) {
		var watch *periodWatch
		if warm {
			watch = &periodWatch{}
		}
		return newFleetInstance(spec, o, workers, nil, watch)
	}
}

// newFleetInstance sets up one fleet repetition: the suite's alone-run
// references, then fleet.New. A non-nil watch observes every period.
func newFleetInstance(spec *fleetSpec, o options, workers int, tr *tracer, watch *periodWatch) (*fleetInstance, error) {
	suite, err := newSuite(o, workers, tr)
	if err != nil {
		return nil, err
	}
	cfg, err := spec.config(o, suite, workers)
	if err != nil {
		return nil, err
	}
	f := &fleetInstance{spec: spec, tr: tr, watch: watch}
	if spec.ops {
		f.trace = &bytes.Buffer{}
		cfg.Trace = f.trace
	}
	if tr != nil {
		alone := cfg.AloneIPC
		cfg.AloneIPC = func(name string) (float64, error) {
			sp := tr.begin("fleet.AloneIPC")
			defer tr.end(sp)
			return alone(name)
		}
	}
	if watch != nil {
		watch.start(cfg)
		cfg.OnPeriod = func(rec *fleet.ClusterRecord, q []fleet.QueueEntry) {
			sp := tr.begin("fleet.OnPeriod")
			watch.period(rec, q)
			tr.end(sp)
		}
		cfg.OnIncident = func(*fleet.Incident) {
			sp := tr.begin("fleet.OnIncident")
			watch.incidents++
			tr.end(sp)
		}
	}
	f.cfg = cfg
	sp := tr.begin("fleet.New")
	f.c, err = fleet.New(cfg)
	tr.end(sp)
	return f, err
}

func (f *fleetInstance) eval() error {
	var err error
	if f.tr == nil {
		f.res, err = f.c.Run()
	} else {
		f.res, err = f.stepTraced()
	}
	if err != nil || !f.spec.ops {
		return err
	}
	sp := f.tr.begin("diag.Analyze")
	f.report, err = diag.Analyze(bytes.NewReader(f.trace.Bytes()), diag.AnalyzeOptions{})
	f.tr.end(sp)
	if err != nil {
		return err
	}
	for _, inc := range f.c.Incidents() {
		var b bytes.Buffer
		sp := f.tr.begin("fleet.Incident.Dump")
		err := inc.Dump(&b)
		f.tr.end(sp)
		if err != nil {
			return err
		}
		sp = f.tr.begin("diag.Explain")
		rep, err := diag.Explain(bytes.NewReader(b.Bytes()))
		f.tr.end(sp)
		f.bundles = append(f.bundles, b.Bytes())
		f.explains = append(f.explains, rep)
		f.expErrs = append(f.expErrs, err)
	}
	return nil
}

// stepTraced is Cluster.Run with a span around every Step and Finish.
func (f *fleetInstance) stepTraced() (fleet.Result, error) {
	for !f.c.Done() {
		sp := f.tr.begin("fleet.Cluster.Step")
		err := f.c.Step()
		f.tr.end(sp)
		if err != nil {
			return fleet.Result{}, err
		}
	}
	sp := f.tr.begin("fleet.Cluster.Finish")
	defer f.tr.end(sp)
	return f.c.Finish()
}

// outcome checks a fleet repetition. An operation is one period; for
// fleet-ops also the analyze call and each incident bundle. Run-level
// checks (job conservation, EFU range, every sealed incident delivered
// to OnIncident) fail every period of the run; the watch, where armed,
// checks each period on its own.
func (f *fleetInstance) outcome() (outcome, error) {
	r := f.res
	var o outcome
	runOK := r.Periods == f.cfg.HorizonPeriods &&
		r.Admitted+r.Rejected == r.Arrivals &&
		r.Done+r.RunningEnd+r.QueuedEnd+r.Dropped == r.Admitted &&
		r.FleetEFU > 0 && r.FleetEFU <= 1 &&
		(f.watch == nil || f.watch.incidents == r.Incidents)
	body, err := json.Marshal(r)
	if err != nil {
		return o, err
	}
	d := newDigest()
	d.bytes(body)
	if f.trace != nil {
		d.bytes(f.trace.Bytes())
	}
	sum := d.sum()
	for p := 0; p < r.Periods; p++ {
		ok := runOK
		if f.watch != nil {
			ok = ok && p < len(f.watch.bad) && !f.watch.bad[p]
		}
		o.ops = append(o.ops, op{sum, ok})
	}
	if w := f.watch; w != nil {
		o.procPeriods = w.procPeriods
		if w.liveNodePeriods > 0 {
			o.sloMet = 1 - float64(r.SLOViolationPeriods)/float64(w.liveNodePeriods)
		}
	}
	o.efu = r.FleetEFU
	if !f.spec.ops {
		return o, nil
	}

	// The analyzer must count the run's periods and SLO violations.
	ok := f.report != nil && f.report.Periods == r.Periods && f.report.Alert.Violations == r.SLOViolationPeriods
	rd := newDigest()
	if ok {
		body, err := json.Marshal(f.report)
		if err != nil {
			return o, err
		}
		rd.bytes(body)
	}
	o.ops = append(o.ops, op{rd.sum(), ok})

	// Every bundle must round-trip Dump -> ReadIncident -> Dump byte for
	// byte, and Explain must succeed on it.
	for i, b := range f.bundles {
		bd := newDigest()
		bd.bytes(b)
		ok := f.expErrs[i] == nil && f.explains[i] != nil
		if inc, err := fleet.ReadIncident(bytes.NewReader(b)); err != nil {
			ok = false
		} else {
			var again bytes.Buffer
			if err := inc.Dump(&again); err != nil || !bytes.Equal(again.Bytes(), b) {
				ok = false
			}
		}
		if ok {
			body, err := json.Marshal(f.explains[i])
			if err != nil {
				return o, err
			}
			bd.bytes(body)
		}
		o.ops = append(o.ops, op{bd.sum(), ok})
	}
	return o, nil
}

// periodWatch observes every period record through OnPeriod: it counts
// the process-periods and live node-periods the end-to-end metrics
// divide by, checks each period's bookkeeping, and gathers the counts
// the per-layer metrics need.
type periodWatch struct {
	hps int // HPs per node

	procPeriods     int64
	liveNodePeriods int64
	// bad marks each period whose bookkeeping check failed.
	bad []bool

	admitted, done, dropped int

	// keep retains every record (traced run only).
	keep    bool
	records []*fleet.ClusterRecord
	// picks is the jobs the placement pass considered, per period.
	picks []int
	// quarantined sums quarantined node-periods.
	quarantined int
	runningBE   int64
	heartbeats  int64
	incidents   int
	alerters    map[int]*slo.Alerter
	fires       int
}

func (w *periodWatch) start(cfg fleet.Config) {
	w.hps = cfg.HPsPerNode
	w.alerters = map[int]*slo.Alerter{}
}

func (w *periodWatch) period(rec *fleet.ClusterRecord, q []fleet.QueueEntry) {
	w.admitted += rec.Admitted
	w.done += rec.Done
	w.dropped += rec.Dropped
	ok := rec.Admitted+rec.Rejected == rec.Arrivals &&
		w.admitted == w.done+rec.Running+rec.QueueLen+w.dropped &&
		rec.QueueLen == len(q) &&
		rec.FleetEFU > 0 && rec.FleetEFU <= 1
	w.bad = append(w.bad, !ok)
	for i := range rec.Nodes {
		hb := &rec.Nodes[i]
		w.heartbeats++
		if hb.Frozen || hb.Lost || hb.Retired {
			continue
		}
		w.liveNodePeriods++
		w.procPeriods += int64(w.hps + hb.BECount)
		w.runningBE += int64(hb.BECount)
		a := w.alerters[hb.Node]
		if a == nil {
			a = slo.NewAlerter(slo.DefaultAlertConfig())
			w.alerters[hb.Node] = a
		}
		v := 0.0
		if hb.SLOViolated {
			v = 1
		}
		if ev, changed := a.Step(v); changed && ev.Firing {
			w.fires++
		}
	}
	// The pass considered every job placed plus every job still queued
	// whose backoff had expired.
	considered := rec.Placed
	for _, e := range q {
		if e.NotBefore <= rec.Period {
			considered++
		}
	}
	w.picks = append(w.picks, considered)
	w.quarantined += rec.Quarantined
	if w.keep {
		w.records = append(w.records, rec)
	}
}
