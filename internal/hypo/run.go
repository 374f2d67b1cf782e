package hypo

import (
	"fmt"
	"runtime"

	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/experiments"
	"dicer/internal/fleet"
	"dicer/internal/par"
)

// Config is one named experimental configuration of a hypothesis:
// exactly one of Fleet, Soak or MultiHP is set. Every configuration runs
// once per seed of the hypothesis; the seed feeds the stochastic inputs
// (fleet arrival trace and random-scheduler stream, the chaos fault
// stream, or the multi-HP workload draw) while everything else stays
// fixed, so per-seed pairs are true replicates.
type Config struct {
	Name string `json:"name"`
	// Summary is a one-line description for reports (generated from the
	// spec when empty).
	Summary string     `json:"summary,omitempty"`
	Fleet   *FleetSpec `json:"fleet,omitempty"`
	Soak    *SoakSpec  `json:"soak,omitempty"`
	// MultiHP runs a single-node multi-HP consolidation
	// (experiments.Suite.RunMultiHP) once per seed; the spec's Seed field
	// is overridden by the hypothesis seed per replicate, so each seed
	// draws a different workload from the catalog.
	MultiHP *experiments.MultiHPSpec `json:"multihp,omitempty"`
}

func (c Config) validate() error {
	var set []string
	if c.Fleet != nil {
		set = append(set, "fleet")
	}
	if c.Soak != nil {
		set = append(set, "soak")
	}
	if c.MultiHP != nil {
		set = append(set, "multi-HP")
	}
	switch len(set) {
	case 0:
		return fmt.Errorf("none of the fleet, soak or multi-HP specs set")
	case 1:
		return nil
	default:
		return fmt.Errorf("both %s and %s specs set", set[0], set[1])
	}
}

// FleetSpec runs a multi-node cluster (internal/fleet) once per seed.
// The seed replaces both the arrival-stream seed and the random
// scheduler's seed, so replicates vary the open-loop load and the random
// baseline's choices together.
type FleetSpec struct {
	// Nodes / HorizonPeriods / QueueCap mirror experiments.FleetConfig;
	// zero values take the same defaults.
	Nodes          int `json:"nodes,omitempty"`
	HorizonPeriods int `json:"horizon_periods,omitempty"`
	QueueCap       int `json:"queue_cap,omitempty"`
	// Scheduler is the placement scheduler ("random", "least-loaded",
	// "headroom").
	Scheduler string `json:"scheduler"`
	// Policy is the node-local partitioning policy (UM, CT, DICER).
	Policy experiments.PolicyName `json:"policy"`
	// Arrivals drives the BE generator; its Seed field is overridden by
	// the hypothesis seed per replicate.
	Arrivals fleet.ArrivalConfig `json:"arrivals"`
	// DICER, when non-nil, overrides the controller configuration (for
	// ablation configs like no-saturation-sampling).
	DICER *core.Config `json:"dicer,omitempty"`
	// NodeChaos names a canned node fault schedule ("none", "node-freeze",
	// "node-loss", "node-storm"). The hypothesis seed seeds the schedule,
	// so replicates see different fault streams drawn from the same
	// process.
	NodeChaos string `json:"node_chaos,omitempty"`
	// Migration / Autoscale enable the fleet control loops with their
	// default parameters (SLO-burn BE migration, repartition-first
	// autoscaling).
	Migration bool `json:"migration,omitempty"`
	Autoscale bool `json:"autoscale,omitempty"`
}

// SoakSpec runs the chaos soak (experiments.Suite.Soak) once per seed:
// every workload under one fault schedule, extracting the worst HP
// degradation across workloads for that seed.
type SoakSpec struct {
	// Workloads to soak; empty means experiments.DefaultSoakWorkloads.
	Workloads []experiments.Workload `json:"workloads,omitempty"`
	// Schedule names the chaos fault schedule ("storm", "dropout", ...).
	Schedule string `json:"schedule"`
	// HorizonPeriods per run; 0 means the soak default (60).
	HorizonPeriods int `json:"horizon_periods,omitempty"`
}

// Describe returns the config's one-line summary for reports.
func (c Config) Describe() string {
	if c.Summary != "" {
		return c.Summary
	}
	if f := c.Fleet; f != nil {
		nodes, horizon, qcap := f.Nodes, f.HorizonPeriods, f.QueueCap
		if nodes == 0 {
			nodes = 4
		}
		if qcap == 0 {
			qcap = 32
		}
		arr := f.Arrivals
		ctl := "default"
		if f.DICER != nil {
			ctl = "custom"
			if f.DICER.DisableSaturationHandling {
				ctl = "no saturation handling"
			}
		}
		extras := ""
		if f.NodeChaos != "" && f.NodeChaos != "none" {
			extras += ", chaos " + f.NodeChaos
		}
		if f.Migration {
			extras += ", SLO-burn migration"
		}
		if f.Autoscale {
			extras += ", autoscaler"
		}
		return fmt.Sprintf("fleet: %d nodes x %d periods, scheduler %s, policy %s (controller %s), arrivals λ=%.1f/period mean-dur %.0f, queue cap %d%s",
			nodes, horizon, f.Scheduler, f.Policy, ctl, arr.RatePerPeriod, arr.MeanDurationPeriods, qcap, extras)
	}
	if m := c.MultiHP; m != nil {
		grouping := m.Grouping
		if grouping == "" {
			grouping = "clustered"
		}
		extras := ""
		if m.ReclusterEvery > 0 {
			extras = fmt.Sprintf(", recluster every %d", m.ReclusterEvery)
			if m.UsePhaseHints {
				extras += " with phase hints"
			}
		}
		return fmt.Sprintf("multi-HP: %d HP apps + %d BEs under %d CLOS ids, %s plan%s",
			m.M, m.BECount, m.CLOSBudget, grouping, extras)
	}
	if s := c.Soak; s != nil {
		n := len(s.Workloads)
		if n == 0 {
			n = len(experiments.DefaultSoakWorkloads())
		}
		horizon := s.HorizonPeriods
		if horizon == 0 {
			horizon = 60
		}
		return fmt.Sprintf("chaos soak: %d workloads x schedule %q, %d periods, full DICER loop with invariant checks",
			n, s.Schedule, horizon)
	}
	return "(empty config)"
}

// Runner executes hypotheses against one experiments.Suite. The suite's
// pooled runners and singleflight alone-run memo are shared across every
// (config, seed) cell, so multi-seed replication pays for each alone
// reference exactly once.
type Runner struct {
	Suite *experiments.Suite
	// Workers bounds concurrent cells; 0 means the suite's configured
	// worker count (GOMAXPROCS when that is 0 too).
	Workers int
}

// NewRunner wraps a suite.
func NewRunner(s *experiments.Suite) *Runner { return &Runner{Suite: s} }

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	if w := r.Suite.Config().Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every configuration of h at every seed, extracts the
// metrics its comparisons reference, and judges each comparison. The
// result is deterministic in (hypothesis, suite config): cells run in
// parallel but land in (config, seed) order.
func (r *Runner) Run(h Hypothesis) (*Result, error) {
	if h.Confidence == 0 {
		h.Confidence = 0.95
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Hypothesis: h}

	// Which metrics does each config need? (Declaration order, deduped.)
	need := map[string][]Metric{}
	addNeed := func(cfg string, m Metric) {
		for _, have := range need[cfg] {
			if have == m {
				return
			}
		}
		need[cfg] = append(need[cfg], m)
	}
	for _, cmp := range h.Comparisons {
		addNeed(cmp.Treatment, cmp.Metric)
		if cmp.Control != "" {
			addNeed(cmp.Control, cmp.Metric)
		}
	}

	for _, cfg := range h.Configs {
		values, err := r.runConfig(cfg, h.Seeds, need[cfg.Name])
		if err != nil {
			return nil, fmt.Errorf("hypo: %s config %q: %w", h.Name, cfg.Name, err)
		}
		res.Samples = append(res.Samples, ConfigSamples{Config: cfg.Name, Metrics: values})
	}

	for _, cmp := range h.Comparisons {
		treat, ok := res.series(cmp.Treatment, cmp.Metric)
		if !ok {
			return nil, fmt.Errorf("hypo: %s comparison %q: no %s samples for %q", h.Name, cmp.Name, cmp.Metric, cmp.Treatment)
		}
		var ctrl []float64
		if cmp.Control != "" {
			if ctrl, ok = res.series(cmp.Control, cmp.Metric); !ok {
				return nil, fmt.Errorf("hypo: %s comparison %q: no %s samples for %q", h.Name, cmp.Name, cmp.Metric, cmp.Control)
			}
		} else {
			ctrl = make([]float64, len(treat))
			for i := range ctrl {
				ctrl[i] = cmp.Baseline
			}
		}
		diffs := PairedDiffs(treat, ctrl)
		v := Judge(diffs, cmp.Direction, cmp.MinEffect, h.Confidence)
		v.MeanTreat, v.MeanCtrl = Mean(treat), Mean(ctrl)
		res.Comparisons = append(res.Comparisons, ComparisonResult{
			Comparison:      cmp,
			TreatmentValues: treat,
			ControlValues:   ctrl,
			Diffs:           diffs,
			Verdict:         v,
		})
	}
	res.Status = rollup(res.Comparisons)
	return res, nil
}

// runConfig produces the config's metric series over the seed set.
func (r *Runner) runConfig(cfg Config, seeds []int64, metrics []Metric) ([]MetricSeries, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("no comparison references this config")
	}
	var perSeed [][]float64 // [seedIdx][metricIdx]
	var err error
	switch {
	case cfg.Fleet != nil:
		perSeed, err = r.runFleet(*cfg.Fleet, seeds, metrics)
	case cfg.Soak != nil:
		perSeed, err = r.runSoak(*cfg.Soak, seeds, metrics)
	case cfg.MultiHP != nil:
		perSeed, err = r.runMultiHP(*cfg.MultiHP, seeds, metrics)
	}
	if err != nil {
		return nil, err
	}
	out := make([]MetricSeries, len(metrics))
	for mi, m := range metrics {
		vals := make([]float64, len(seeds))
		for si := range seeds {
			vals[si] = perSeed[si][mi]
		}
		out[mi] = MetricSeries{Metric: m, Values: vals}
	}
	return out, nil
}

// runFleet executes one cluster per seed across the experiments
// executor (results land in seed order regardless of worker count),
// extracting the requested metrics. Alone-run references resolve
// through the suite's singleflight memo.
func (r *Runner) runFleet(spec FleetSpec, seeds []int64, metrics []Metric) ([][]float64, error) {
	scfg := r.Suite.Config()
	nodes, horizon, qcap := spec.Nodes, spec.HorizonPeriods, spec.QueueCap
	if nodes == 0 {
		nodes = 4
	}
	if horizon == 0 {
		horizon = scfg.SweepHorizonPeriods
	}
	if qcap == 0 {
		qcap = 32
	}
	dicer := scfg.DICER
	if spec.DICER != nil {
		dicer = *spec.DICER
	}

	out := make([][]float64, len(seeds))
	if err := par.Execute(len(seeds), r.workers(), func(i int) error {
		arr := spec.Arrivals
		arr.Seed = seeds[i]
		sched, err := chaos.NodeScheduleByName(spec.NodeChaos, seeds[i], nodes, horizon)
		if err != nil {
			return err
		}
		c, err := fleet.New(fleet.Config{
			Nodes:          nodes,
			Machine:        scfg.Machine,
			Policy:         string(spec.Policy),
			DICER:          dicer,
			PeriodSec:      scfg.PeriodSec,
			StepsPerPeriod: scfg.StepsPerPeriod,
			HorizonPeriods: horizon,
			Arrivals:       arr,
			Scheduler:      spec.Scheduler,
			SchedSeed:      seeds[i],
			QueueCap:       qcap,
			NodeChaos:      sched,
			Migration:      fleet.MigrationConfig{Enabled: spec.Migration},
			Autoscale:      fleet.AutoscaleConfig{Enabled: spec.Autoscale},
			AloneIPC:       r.Suite.AloneIPC,
		})
		if err != nil {
			return err
		}
		fres, err := c.Run()
		if err != nil {
			return err
		}
		out[i], err = extractFleet(fres, metrics)
		return err
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// extractFleet pulls the requested metrics from a fleet result.
func extractFleet(res fleet.Result, metrics []Metric) ([]float64, error) {
	out := make([]float64, len(metrics))
	for i, m := range metrics {
		switch m {
		case MetricFleetEFU:
			out[i] = res.FleetEFU
		case MetricSLOViolationRate:
			if np := res.Nodes * res.Periods; np > 0 {
				out[i] = float64(res.SLOViolationPeriods) / float64(np)
			}
		case MetricRejectRate:
			out[i] = res.RejectRate
		case MetricP95QueueWait:
			out[i] = res.P95QueueWait
		default:
			return nil, fmt.Errorf("metric %q not extractable from a fleet run", m)
		}
	}
	return out, nil
}

// runMultiHP executes one multi-HP consolidation per seed across the
// experiments executor; the hypothesis seed replaces the spec's workload
// seed, so replicates draw different application mixes from the catalog
// while the plan policy and budgets stay fixed.
func (r *Runner) runMultiHP(spec experiments.MultiHPSpec, seeds []int64, metrics []Metric) ([][]float64, error) {
	out := make([][]float64, len(seeds))
	if err := par.Execute(len(seeds), r.workers(), func(i int) error {
		run := spec
		run.Seed = seeds[i]
		res, err := r.Suite.RunMultiHP(run)
		if err != nil {
			return err
		}
		row := make([]float64, len(metrics))
		for j, m := range metrics {
			switch m {
			case MetricMaxSlowdown:
				row[j] = res.MaxSlowdown
			case MetricSLOConformance:
				row[j] = res.Conformance
			case MetricConsolidationEFU:
				row[j] = res.EFU
			default:
				return fmt.Errorf("metric %q not extractable from a multi-HP run", m)
			}
		}
		out[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// runSoak executes the soak matrix once per seed set (the Soak call runs
// all seeds of a schedule in one pass, computing each workload's
// fault-free baseline exactly once) and extracts, per seed, the worst HP
// degradation across workloads. The degradation bound is lifted to 1 so
// an over-bound run becomes evidence instead of an error — judging the
// bound is this package's job.
func (r *Runner) runSoak(spec SoakSpec, seeds []int64, metrics []Metric) ([][]float64, error) {
	for _, m := range metrics {
		if m != MetricHPDegradation {
			return nil, fmt.Errorf("metric %q not extractable from a soak run", m)
		}
	}
	sched, err := chaos.ScheduleByName(spec.Schedule)
	if err != nil {
		return nil, err
	}
	soak, err := r.Suite.Soak(experiments.SoakConfig{
		Workloads:        spec.Workloads,
		Schedules:        []chaos.Config{sched},
		Seeds:            seeds,
		HorizonPeriods:   spec.HorizonPeriods,
		MaxHPDegradation: 1,
	})
	if err != nil {
		return nil, err
	}
	worst := map[int64]float64{}
	for _, run := range soak.Runs {
		if run.Degradation > worst[run.Seed] {
			worst[run.Seed] = run.Degradation
		}
	}
	out := make([][]float64, len(seeds))
	for i, seed := range seeds {
		row := make([]float64, len(metrics))
		for j := range metrics {
			row[j] = worst[seed]
		}
		out[i] = row
	}
	return out, nil
}
