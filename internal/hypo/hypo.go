package hypo

import (
	"fmt"
	"math"

	"dicer/internal/metrics"
)

// Status is a hypothesis or comparison verdict.
type Status string

// The three verdicts. Inconclusive means the evidence neither places the
// effect on the claimed side (with the required margin) nor excludes it.
const (
	Confirmed    Status = "Confirmed"
	Refuted      Status = "Refuted"
	Inconclusive Status = "Inconclusive"
)

// Direction states which side of the control the treatment metric must
// fall on for the claim to hold.
type Direction string

// The two directions.
const (
	Greater Direction = "greater"
	Less    Direction = "less"
)

// Metric names a scalar extracted from one configuration's run.
type Metric string

// Metrics the run layer extracts.
const (
	// MetricFleetEFU is the fleet-wide effective utilisation averaged
	// over the horizon (fleet.Result.FleetEFU).
	MetricFleetEFU Metric = "fleet_efu"
	// MetricSLOViolationRate is SLO-violation (node, period) cells as a
	// fraction of all node-periods.
	MetricSLOViolationRate Metric = "slo_violation_rate"
	// MetricRejectRate is admission rejections over arrivals.
	MetricRejectRate Metric = "reject_rate"
	// MetricP95QueueWait is the p95 periods from arrival to placement.
	MetricP95QueueWait Metric = "p95_queue_wait"
	// MetricHPDegradation is the worst chaos-soak HP IPC degradation
	// (relative to the fault-free run) across the config's workloads.
	MetricHPDegradation Metric = "hp_degradation"
	// MetricMaxSlowdown is the worst per-app HP slowdown of a multi-HP
	// consolidation run — the fairness endpoint the clustered planner
	// optimises.
	MetricMaxSlowdown Metric = "max_slowdown"
	// MetricSLOConformance is the fraction of HP apps meeting their SLO
	// at the end of a multi-HP consolidation run.
	MetricSLOConformance Metric = "slo_conformance"
	// MetricConsolidationEFU is the Eq. 1 EFU over every application of
	// a multi-HP consolidation run.
	MetricConsolidationEFU Metric = "consolidation_efu"
)

// Comparison is one falsifiable sub-claim of a hypothesis: the metric of
// the treatment configuration, paired per seed against either a control
// configuration or a fixed baseline constant, must fall on the claimed
// side by at least MinEffect.
type Comparison struct {
	// Name labels the comparison in reports, e.g. "fleet-efu".
	Name string `json:"name"`
	// Metric is the scalar compared.
	Metric Metric `json:"metric"`
	// Treatment and Control name configurations of the hypothesis.
	// An empty Control compares against the Baseline constant instead.
	Treatment string  `json:"treatment"`
	Control   string  `json:"control,omitempty"`
	Baseline  float64 `json:"baseline,omitempty"`
	// Direction is the claimed side: Greater means treatment > control.
	Direction Direction `json:"direction"`
	// MinEffect is the minimum mean effect (in the metric's units, on
	// the claimed side) for the claim to count as confirmed; a CI bound
	// showing the effect cannot reach it refutes the claim.
	MinEffect float64 `json:"min_effect"`
	// Exploratory marks a secondary endpoint: it is judged and reported
	// like any other comparison but excluded from the hypothesis
	// roll-up, the pre-registration discipline for effects worth
	// measuring that the claim does not stand or fall on.
	Exploratory bool `json:"exploratory,omitempty"`
}

// Hypothesis is a declared, falsifiable claim over named configurations.
type Hypothesis struct {
	// Name is the registry slug, e.g. "headroom-beats-random".
	Name string `json:"name"`
	// Title is the headline, e.g. "Headroom placement beats random ...".
	Title string `json:"title"`
	// Family classifies the claim (H377 style), e.g. "Cross-scheduler
	// comparative".
	Family string `json:"family"`
	// Claim is the full prose statement quoted in the report.
	Claim string `json:"claim"`
	// Seeds is the replication set; every configuration runs once per
	// seed and comparisons are paired by seed.
	Seeds []int64 `json:"seeds"`
	// Confidence is the two-sided CI level used to judge, default 0.95.
	Confidence float64 `json:"confidence"`
	// Configs are the named configurations compared.
	Configs []Config `json:"configs"`
	// Comparisons are the sub-claims; the hypothesis is Confirmed only
	// when every primary (non-exploratory) one confirms, and Refuted
	// when any primary one refutes.
	Comparisons []Comparison `json:"comparisons"`
}

// Validate reports structural errors: missing configs, unknown names,
// too few seeds.
func (h Hypothesis) Validate() error {
	if h.Name == "" {
		return fmt.Errorf("hypo: hypothesis without a name")
	}
	if len(h.Seeds) < 2 {
		return fmt.Errorf("hypo: %s needs at least 2 seeds for intervals, got %d", h.Name, len(h.Seeds))
	}
	if h.Confidence <= 0 || h.Confidence >= 1 {
		return fmt.Errorf("hypo: %s confidence %g outside (0,1)", h.Name, h.Confidence)
	}
	primaries := 0
	for _, cmp := range h.Comparisons {
		if !cmp.Exploratory {
			primaries++
		}
	}
	if primaries == 0 {
		return fmt.Errorf("hypo: %s declares no primary comparisons", h.Name)
	}
	byName := map[string]bool{}
	for _, c := range h.Configs {
		if c.Name == "" {
			return fmt.Errorf("hypo: %s has an unnamed config", h.Name)
		}
		if byName[c.Name] {
			return fmt.Errorf("hypo: %s duplicates config %q", h.Name, c.Name)
		}
		if err := c.validate(); err != nil {
			return fmt.Errorf("hypo: %s config %q: %w", h.Name, c.Name, err)
		}
		byName[c.Name] = true
	}
	for _, cmp := range h.Comparisons {
		if !byName[cmp.Treatment] {
			return fmt.Errorf("hypo: %s comparison %q treats unknown config %q", h.Name, cmp.Name, cmp.Treatment)
		}
		if cmp.Control != "" && !byName[cmp.Control] {
			return fmt.Errorf("hypo: %s comparison %q controls unknown config %q", h.Name, cmp.Name, cmp.Control)
		}
		if cmp.Direction != Greater && cmp.Direction != Less {
			return fmt.Errorf("hypo: %s comparison %q direction %q", h.Name, cmp.Name, cmp.Direction)
		}
		if cmp.MinEffect < 0 {
			return fmt.Errorf("hypo: %s comparison %q negative min effect", h.Name, cmp.Name)
		}
	}
	return nil
}

// Verdict is the judged outcome of one comparison's paired differences.
type Verdict struct {
	N          int     `json:"n"`
	MeanTreat  float64 `json:"mean_treatment"`
	MeanCtrl   float64 `json:"mean_control"`
	MeanDiff   float64 `json:"mean_diff"`
	StdDiff    float64 `json:"std_diff"`
	CILo       float64 `json:"ci_lo"`
	CIHi       float64 `json:"ci_hi"`
	EffectSize float64 `json:"effect_size"` // paired Cohen's d on raw diffs
	Status     Status  `json:"status"`
	// Reason is the one-line decision rationale.
	Reason string `json:"reason"`
	// Trajectory is the smoothed per-prefix status over seeds 2..N: the
	// verdict the comparison would have carried at each smaller seed
	// set. Widening the seed set can only move a definitive status to
	// its opposite through Inconclusive (see Trajectory).
	Trajectory []Status `json:"trajectory"`
}

// oriented maps a raw difference onto the claim's axis: positive means
// "on the claimed side".
func oriented(d float64, dir Direction) float64 {
	if dir == Less {
		return -d
	}
	return d
}

// judgeOne decides a single status from the diffs (no smoothing): the
// confidence interval of the paired differences must sit entirely on the
// claimed side with the mean effect at or above MinEffect to confirm,
// and entirely below MinEffect (on the claim's axis) to refute.
func judgeOne(diffs []float64, dir Direction, minEffect, confidence float64) (Verdict, Status) {
	v := Verdict{
		N:        len(diffs),
		MeanDiff: metrics.Mean(diffs),
		StdDiff:  StdDev(diffs),
	}
	v.CILo, v.CIHi = TInterval(diffs, confidence)
	v.EffectSize = CohenD(diffs)

	if len(diffs) == 0 {
		return v, Inconclusive
	}
	om := oriented(v.MeanDiff, dir)
	oLo, oHi := oriented(v.CILo, dir), oriented(v.CIHi, dir)
	if oLo > oHi {
		oLo, oHi = oHi, oLo
	}
	if len(diffs) == 1 {
		// A single replicate has no variance estimate; never definitive.
		return v, Inconclusive
	}
	switch {
	case oLo > 0 && om >= minEffect:
		return v, Confirmed
	case oHi < minEffect:
		return v, Refuted
	default:
		return v, Inconclusive
	}
}

// Trajectory judges every prefix of diffs (n = 2..len(diffs)) and applies
// the evidence-widening rule: a definitive status may not flip straight
// to its opposite when one more seed lands — such a transition is coerced
// to Inconclusive, making the conflict explicit instead of silent. The
// returned slice is the smoothed per-prefix status sequence; element i
// covers the first i+2 diffs.
func Trajectory(diffs []float64, dir Direction, minEffect, confidence float64) []Status {
	if len(diffs) < 2 {
		return nil
	}
	out := make([]Status, 0, len(diffs)-1)
	prev := Status("")
	for n := 2; n <= len(diffs); n++ {
		_, raw := judgeOne(diffs[:n], dir, minEffect, confidence)
		if (prev == Confirmed && raw == Refuted) || (prev == Refuted && raw == Confirmed) {
			raw = Inconclusive
		}
		out = append(out, raw)
		prev = raw
	}
	return out
}

// Judge evaluates one comparison's paired differences into a Verdict.
// The final status is the last element of the smoothed Trajectory, so a
// verdict reached by widening a seed set can never be a silent flip of
// the verdict a prefix carried.
func Judge(diffs []float64, dir Direction, minEffect, confidence float64) Verdict {
	v, raw := judgeOne(diffs, dir, minEffect, confidence)
	v.Trajectory = Trajectory(diffs, dir, minEffect, confidence)
	v.Status = raw
	if n := len(v.Trajectory); n > 0 {
		v.Status = v.Trajectory[n-1]
	}
	v.Reason = reason(v, raw, dir, minEffect)
	return v
}

// reason builds the one-line decision rationale.
func reason(v Verdict, raw Status, dir Direction, minEffect float64) string {
	side := "above"
	if dir == Less {
		side = "below"
	}
	switch {
	case v.N < 2:
		return fmt.Sprintf("only %d replicate(s): no interval, cannot judge", v.N)
	case v.Status != raw:
		return fmt.Sprintf("evidence conflict: widening the seed set flipped a definitive verdict (now raw %s); held at Inconclusive", raw)
	case v.Status == Confirmed:
		return fmt.Sprintf("CI [%.4f, %.4f] entirely %s control with mean effect %.4f >= %.4f", v.CILo, v.CIHi, side, math.Abs(v.MeanDiff), minEffect)
	case v.Status == Refuted:
		return fmt.Sprintf("CI [%.4f, %.4f] excludes an effect of %.4f %s control", v.CILo, v.CIHi, minEffect, side)
	default:
		return fmt.Sprintf("CI [%.4f, %.4f] straddles the decision bound", v.CILo, v.CIHi)
	}
}

// ComparisonResult pairs a comparison with its samples and verdict.
type ComparisonResult struct {
	Comparison
	// TreatmentValues / ControlValues are the per-seed metric samples in
	// seed order. ControlValues repeats the baseline constant for
	// baseline comparisons.
	TreatmentValues []float64 `json:"treatment_values"`
	ControlValues   []float64 `json:"control_values"`
	Diffs           []float64 `json:"diffs"`
	Verdict         Verdict   `json:"verdict"`
}

// Result is a fully executed and judged hypothesis.
type Result struct {
	Hypothesis Hypothesis `json:"hypothesis"`
	// Samples holds every configuration's extracted metric series in
	// config order.
	Samples []ConfigSamples `json:"samples"`
	// Comparisons are judged in declaration order.
	Comparisons []ComparisonResult `json:"comparisons"`
	// Status is the roll-up over primary comparisons: Confirmed iff
	// every one confirmed; Refuted if any refuted; Inconclusive
	// otherwise. Exploratory comparisons do not vote.
	Status Status `json:"status"`
}

// ConfigSamples is one configuration's extracted metrics.
type ConfigSamples struct {
	Config  string         `json:"config"`
	Metrics []MetricSeries `json:"metrics"`
}

// MetricSeries is one metric's per-seed values (seed order).
type MetricSeries struct {
	Metric Metric    `json:"metric"`
	Values []float64 `json:"values"`
}

// series returns the values for a metric of a config.
func (r *Result) series(config string, m Metric) ([]float64, bool) {
	for _, cs := range r.Samples {
		if cs.Config != config {
			continue
		}
		for _, ms := range cs.Metrics {
			if ms.Metric == m {
				return ms.Values, true
			}
		}
	}
	return nil, false
}

// rollup combines primary comparison statuses into the hypothesis
// status; exploratory comparisons are reported but do not vote.
func rollup(comparisons []ComparisonResult) Status {
	st := Confirmed
	primaries := 0
	for _, c := range comparisons {
		if c.Exploratory {
			continue
		}
		primaries++
		switch c.Verdict.Status {
		case Refuted:
			return Refuted
		case Inconclusive:
			st = Inconclusive
		}
	}
	if primaries == 0 {
		return Inconclusive
	}
	return st
}
