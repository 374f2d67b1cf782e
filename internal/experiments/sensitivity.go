package experiments

import (
	"fmt"

	"dicer/internal/app"
	"dicer/internal/core"
	"dicer/internal/ext"
	"dicer/internal/metrics"
	"dicer/internal/policy"
	"dicer/internal/report"
)

// The paper (§4.1) states that all DICER parameter values were "selected
// after performing a sensitivity analysis which for the sake of space is
// not included". This file reconstructs that analysis: each driver sweeps
// one parameter of the controller across a plausible range over a subset
// of the representative sample and reports the two quantities the paper
// optimises — HP SLO conformance and effective utilisation.

// SensitivityPoint is one parameter setting's aggregate outcome.
type SensitivityPoint struct {
	Value      float64
	SLO90Pct   float64 // % of workloads with HP norm IPC >= 0.90
	GeoMeanEFU float64
	MeanHPNorm float64
}

// SensitivityResult is a full one-parameter sweep.
type SensitivityResult struct {
	Parameter string
	Points    []SensitivityPoint
}

// Table renders the sweep.
func (r SensitivityResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Sensitivity: DICER outcome vs %s", r.Parameter),
		r.Parameter, "SLO90 %", "geomean EFU", "mean HP norm")
	for _, p := range r.Points {
		t.AddRowf(p.Value, fmt.Sprintf("%.1f", p.SLO90Pct), p.GeoMeanEFU, p.MeanHPNorm)
	}
	return t
}

// sensitivitySampleSize bounds the per-point workload count so a sweep
// stays affordable (the paper's analysis is qualitative: pick the plateau).
const sensitivitySampleSize = 24

// sensitivitySample returns an evenly spaced slice of the representative
// sample.
func (s *Suite) sensitivitySample(beCount int) ([]SampledWorkload, error) {
	sample, err := s.Sample(beCount)
	if err != nil {
		return nil, err
	}
	if len(sample) <= sensitivitySampleSize {
		return sample, nil
	}
	out := make([]SampledWorkload, 0, sensitivitySampleSize)
	for i := 0; i < sensitivitySampleSize; i++ {
		out = append(out, sample[i*(len(sample)-1)/(sensitivitySampleSize-1)])
	}
	return out, nil
}

// runDICERVariant executes the sample under a custom controller config and
// aggregates the outcome. Results are NOT cached in the suite (the config
// is not part of the memoisation key), so each call simulates afresh.
func (s *Suite) runDICERVariant(sample []SampledWorkload, cfg core.Config) (SensitivityPoint, error) {
	norms := make([]float64, len(sample))
	efus := make([]float64, len(sample))
	if err := s.execute(len(sample), func(i int) error {
		ctl, err := core.New(cfg)
		if err != nil {
			return err
		}
		r, err := s.run(sample[i].Workload, ctl, DICER, s.cfg.HorizonPeriods)
		if err != nil {
			return err
		}
		norms[i], efus[i] = r.HPNorm(), r.EFU()
		return nil
	}); err != nil {
		return SensitivityPoint{}, err
	}
	met := 0
	for _, n := range norms {
		if n >= 0.90 {
			met++
		}
	}
	return SensitivityPoint{
		SLO90Pct:   100 * float64(met) / float64(len(norms)),
		GeoMeanEFU: metrics.GeoMean(efus),
		MeanHPNorm: metrics.Mean(norms),
	}, nil
}

// sweep runs the variant for every value, applying set(value) to the base
// config.
func (s *Suite) sweep(beCount int, name string, values []float64,
	set func(*core.Config, float64)) (SensitivityResult, error) {
	sample, err := s.sensitivitySample(beCount)
	if err != nil {
		return SensitivityResult{}, err
	}
	out := SensitivityResult{Parameter: name}
	for _, v := range values {
		cfg := s.cfg.DICER
		set(&cfg, v)
		pt, err := s.runDICERVariant(sample, cfg)
		if err != nil {
			return SensitivityResult{}, err
		}
		pt.Value = v
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// SensitivityBWThreshold sweeps the saturation threshold (Table 1: 50).
func (s *Suite) SensitivityBWThreshold(beCount int) (SensitivityResult, error) {
	return s.sweep(beCount, "MemBW_threshold (Gbps)",
		[]float64{35, 40, 45, 50, 55, 60, 65},
		func(c *core.Config, v float64) { c.BWThresholdGbps = v })
}

// SensitivityAlpha sweeps the IPC stability band (Table 1: 5%).
func (s *Suite) SensitivityAlpha(beCount int) (SensitivityResult, error) {
	return s.sweep(beCount, "stability a (%)",
		[]float64{1, 2, 5, 10, 15},
		func(c *core.Config, v float64) { c.StabilityAlpha = v / 100 })
}

// SensitivityPhaseThreshold sweeps Eq. 2's spike factor (Table 1: 30%).
func (s *Suite) SensitivityPhaseThreshold(beCount int) (SensitivityResult, error) {
	return s.sweep(beCount, "phase_threshold (%)",
		[]float64{10, 20, 30, 50, 80},
		func(c *core.Config, v float64) { c.PhaseThreshold = v / 100 })
}

// SensitivitySampleStep sweeps the sampling stride.
func (s *Suite) SensitivitySampleStep(beCount int) (SensitivityResult, error) {
	return s.sweep(beCount, "sample step (ways)",
		[]float64{1, 2, 3, 4, 6},
		func(c *core.Config, v float64) { c.SampleStep = int(v) })
}

// ---------------------------------------------------------------------------
// Ablations across the sample (not just one pair): what each mechanism of
// the controller buys, measured on the representative workloads.

// AblationVariant names a controller variant for the comparison.
type AblationVariant struct {
	Name string
	Cfg  core.Config
}

// AblationResult aggregates every variant over the sample.
type AblationResult struct {
	BECount  int
	Variants []AblationVariant
	Points   []SensitivityPoint // parallel to Variants
}

// Table renders the ablation comparison.
func (r AblationResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Ablation: DICER variants over the sample (%d BEs)", r.BECount),
		"Variant", "SLO90 %", "geomean EFU", "mean HP norm")
	for i, v := range r.Variants {
		p := r.Points[i]
		t.AddRowf(v.Name, fmt.Sprintf("%.1f", p.SLO90Pct), p.GeoMeanEFU, p.MeanHPNorm)
	}
	return t
}

// Ablations compares the full controller against its ablated variants over
// the (sub)sample.
func (s *Suite) Ablations(beCount int) (AblationResult, error) {
	sample, err := s.sensitivitySample(beCount)
	if err != nil {
		return AblationResult{}, err
	}
	full := s.cfg.DICER
	noSat := full
	noSat.DisableSaturationHandling = true
	noPhase := full
	noPhase.DisablePhaseDetection = true
	noBoth := noSat
	noBoth.DisablePhaseDetection = true
	out := AblationResult{
		BECount: beCount,
		Variants: []AblationVariant{
			{"full DICER", full},
			{"no saturation handling (≈DCP-QoS)", noSat},
			{"no phase detection", noPhase},
			{"neither", noBoth},
		},
	}
	for _, v := range out.Variants {
		pt, err := s.runDICERVariant(sample, v.Cfg)
		if err != nil {
			return AblationResult{}, err
		}
		out.Points = append(out.Points, pt)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Extension comparison: plain DICER vs DICER+MBA vs DICER+BE manager over
// bandwidth-heavy workloads, quantifying the §6 roadmap.

// ExtensionResult compares controller stacks on a bandwidth-heavy subset.
type ExtensionResult struct {
	Workloads []Workload
	Names     []string
	HPNorm    [][]float64 // [variant][workload]
	EFU       [][]float64
}

// Table renders the comparison (means across the subset).
func (r ExtensionResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Extensions on %d bandwidth-heavy workloads (means)", len(r.Workloads)),
		"Variant", "mean HP norm", "geomean EFU")
	for i, n := range r.Names {
		t.AddRowf(n, metrics.Mean(r.HPNorm[i]), metrics.GeoMean(r.EFU[i]))
	}
	return t
}

// Extensions runs the §6 extension stacks on the most bandwidth-heavy
// sampled workloads (stream-class HPs paired with stream-class BEs).
func (s *Suite) Extensions(beCount, maxWorkloads int) (ExtensionResult, error) {
	classOf := map[string]app.Class{}
	for _, p := range app.Catalog() {
		classOf[p.Name] = p.Class
	}
	var heavy []Workload
	for _, w := range Pairs(beCount) {
		if classOf[w.HP] == app.ClassStream && classOf[w.BE] == app.ClassStream {
			heavy = append(heavy, w)
		}
		if len(heavy) >= maxWorkloads {
			break
		}
	}
	out := ExtensionResult{
		Workloads: heavy,
		Names:     []string{"DICER", "DICER+MBA", "DICER+BEMGR"},
	}
	out.HPNorm = make([][]float64, len(out.Names))
	out.EFU = make([][]float64, len(out.Names))
	for vi := range out.Names {
		for _, w := range heavy {
			norm, efu, err := s.runExtensionVariant(w, vi)
			if err != nil {
				return ExtensionResult{}, err
			}
			out.HPNorm[vi] = append(out.HPNorm[vi], norm)
			out.EFU[vi] = append(out.EFU[vi], efu)
		}
	}
	return out, nil
}

// runExtensionVariant runs one workload under variant index vi (0 plain,
// 1 MBA, 2 BE manager) on the MBA-capable platform the variants need.
func (s *Suite) runExtensionVariant(w Workload, vi int) (hpNorm, efu float64, err error) {
	var pol policy.Policy
	switch vi {
	case 0:
		pol, err = core.New(s.cfg.DICER)
	case 1:
		pol, err = ext.NewDicerMBA(s.cfg.DICER)
	case 2:
		var inner *core.Controller
		if inner, err = core.New(s.cfg.DICER); err == nil {
			pol, err = ext.NewBEManager(inner, s.cfg.DICER.BWThresholdGbps)
		}
	default:
		err = fmt.Errorf("experiments: unknown extension variant %d", vi)
	}
	if err != nil {
		return 0, 0, err
	}
	c, err := s.getCtx()
	if err != nil {
		return 0, 0, err
	}
	defer s.putCtx(c)
	sc, err := s.scenario(c, w, s.cfg.HorizonPeriods)
	if err != nil {
		return 0, 0, err
	}
	sc.WithMBA = true
	if err := sc.run(&c.box, pol, s.cfg.DICER, s.alone, &c.res); err != nil {
		return 0, 0, err
	}
	return c.res.HPNorm(), c.res.EFU(), nil
}
