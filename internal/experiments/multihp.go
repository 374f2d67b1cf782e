package experiments

import (
	"fmt"
	"math/rand"

	"dicer/internal/app"
	"dicer/internal/core"
	"dicer/internal/report"
)

// This file is the multi-HP consolidation harness (ROADMAP item 2): M
// high-priority applications share one box under a CLOS-id budget, the
// multi-HP DICER controller partitions the LLC per CLOS group, and the
// grid compares the LFOC-style clustered plan against the naive
// baselines (one CLOS per app — infeasible beyond the budget — and one
// shared group). The fairness metric is the worst per-app slowdown; SLO
// conformance and Eq. 1 EFU ride along.

// MultiHPSpec describes one multi-HP consolidation run.
type MultiHPSpec struct {
	// M is the number of HP applications; BECount the best-effort apps
	// filling further cores.
	M       int `json:"m"`
	BECount int `json:"be_count"`
	// CLOSBudget is the CLOS-id budget the plan must respect (HP groups
	// + 1 BE partition).
	CLOSBudget int `json:"clos_budget"`
	// Grouping is the plan policy (core.GroupingClustered / PerApp /
	// Single; empty means clustered).
	Grouping string `json:"grouping,omitempty"`
	// SLO is every app's target fraction of alone performance (default
	// 0.9).
	SLO float64 `json:"slo,omitempty"`
	// HorizonPeriods per run; 0 means the suite's sweep horizon.
	HorizonPeriods int `json:"horizon_periods,omitempty"`
	// ReclusterEvery re-plans the grouping every N periods (0 = fixed);
	// UsePhaseHints exposes upcoming-phase curves to those re-plans.
	ReclusterEvery int  `json:"recluster_every,omitempty"`
	UsePhaseHints  bool `json:"use_phase_hints,omitempty"`
	// Seed draws the workload: which catalog applications fill the M HP
	// slots and the BE cores. The same seed always draws the same
	// workload.
	Seed int64 `json:"seed,omitempty"`
}

// MultiHPOutcome summarises one multi-HP run.
type MultiHPOutcome struct {
	Policy    string
	NumGroups int
	// MaxSlowdown is the worst per-app slowdown (fairness), Conformance
	// the fraction of HP apps meeting their SLO, EFU Eq. 1 over every
	// application.
	MaxSlowdown float64
	Conformance float64
	EFU         float64
	Reclusters  int
}

// multiHPWorkload draws the spec's workload deterministically from the
// catalog: a seeded permutation fills the M HP slots, the next entries
// fill the BE cores.
func multiHPWorkload(spec MultiHPSpec) (hps, bes []string) {
	names := app.Names()
	rng := rand.New(rand.NewSource(spec.Seed))
	perm := rng.Perm(len(names))
	hps = make([]string, spec.M)
	for i := range hps {
		hps[i] = names[perm[i%len(perm)]]
	}
	bes = make([]string, spec.BECount)
	for i := range bes {
		bes[i] = names[perm[(spec.M+i)%len(perm)]]
	}
	return hps, bes
}

// RunMultiHP executes one multi-HP consolidation run: a grouped
// scenario under the suite's DICER configuration. The machine is the
// suite's platform with the core count raised to host M+BECount
// applications; alone references resolve through the suite's memo (a
// solo run does not depend on the core count).
func (s *Suite) RunMultiHP(spec MultiHPSpec) (MultiHPOutcome, error) {
	if spec.M < 1 {
		return MultiHPOutcome{}, fmt.Errorf("experiments: multi-HP spec needs M >= 1")
	}
	if spec.CLOSBudget < 2 {
		return MultiHPOutcome{}, fmt.Errorf("experiments: multi-HP spec needs a CLOS budget >= 2")
	}
	slo := spec.SLO
	if slo == 0 {
		slo = defaultSLO
	}
	sc := &Scenario{
		Machine:        s.cfg.Machine,
		PeriodSec:      s.cfg.PeriodSec,
		StepsPerPeriod: s.cfg.StepsPerPeriod,
		HorizonPeriods: spec.HorizonPeriods,
		CLOSBudget:     spec.CLOSBudget,
		Grouping:       spec.Grouping,
		ReclusterEvery: spec.ReclusterEvery,
		UsePhaseHints:  spec.UsePhaseHints,
	}
	if sc.HorizonPeriods == 0 {
		sc.HorizonPeriods = s.cfg.SweepHorizonPeriods
	}
	if sc.Grouping == "" {
		sc.Grouping = core.GroupingClustered
	}
	// The platform grows with the consolidation: more cores AND a
	// proportionally wider memory link (a bigger socket, constant
	// per-core bandwidth), so the LLC stays the contended resource the
	// plan is judged on.
	if need := spec.M + spec.BECount; sc.Machine.Cores < need {
		sc.Machine.Link.CapacityGBps *= float64(need) / float64(sc.Machine.Cores)
		sc.Machine.Cores = need
	}
	hpNames, beNames := multiHPWorkload(spec)
	for _, name := range hpNames {
		prof, err := app.ByName(name)
		if err != nil {
			return MultiHPOutcome{}, err
		}
		sc.HPs = append(sc.HPs, HPApp{Profile: prof, SLO: slo})
	}
	for _, name := range beNames {
		prof, err := app.ByName(name)
		if err != nil {
			return MultiHPOutcome{}, err
		}
		sc.BEs = append(sc.BEs, prof)
	}
	var res ScenarioResult
	if err := sc.run(nil, nil, s.cfg.DICER, s.aloneIPC, &res); err != nil {
		return MultiHPOutcome{}, err
	}
	return MultiHPOutcome{
		Policy:      res.PolicyName,
		NumGroups:   res.NumGroups(),
		MaxSlowdown: res.MaxSlowdown(),
		Conformance: res.SLOConformance(),
		EFU:         res.EFU(),
		Reclusters:  res.Reclusters,
	}, nil
}

// MultiHPCell is one grid cell: a labelled spec and its outcome, or the
// infeasibility error (per-app grouping beyond the budget refuses).
type MultiHPCell struct {
	Label   string
	Spec    MultiHPSpec
	Outcome MultiHPOutcome
	Err     string
}

// MultiHPGridResult is the clustered-vs-baselines comparison grid.
type MultiHPGridResult struct {
	M, BECount int
	Budget     int // the real hardware CLOS budget
	Cells      []MultiHPCell
}

// MultiHPGrid runs the consolidation grid for M HP apps under the real
// hardware budget: the clustered plan at the full, halved and quartered
// budget, the single shared group, per-app under the real budget
// (recorded as infeasible when M exceeds it), and per-app on fantasy
// hardware with M+1 CLOS ids as the isolation reference. Cells run
// through the suite's executor; results are identical for any worker
// count.
func (s *Suite) MultiHPGrid(m, beCount, budget int) (MultiHPGridResult, error) {
	base := MultiHPSpec{M: m, BECount: beCount, CLOSBudget: budget, Seed: 1}
	with := func(label, grouping string, clos int) MultiHPCell {
		spec := base
		spec.Grouping = grouping
		spec.CLOSBudget = clos
		return MultiHPCell{Label: label, Spec: spec}
	}
	res := MultiHPGridResult{
		M: m, BECount: beCount, Budget: budget,
		Cells: []MultiHPCell{
			with("clustered", core.GroupingClustered, budget),
			with(fmt.Sprintf("clustered/%d", budget/2), core.GroupingClustered, budget/2),
			with(fmt.Sprintf("clustered/%d", budget/4), core.GroupingClustered, budget/4),
			with("single", core.GroupingSingle, budget),
			with("per-app", core.GroupingPerApp, budget),
			with("per-app-spill", core.GroupingSpill, budget),
			with(fmt.Sprintf("per-app/%d-clos", m+1), core.GroupingPerApp, m+1),
		},
	}
	err := s.execute(len(res.Cells), func(i int) error {
		cell := &res.Cells[i]
		out, err := s.RunMultiHP(cell.Spec)
		if err != nil {
			cell.Err = err.Error()
			return nil // infeasible cells are part of the result
		}
		cell.Outcome = out
		return nil
	})
	return res, err
}

// Table renders the grid.
func (r MultiHPGridResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Multi-HP consolidation: %d HP apps + %d BEs, %d-CLOS hardware (worst per-app slowdown / SLO conformance / EFU)",
			r.M, r.BECount, r.Budget),
		"Plan", "CLOS budget", "Groups", "Max slowdown", "SLO conf", "EFU")
	for _, c := range r.Cells {
		if c.Err != "" {
			t.AddRow(c.Label, fmt.Sprintf("%d", c.Spec.CLOSBudget), "-", "infeasible", "-", "-")
			continue
		}
		t.AddRow(c.Label,
			fmt.Sprintf("%d", c.Spec.CLOSBudget),
			fmt.Sprintf("%d", c.Outcome.NumGroups),
			report.F3(c.Outcome.MaxSlowdown),
			report.Pct(c.Outcome.Conformance*100),
			report.F3(c.Outcome.EFU))
	}
	return t
}
