package experiments

import (
	"errors"
	"fmt"
	"math/bits"

	"dicer/internal/app"
	"dicer/internal/box"
	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/invariant"
	"dicer/internal/machine"
	"dicer/internal/metrics"
	"dicer/internal/obs"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
	"dicer/internal/sim"
)

// defaultSLO is an HP app's default target fraction of alone performance.
const defaultSLO = 0.9

// Scenario is one co-location experiment, the one every evaluation in
// the paper repeats: HP apps on cores 0..M-1 and BE apps on the cores
// after them share one server under a policy for a fixed horizon, and
// the outcome is normalised to alone runs of the same applications.
//
// One HP app with no Grouping runs on the paper's two-CLOS split (HP in
// CLOS 0, BEs in CLOS 1) under any policy. Several HP apps, or a set
// Grouping, run the scenario's own grouped DICER: an LFOC-style plan
// maps the HP apps to at most CLOSBudget-1 CLOS groups and the BEs share
// the last CLOS id. The Suite drives every single-box run of the
// evaluation through the same loop, on the same box (internal/box) every
// fleet node runs.
type Scenario struct {
	// Machine is the simulated platform; zero value means machine.Default.
	Machine machine.Machine
	// HPs are the high-priority applications (cores 0..M-1).
	HPs []HPApp
	// BEs are the best-effort applications, one per core starting at M.
	BEs []app.Profile
	// PeriodSec is the monitoring period (default 1 s).
	PeriodSec float64
	// StepsPerPeriod subdivides each period for the simulator (default 4).
	StepsPerPeriod int
	// HorizonPeriods is the number of monitoring periods to run
	// (default 120).
	HorizonPeriods int

	// CLOSBudget is the number of CLOS ids the emulated CAT hardware
	// exposes to a grouped run (default 16, the common hardware limit).
	CLOSBudget int
	// Grouping selects a grouped run's plan: core.GroupingClustered (the
	// default when several HP apps share the box), GroupingPerApp,
	// GroupingSpill or GroupingSingle. Empty with one HP app means the
	// two-CLOS split.
	Grouping string
	// ReclusterEvery re-evaluates the grouping every N periods (0 =
	// fixed at setup).
	ReclusterEvery int
	// UsePhaseHints exposes each app's upcoming-phase miss curve to the
	// re-clustering policy once the app is three quarters through its
	// current phase (Com-CAS-style guidance; reactive-only when false).
	UsePhaseHints bool

	// OnPeriod, when non-nil, receives every monitoring-period reading.
	OnPeriod func(period int, p resctrl.Period)
	// WithMBA enables the MBA extension on the emulated platform (the
	// paper's server lacked it; required for the ext.DicerMBA policy).
	WithMBA bool
	// Chaos, when non-nil and active, wraps the emulated platform in the
	// deterministic fault-injection layer. Injected actuation failures
	// are tolerated and counted in the result.
	Chaos *chaos.Config
	// ChaosSeed seeds the fault stream. The same scenario, schedule and
	// seed replay bit-identically.
	ChaosSeed int64
	// CheckInvariants wraps the policy in the runtime invariant guard:
	// the controller safety properties are machine-checked after Setup,
	// after every monitoring period and, under chaos, once more when the
	// delayed writes have drained; a violation aborts the run with an
	// *invariant.Error.
	CheckInvariants bool
	// Trace, when non-nil, receives one record per monitoring period,
	// with one group record per HP CLOS group (one on the two-CLOS
	// split). Sinks that accept a header receive one first, after Setup.
	Trace obs.Sink
}

// HPApp is one high-priority application: the profile plus its SLO
// (target fraction of alone performance, default 0.9).
type HPApp = box.HP

// NewScenario builds a single-HP Scenario from catalog names: one HP and
// beCount copies of one BE. It panics on unknown names (use the struct
// directly for full control and error handling).
func NewScenario(hp, be string, beCount int) *Scenario {
	beProf := app.MustByName(be)
	bes := make([]app.Profile, beCount)
	for i := range bes {
		bes[i] = beProf
	}
	return &Scenario{HPs: []HPApp{{Profile: app.MustByName(hp)}}, BEs: bes}
}

// HPAppResult is one HP app's outcome.
type HPAppResult struct {
	Name     string
	Group    int // CLOS group under the final plan (0 on the two-CLOS split)
	SLO      float64
	IPC      float64 // cumulative IPC over the horizon
	AloneIPC float64 // the same app alone with the full LLC
}

// Norm returns the app's IPC normalised to its alone run.
func (a HPAppResult) Norm() float64 { return metrics.NormIPC(a.IPC, a.AloneIPC) }

// Slowdown returns the app's co-location slowdown (alone/co-located).
func (a HPAppResult) Slowdown() float64 { return metrics.Slowdown(a.AloneIPC, a.IPC) }

// SLOMet reports whether the app met its SLO.
func (a HPAppResult) SLOMet() bool { return metrics.SLOAchieved(a.IPC, a.AloneIPC, a.SLO) }

// ScenarioResult summarises a scenario run.
type ScenarioResult struct {
	PolicyName string
	// Apps are the HP apps' outcomes, in scenario order.
	Apps []HPAppResult
	// BEIPCs are the BE instances' cumulative IPCs; BEAloneIPCs the same
	// applications alone with the full LLC.
	BEIPCs      []float64
	BEAloneIPCs []float64
	// FinalHPWays is the installed HP partition size at the end of the
	// run, over every HP group (the full cache for UM).
	FinalHPWays int
	// GroupWays are the controller's final per-group allocations (empty
	// for policies without a DICER controller); Reclusters counts the
	// regroupings of a grouped run.
	GroupWays  []int
	Reclusters int
	// ChaosStats counts the faults actually injected (zero without Chaos).
	ChaosStats chaos.Stats
	// ToleratedFaults counts the Setup/Observe calls whose actuation was
	// rejected by an injected fault and retried on the next period.
	ToleratedFaults int
}

// NumGroups returns the number of HP CLOS groups of the final plan.
func (r ScenarioResult) NumGroups() int { return len(r.GroupWays) }

// HPNorm returns the (first) HP's IPC normalised to its alone run.
func (r ScenarioResult) HPNorm() float64 { return r.Apps[0].Norm() }

// HPSlowdown returns the (first) HP's co-location slowdown.
func (r ScenarioResult) HPSlowdown() float64 { return r.Apps[0].Slowdown() }

// SLOAchieved reports whether the (first) HP met the given SLO fraction.
func (r ScenarioResult) SLOAchieved(slo float64) bool {
	return metrics.SLOAchieved(r.Apps[0].IPC, r.Apps[0].AloneIPC, slo)
}

// SUCI returns Eq. 4's combined index for the run.
func (r ScenarioResult) SUCI(slo, lambda float64) float64 {
	return metrics.SUCI(r.SLOAchieved(slo), r.EFU(), lambda)
}

// BENorms returns each BE's IPC normalised to its alone run.
func (r ScenarioResult) BENorms() []float64 {
	out := make([]float64, len(r.BEIPCs))
	for i := range out {
		out[i] = metrics.NormIPC(r.BEIPCs[i], r.BEAloneIPCs[i])
	}
	return out
}

// EFU returns Eq. 1's effective utilisation over every application.
func (r ScenarioResult) EFU() float64 {
	norms := make([]float64, 0, len(r.Apps)+len(r.BEIPCs))
	for _, a := range r.Apps {
		norms = append(norms, a.Norm())
	}
	return metrics.EFU(append(norms, r.BENorms()...))
}

// MaxSlowdown returns the worst per-app slowdown — the fairness metric
// LFOC-style clustering is judged on.
func (r ScenarioResult) MaxSlowdown() float64 {
	var worst float64
	for _, a := range r.Apps {
		if s := a.Slowdown(); s > worst {
			worst = s
		}
	}
	return worst
}

// SLOConformance returns the fraction of HP apps that met their SLO.
func (r ScenarioResult) SLOConformance() float64 {
	if len(r.Apps) == 0 {
		return 0
	}
	met := 0
	for _, a := range r.Apps {
		if a.SLOMet() {
			met++
		}
	}
	return float64(met) / float64(len(r.Apps))
}

// defaults fills unset fields.
func (sc *Scenario) defaults() {
	if sc.Machine.Cores == 0 {
		sc.Machine = machine.Default()
	}
	if sc.PeriodSec == 0 {
		sc.PeriodSec = 1
	}
	if sc.StepsPerPeriod == 0 {
		sc.StepsPerPeriod = 4
	}
	if sc.HorizonPeriods == 0 {
		sc.HorizonPeriods = 120
	}
	if sc.CLOSBudget == 0 {
		sc.CLOSBudget = 16
	}
	for i := range sc.HPs {
		if sc.HPs[i].SLO == 0 {
			sc.HPs[i].SLO = defaultSLO
		}
	}
}

// Run executes the scenario under pol and returns the summary; alone
// runs for normalisation execute on the same machine. A nil pol runs the
// scenario's own DICER with the Table 1 parameters at the scenario's
// period: core.New on the two-CLOS split, core.NewMulti on a grouped
// run. A grouped run accepts no other policy.
func (sc *Scenario) Run(pol policy.Policy) (ScenarioResult, error) {
	sc.defaults()
	dcfg := core.DefaultConfig()
	dcfg.PeriodSec = sc.PeriodSec
	var res ScenarioResult
	if err := sc.run(nil, pol, dcfg, sc.aloneTable(), &res); err != nil {
		return ScenarioResult{}, err
	}
	return res, nil
}

// aloneTable returns an empty table of full-horizon alone runs on the
// scenario's machine.
func (sc *Scenario) aloneTable() *sim.AloneTable {
	return sim.NewAloneTable(sc.Machine, sc.HorizonPeriods*sc.StepsPerPeriod,
		sc.PeriodSec/float64(sc.StepsPerPeriod), false)
}

// AloneIPC runs prof alone on machine m with the full LLC for the default
// horizon and returns its cumulative IPC — the normalisation reference the
// paper's metrics (and application-assisted controllers like
// ext.Heracles) need. Pass a zero Machine for the paper's platform.
func AloneIPC(m machine.Machine, prof app.Profile) (float64, error) {
	sc := &Scenario{Machine: m}
	sc.defaults()
	return sc.aloneTable().IPC(prof, sc.Machine.LLCWays)
}

// run is the one co-location run behind Scenario.Run and every Suite
// path. b is the box to run on (nil builds a fresh one on the scenario's
// machine); dcfg configures the scenario's own DICER when pol is nil;
// alone holds the alone-run references; res receives the outcome,
// reusing its slices. Fields are taken as set: defaults are the
// caller's business.
func (sc *Scenario) run(b *box.Box, pol policy.Policy, dcfg core.Config,
	alone *sim.AloneTable, res *ScenarioResult) error {
	cfg := box.Config{
		HPs:            sc.HPs,
		BEs:            sc.BEs,
		PeriodSec:      sc.PeriodSec,
		StepsPerPeriod: sc.StepsPerPeriod,
		CLOSBudget:     sc.CLOSBudget,
		Grouping:       sc.Grouping,
		ReclusterEvery: sc.ReclusterEvery,
		UsePhaseHints:  sc.UsePhaseHints,
		DICER:          dcfg,
	}
	m, grouped := len(sc.HPs), cfg.Grouped()
	switch {
	case m == 0:
		return errors.New("experiments: scenario needs at least one HP app")
	case !grouped && len(sc.BEs) == 0:
		return errors.New("experiments: scenario needs at least one BE")
	case m+len(sc.BEs) > sc.Machine.Cores:
		return fmt.Errorf("experiments: %d applications exceed %d cores", m+len(sc.BEs), sc.Machine.Cores)
	case grouped && pol != nil:
		return fmt.Errorf("experiments: a grouped scenario runs its own DICER, not %s", pol.Name())
	}
	*res = ScenarioResult{Apps: res.Apps[:0], BEIPCs: res.BEIPCs[:0],
		BEAloneIPCs: res.BEAloneIPCs[:0], GroupWays: res.GroupWays[:0]}

	if b == nil {
		b = new(box.Box)
		if err := b.Init(sc.Machine); err != nil {
			return err
		}
	}
	if err := b.Build(cfg, pol); err != nil {
		return err
	}
	pol = b.Policy
	if b.Grouped != nil {
		b.Grouped.ChainTrace(func(e core.Event) {
			if e.Kind == core.EventRecluster && e.Group == 0 {
				res.Reclusters++
			}
		})
	}

	// Wrap it: MBA-capable emulation, the fault layer, the guard. Start
	// gives a wrapped substrate its own meter.
	if sc.WithMBA {
		b.Sys = resctrl.NewEmu(b.Runner, true)
	}
	var csys *chaos.System
	if sc.Chaos != nil && sc.Chaos.Active() {
		if err := sc.Chaos.Validate(); err != nil {
			return err
		}
		csys = chaos.New(b.Sys, *sc.Chaos, sc.ChaosSeed)
		b.Sys = csys
	}
	if sc.CheckInvariants {
		b.Policy = invariant.Wrap(pol)
	}
	// tolerate absorbs injected actuation faults (the policy retries on
	// the next period, like a production controller would); invariant
	// violations and real errors stay fatal.
	tolerate := func(err error) error {
		if err == nil || csys == nil || !errors.Is(err, chaos.ErrInjected) {
			return err
		}
		var ie *invariant.Error
		if errors.As(err, &ie) {
			return err
		}
		res.ToleratedFaults++
		return nil
	}

	if sc.Trace != nil {
		b.Rec = obs.NewRecorder(sc.Trace)
		b.Rec.AttachController(core.ControllerOf(b.Policy))
		b.Rec.AttachChaos(csys)
	}
	b.OnPeriod = sc.OnPeriod

	if err := tolerate(b.Start()); err != nil {
		return err
	}
	if b.Rec != nil {
		// The header records the plan Setup installed.
		h, err := sc.header(pol.Name(), alone)
		if err == nil {
			err = b.Rec.Start(h)
		}
		if err != nil {
			return err
		}
	}
	for period := 0; period < sc.HorizonPeriods; period++ {
		_, err := b.Period(period)
		if err := tolerate(err); err != nil {
			return err
		}
	}

	if csys != nil {
		// Land any delayed writes so the reported final partition is the
		// one the controller last asked for; a guarded run then checks
		// that the installed masks equal its intent.
		csys.Drain()
		if g, ok := b.Policy.(*invariant.Guard); ok {
			if err := g.Recheck(b.Sys); err != nil {
				return fmt.Errorf("post-drain: %w", err)
			}
		}
		res.ChaosStats = csys.Stats()
	}

	res.PolicyName = pol.Name()
	groups := 1
	if ctl := core.ControllerOf(b.Policy); ctl != nil {
		groups = ctl.NumGroups()
		for gi := 0; gi < groups; gi++ {
			res.GroupWays = append(res.GroupWays, ctl.GroupWays(gi))
		}
	}
	var hpMask uint64
	for gi := 0; gi < groups; gi++ {
		hpMask |= b.Sys.CBM(gi)
	}
	res.FinalHPWays = bits.OnesCount64(hpMask)
	for i, hp := range sc.HPs {
		ref, err := alone.IPC(hp.Profile, sc.Machine.LLCWays)
		if err != nil {
			return err
		}
		a := HPAppResult{Name: hp.Profile.Name, SLO: hp.SLO, IPC: b.Runner.Proc(i).IPC(), AloneIPC: ref}
		if b.Grouped != nil {
			a.Group = b.Grouped.GroupOf(i)
		}
		res.Apps = append(res.Apps, a)
	}
	for i, be := range sc.BEs {
		ref, err := alone.IPC(be, sc.Machine.LLCWays)
		if err != nil {
			return err
		}
		res.BEIPCs = append(res.BEIPCs, b.Runner.Proc(m+i).IPC())
		res.BEAloneIPCs = append(res.BEAloneIPCs, ref)
	}
	return nil
}

// header describes the run's workload for trace sinks and the replay
// tool; the recorder adds the schema and the controller's half. It
// names every HP app with its SLO, and a single HP with the alone
// reference the diagnostic layer measures slowdown against.
func (sc *Scenario) header(policyName string, alone *sim.AloneTable) (obs.Header, error) {
	h := obs.Header{
		Policy:         policyName,
		NumWays:        sc.Machine.LLCWays,
		PeriodSec:      sc.PeriodSec,
		HorizonPeriods: sc.HorizonPeriods,
		LinkGbps:       sc.Machine.Link.CapacityGBps,
	}
	for _, hp := range sc.HPs {
		h.HPs = append(h.HPs, hp.Profile.Name)
		h.SLOs = append(h.SLOs, hp.SLO)
	}
	if len(sc.HPs) == 1 {
		ref, err := alone.IPC(sc.HPs[0].Profile, sc.Machine.LLCWays)
		if err != nil {
			return h, err
		}
		h.HPAloneIPC = ref
	}
	for _, be := range sc.BEs {
		h.BEs = append(h.BEs, be.Name)
	}
	if sc.Chaos != nil && sc.Chaos.Active() {
		h.Chaos, h.ChaosSeed = sc.Chaos.Name, sc.ChaosSeed
	}
	return h, nil
}
