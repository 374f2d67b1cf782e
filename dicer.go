// Package dicer is a reproduction of "DICER: Diligent Cache Partitioning
// for Efficient Workload Consolidation" (Nikas et al., ICPP 2019): a
// dynamic last-level-cache partitioning controller that co-locates one
// high-priority (HP) application with best-effort (BE) applications,
// protecting the HP's performance while handing every spare cache way to
// the BEs to maximise server utilisation.
//
// The package is a facade over the implementation packages:
//
//   - the DICER controller itself (Listings 1–3 of the paper), written
//     against a resctrl-style interface so it can drive real Intel RDT
//     hardware or the bundled simulator;
//   - a discrete-time multicore simulator (way-partitioned LLC, shared
//     memory link with saturation, phase-structured application models,
//     and a 59-entry SPEC/PARSEC-like workload catalog);
//   - the baseline policies (Unmanaged, Cache-Takeover, static
//     partitions), the paper's §6 extensions (MBA throttling, BE-count
//     management, overlapping partitions), and the metrics (EFU, SUCI,
//     SLO conformance);
//   - an experiment harness that regenerates every table and figure of
//     the paper's evaluation (see bench_test.go and cmd/dicer-bench).
//
// Quick start:
//
//	sc := dicer.NewScenario("omnetpp1", "gcc_base1", 9)
//	res, err := sc.Run(dicer.NewDICER())
//	fmt.Println(res.HPNorm(), res.EFU())
//
// See examples/ for runnable programs.
package dicer

import (
	"io"

	"dicer/internal/app"
	"dicer/internal/chaos"
	"dicer/internal/core"
	"dicer/internal/diag"
	"dicer/internal/experiments"
	"dicer/internal/fleet"
	"dicer/internal/invariant"
	"dicer/internal/machine"
	"dicer/internal/metrics"
	"dicer/internal/obs"
	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// Aliases re-exporting the library's building blocks through the public
// package. External importers use these names; the internal packages stay
// private.
type (
	// Machine describes the simulated platform (Table 1 of the paper).
	Machine = machine.Machine
	// Scenario is one co-location experiment: HP apps and BEs sharing a
	// box under a policy for a fixed horizon, normalised to alone runs.
	// One HP app runs on the paper's two-CLOS split; several run the
	// grouped DICER under a CLOS budget.
	Scenario = experiments.Scenario
	// HPApp is one high-priority application of a Scenario with its SLO.
	HPApp = experiments.HPApp
	// ScenarioResult summarises a Scenario run.
	ScenarioResult = experiments.ScenarioResult
	// HPAppResult is one HP app's outcome within a ScenarioResult.
	HPAppResult = experiments.HPAppResult
	// Timeline records per-period scenario state (AttachTimeline).
	Timeline = experiments.Timeline
	// TimelineEntry is one monitoring period of a Timeline.
	TimelineEntry = experiments.TimelineEntry
	// Profile is a phase-structured application model.
	Profile = app.Profile
	// Policy is a co-location policy (UM, CT, Static, DICER, extensions).
	Policy = policy.Policy
	// Period is one monitoring period's counter readings.
	Period = resctrl.Period
	// Controller is the DICER control state machine.
	Controller = core.Controller
	// ControllerConfig holds DICER's tunables (Table 1 defaults).
	ControllerConfig = core.Config
	// ControllerEvent is one traced controller decision.
	ControllerEvent = core.Event
	// ChaosConfig is a deterministic fault schedule for the chaos layer
	// (counter dropout, frozen/jittered readings, rejected and delayed
	// schemata writes).
	ChaosConfig = chaos.Config
	// ChaosStats counts the faults a chaos system actually injected.
	ChaosStats = chaos.Stats
	// InvariantGuard wraps a Policy with a per-period invariant check.
	InvariantGuard = invariant.Guard
	// TraceRecord is one monitoring period's structured audit entry:
	// counters read, saturation verdict, controller state and decisions,
	// masks installed, chaos faults active, guard interventions.
	TraceRecord = obs.Record
	// TraceHeader is a trace's first JSONL line: workload, machine and
	// controller configuration — everything replay needs.
	TraceHeader = obs.Header
	// TraceRing is the fixed-capacity in-memory sink (the /trace buffer).
	TraceRing = obs.Ring
	// TraceJSONL is the JSON-Lines file sink (replayable audit trace).
	TraceJSONL = obs.JSONL
	// TraceMulti fans records out to several sinks.
	TraceMulti = obs.MultiSink
	// TraceReplayResult summarises a verified trace replay.
	TraceReplayResult = obs.ReplayResult
	// FleetConfig configures a multi-node consolidation cluster: node
	// count and policy, arrival generator, admission queue, placement
	// scheduler, node chaos.
	FleetConfig = fleet.Config
	// FleetCluster is N simulated DICER nodes behind admission control
	// and a placement scheduler; Step it once per monitoring period.
	FleetCluster = fleet.Cluster
	// FleetArrivals seeds the open-loop best-effort job generator.
	FleetArrivals = fleet.ArrivalConfig
	// FleetScheduler places admitted BE jobs onto nodes.
	FleetScheduler = fleet.Scheduler
	// ClusterRecord is one cluster monitoring period: admission and
	// placement counters, chaos events, fleet EFU, sorted heartbeats.
	ClusterRecord = fleet.ClusterRecord
	// ClusterTraceHeader is a fleet trace's first JSONL line.
	ClusterTraceHeader = fleet.TraceHeader
	// FleetIncident is one sealed forensic bundle: manifest, the
	// triggering node's flight window, the control events in scope.
	FleetIncident = fleet.Incident
	// DiagExplainReport is the causal explain engine's output: ranked
	// root-cause candidates for one incident.
	DiagExplainReport = diag.ExplainReport
	// NodeChaosSchedule is a deterministic node freeze/loss schedule.
	NodeChaosSchedule = chaos.NodeSchedule
	// DiagMonitor is the single-node live diagnostic pipeline (an
	// obs.Sink: record counters and gauges, slowdown/link histograms,
	// burn-rate alerter).
	DiagMonitor = diag.Monitor
	// DiagReport is one run's diagnostic digest (percentiles, burn-rate
	// timeline, decision causes, per-node outliers).
	DiagReport = diag.Report
	// DiagAnalyzeOptions tunes offline trace analysis.
	DiagAnalyzeOptions = diag.AnalyzeOptions
)

// Grouping policies for a Scenario with several HP apps.
const (
	// GroupingClustered packs similar-sensitivity apps into shared CLOS
	// groups (LFOC-style; the default).
	GroupingClustered = core.GroupingClustered
	// GroupingPerApp gives every HP app its own CLOS (infeasible beyond
	// the budget; the baseline clustering is judged against).
	GroupingPerApp = core.GroupingPerApp
	// GroupingSpill is the naive fallback when apps outnumber CLOS ids:
	// per-app groups until the ids run out, overflow shares the last
	// group, ways dealt evenly.
	GroupingSpill = core.GroupingSpill
	// GroupingSingle stretches the single-HP topology over all apps: one
	// shared HP group.
	GroupingSingle = core.GroupingSingle
)

// ErrChaosInjected marks errors caused by an injected fault; harnesses
// use errors.Is with it to tolerate chaos-induced actuation failures
// while keeping real errors fatal.
var ErrChaosInjected = chaos.ErrInjected

// AnalyzeTrace streams a recorded JSONL trace (single-node or fleet,
// schema-sniffed) through the live diagnostic pipeline offline and
// returns the run's report — byte-identical to what the live endpoints
// computed for the same records.
func AnalyzeTrace(r io.Reader, opts DiagAnalyzeOptions) (*DiagReport, error) {
	return diag.Analyze(r, opts)
}

// ReadIncident parses a forensic incident bundle written by the fleet
// flight recorder (dicer-incident/v1 JSONL).
func ReadIncident(r io.Reader) (*FleetIncident, error) { return fleet.ReadIncident(r) }

// ExplainIncident runs the causal explain engine over one sealed
// bundle: violation-onset detection and deterministically ranked
// root-cause candidates from the decision provenance in the window.
func ExplainIncident(inc *FleetIncident) *DiagExplainReport { return diag.ExplainIncident(inc) }

// NewDiagMonitor builds a live diagnostic monitor; wire it as a trace
// sink. Its WriteProm renders the Prometheus text exposition of the
// records it saw (dicer-sim -serve's /metrics).
func NewDiagMonitor(cfg diag.MonitorConfig) *DiagMonitor { return diag.NewMonitor(cfg) }

// NewScenario builds a Scenario from catalog names: one HP and beCount
// copies of one BE. It panics on unknown names (use the Scenario struct
// directly for full control and error handling).
func NewScenario(hp, be string, beCount int) *Scenario {
	return experiments.NewScenario(hp, be, beCount)
}

// AloneIPC runs prof alone on machine m with the full LLC for the default
// horizon and returns its cumulative IPC — the normalisation reference the
// paper's metrics (and application-assisted controllers like
// ext.Heracles) need. Pass a zero Machine for the paper's platform.
func AloneIPC(m Machine, prof Profile) (float64, error) { return experiments.AloneIPC(m, prof) }

// DefaultMachine returns the paper's platform: 10 cores at 2.2 GHz, 25 MB
// 20-way LLC, 68.3 Gbps memory link.
func DefaultMachine() Machine { return machine.Default() }

// DefaultControllerConfig returns the paper's Table 1 DICER parameters:
// T = 1 s, 50 Gbps saturation threshold, 30 % phase threshold, a = 5 %.
func DefaultControllerConfig() ControllerConfig { return core.DefaultConfig() }

// NewDICER builds a DICER controller with the paper's configuration.
func NewDICER() *Controller { return core.MustNew(core.DefaultConfig()) }

// NewDICERWith builds a DICER controller with a custom configuration.
func NewDICERWith(cfg ControllerConfig) (*Controller, error) { return core.New(cfg) }

// Unmanaged returns the UM baseline policy: no resource control at all.
func Unmanaged() Policy { return policy.Unmanaged{} }

// CacheTakeover returns the CT baseline policy: HP statically owns all but
// one LLC way.
func CacheTakeover() Policy { return policy.CacheTakeover{} }

// StaticPartition returns a fixed partition with hpWays exclusive ways for
// the HP.
func StaticPartition(hpWays int) Policy { return policy.Static{HPWays: hpWays} }

// Catalog returns the 59-application workload catalog (25 SPEC CPU 2006
// programs, 8 with multiple inputs, plus 9 PARSEC 3.0 programs).
func Catalog() []Profile { return app.Catalog() }

// AppByName looks up a catalog profile, e.g. "milc1" or "gcc_base3".
func AppByName(name string) (Profile, error) { return app.ByName(name) }

// AppNames returns all catalog profile names, sorted.
func AppNames() []string { return app.Names() }

// ChaosSchedules returns the canned fault schedules the soak harness runs
// (dropout, freeze, jitter, write-reject, delayed-actuation, storm).
func ChaosSchedules() []ChaosConfig { return chaos.Schedules() }

// ChaosScheduleByName looks up a canned fault schedule; "none" returns an
// inactive schedule.
func ChaosScheduleByName(name string) (ChaosConfig, error) { return chaos.ScheduleByName(name) }

// GuardPolicy wraps p in the runtime invariant guard: controller safety
// properties are machine-checked after every period and a violation
// surfaces as an *InvariantError from Observe.
func GuardPolicy(p Policy) *InvariantGuard { return invariant.Wrap(p) }

// NewFleet builds a multi-node consolidation cluster. Step it once per
// monitoring period until Done, then Finish for the aggregate
// FleetResult. Identical configurations produce byte-identical cluster
// traces. See cmd/dicer-fleet for the CLI.
func NewFleet(cfg FleetConfig) (*FleetCluster, error) { return fleet.New(cfg) }

// FleetSchedulerByName builds a placement scheduler: "random",
// "least-loaded", or "headroom" (predicted-pressure + bandwidth-headroom
// scoring that refuses knee-saturating placements). The seed only
// matters to "random".
func FleetSchedulerByName(name string, seed int64) (FleetScheduler, error) {
	return fleet.NewScheduler(name, seed)
}

// FleetSchedulerNames lists the built-in placement schedulers.
func FleetSchedulerNames() []string { return fleet.SchedulerNames() }

// ReadClusterTrace parses a JSONL cluster trace written by a fleet run.
func ReadClusterTrace(r io.Reader) (ClusterTraceHeader, []ClusterRecord, error) {
	return fleet.ReadClusterTrace(r)
}

// NodeChaosScheduleByName looks up a canned node fault schedule ("none",
// "node-freeze", "node-loss", "node-storm") sized for a cluster of the
// given node count and horizon.
func NodeChaosScheduleByName(name string, seed int64, nodes, horizon int) (NodeChaosSchedule, error) {
	return chaos.NodeScheduleByName(name, seed, nodes, horizon)
}

// NewTraceRing builds an in-memory trace sink holding the most recent
// capacity records; Emit never allocates, so it can stay attached for
// the lifetime of a deployment.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewTraceJSONL builds a trace sink writing JSON Lines (header first) to
// w. Call Flush after the run; records are buffered.
func NewTraceJSONL(w io.Writer) *TraceJSONL { return obs.NewJSONL(w) }

// ReadTrace parses a JSONL trace written by a TraceJSONL sink.
func ReadTrace(r io.Reader) (TraceHeader, []TraceRecord, error) { return obs.ReadTrace(r) }

// ReplayTrace re-drives a fresh DICER controller from a recorded trace
// and verifies decision-for-decision equivalence — every captured trace
// doubles as a regression test. See cmd/dicer-trace for the CLI.
func ReplayTrace(h TraceHeader, recs []TraceRecord) (TraceReplayResult, error) {
	return obs.Replay(h, recs)
}

// EFU computes the paper's Eq. 1 effective utilisation from normalised
// IPCs (IPC / IPC_alone, one entry per co-located application).
func EFU(normIPCs []float64) float64 { return metrics.EFU(normIPCs) }

// SUCI computes the paper's Eq. 4 combined index from SLO conformance,
// effective utilisation, and the weighting exponent lambda.
func SUCI(sloAchieved bool, efu, lambda float64) float64 {
	return metrics.SUCI(sloAchieved, efu, lambda)
}
