package hypo

import (
	"fmt"

	"dicer/internal/core"
	"dicer/internal/experiments"
	"dicer/internal/fleet"
)

// DefaultSeedCount is the registry's replication level: enough for a
// t-interval with a few degrees of freedom while staying interactive.
const DefaultSeedCount = 5

// DefaultSeeds returns the canonical seed sequence 42, 43, ... of length
// n. Every registered hypothesis uses a prefix of this sequence, so
// widening replication extends the seed set instead of replacing it —
// which is what makes the prefix-trajectory guarantee meaningful across
// runs.
func DefaultSeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = 42 + int64(i)
	}
	return out
}

// consolidationArrivals is the shared fleet load of the comparative
// hypotheses: the stream-heavy mix the fleet experiments use, heavy
// enough that careless placement saturates individual links.
func consolidationArrivals() fleet.ArrivalConfig {
	return fleet.ArrivalConfig{
		RatePerPeriod:       2,
		MeanDurationPeriods: 10,
		ClassWeights:        [4]float64{0.5, 0.25, 0.15, 0.1},
	}
}

// saturatingArrivals raises the rate until links actually saturate even
// without pathological placement. The saturation-sampling ablations need
// this: under the consolidation load the headroom scheduler keeps every
// link below the knee, so the controller's saturation path never fires
// and the ablation would be a no-op.
func saturatingArrivals() fleet.ArrivalConfig {
	arr := consolidationArrivals()
	arr.RatePerPeriod = 3
	return arr
}

// fleetConfig builds a fleet configuration of the standard comparison
// shape (4 nodes, 80 periods, queue cap 40).
func fleetConfig(name, scheduler string, policy experiments.PolicyName, dicer *core.Config) Config {
	return Config{
		Name: name,
		Fleet: &FleetSpec{
			Nodes:          4,
			HorizonPeriods: 80,
			QueueCap:       40,
			Scheduler:      scheduler,
			Policy:         policy,
			Arrivals:       consolidationArrivals(),
			DICER:          dicer,
		},
	}
}

// saturatingFleetConfig builds the ablation comparison shape: random
// placement over the saturating mix, per-node DICER with an optional
// controller override.
func saturatingFleetConfig(name string, dicer *core.Config) Config {
	cfg := fleetConfig(name, "random", experiments.DICER, dicer)
	cfg.Fleet.Arrivals = saturatingArrivals()
	return cfg
}

// controlFleetConfig builds a migration-grid configuration: the
// saturating stream-heavy mix over headroom placement — heavy enough
// that nodes actually burn their SLO budgets — with a canned node fault
// schedule layered on top and the SLO-burn migration loop toggled.
func controlFleetConfig(name, nodeChaos string, migrate bool) Config {
	cfg := fleetConfig(name, "headroom", experiments.DICER, nil)
	cfg.Fleet.Arrivals = saturatingArrivals()
	cfg.Fleet.NodeChaos = nodeChaos
	cfg.Fleet.Migration = migrate
	return cfg
}

// Registered returns the hypothesis registry: the claims EXPERIMENTS.md
// asserts (or used to assert from single seeded runs), declared as
// falsifiable multi-seed comparisons.
func Registered() []Hypothesis {
	noSampling := core.DefaultConfig()
	noSampling.DisableSaturationHandling = true

	return []Hypothesis{
		{
			Name:   "headroom-beats-random",
			Title:  "Headroom placement beats random on SLO conformance",
			Family: "Cross-scheduler comparative",
			Claim: "Under per-node DICER, bandwidth-headroom-aware placement keeps the rate " +
				"of HP SLO-violation node-periods below random placement on the same " +
				"open-loop stream-heavy arrival stream: keeping stream-heavy jobs off " +
				"nearly-saturated links protects the HPs. The single-seed fleet EFU edge " +
				"(0.450 vs 0.439 in EXPERIMENTS.md) rides along as an exploratory " +
				"endpoint — directionally positive but too small to resolve at this " +
				"replication level.",
			Seeds:      DefaultSeeds(DefaultSeedCount),
			Confidence: 0.95,
			Configs: []Config{
				fleetConfig("headroom", "headroom", experiments.DICER, nil),
				fleetConfig("random", "random", experiments.DICER, nil),
			},
			Comparisons: []Comparison{
				{
					Name:      "slo-violation-rate",
					Metric:    MetricSLOViolationRate,
					Treatment: "headroom",
					Control:   "random",
					Direction: Less,
					MinEffect: 0.005,
				},
				{
					Name:        "fleet-efu",
					Metric:      MetricFleetEFU,
					Treatment:   "headroom",
					Control:     "random",
					Direction:   Greater,
					MinEffect:   0.003,
					Exploratory: true,
				},
			},
		},
		{
			Name:   "policy-ordering-survives-consolidation",
			Family: "Cross-policy comparative",
			Title:  "UM > DICER > CT fleet-EFU ordering survives consolidation",
			Claim: "The single-node policy ordering survives cluster-scale consolidation: " +
				"unmanaged nodes run hottest (highest fleet EFU) but violate the HP SLO far " +
				"more often than DICER nodes, while DICER recovers utilisation over " +
				"cache-takeover at every seed — UM > DICER > CT on fleet EFU with " +
				"UM-violations > DICER-violations.",
			Seeds:      DefaultSeeds(DefaultSeedCount),
			Confidence: 0.95,
			Configs: []Config{
				fleetConfig("um", "headroom", experiments.UM, nil),
				fleetConfig("ct", "headroom", experiments.CT, nil),
				fleetConfig("dicer", "headroom", experiments.DICER, nil),
			},
			Comparisons: []Comparison{
				{
					Name:      "efu-um-over-dicer",
					Metric:    MetricFleetEFU,
					Treatment: "um",
					Control:   "dicer",
					Direction: Greater,
					MinEffect: 0.01,
				},
				{
					Name:      "efu-dicer-over-ct",
					Metric:    MetricFleetEFU,
					Treatment: "dicer",
					Control:   "ct",
					Direction: Greater,
					MinEffect: 0.01,
				},
				{
					Name:      "violations-dicer-under-um",
					Metric:    MetricSLOViolationRate,
					Treatment: "dicer",
					Control:   "um",
					Direction: Less,
					MinEffect: 0.05,
				},
			},
		},
		{
			Name:   "chaos-soak-degradation-bound",
			Family: "Robustness bound",
			Title:  "Chaos-soak HP degradation stays under the 35% bound",
			Claim: "Under the combined \"storm\" fault schedule (counter dropout, freezes, " +
				"jitter, write rejection, delayed actuation), the DICER loop's worst HP IPC " +
				"degradation relative to the fault-free run stays below the soak harness's " +
				"35% bound across the soak workloads, with at least a 5-point margin.",
			Seeds:      DefaultSeeds(DefaultSeedCount),
			Confidence: 0.95,
			Configs: []Config{{
				Name: "storm-soak",
				Soak: &SoakSpec{Schedule: "storm"},
			}},
			Comparisons: []Comparison{{
				Name:      "hp-degradation-bound",
				Metric:    MetricHPDegradation,
				Treatment: "storm-soak",
				Baseline:  0.35,
				Direction: Less,
				MinEffect: 0.05,
			}},
		},
		{
			Name:   "sampling-slo-benefit",
			Family: "Ablation comparative",
			Title:  "Saturation sampling lowers the fleet SLO-violation rate",
			Claim: "On a saturating stream-heavy fleet mix (random placement, so links do " +
				"cross the knee), DICER's bandwidth-saturation sampling (vs the " +
				"no-saturation-handling ablation that keeps resetting to CT-like wide HP " +
				"partitions) lowers the rate of HP SLO-violation node-periods — the naive " +
				"transfer of the paper's single-node QoS story to cluster scale.",
			Seeds:      DefaultSeeds(DefaultSeedCount),
			Confidence: 0.95,
			Configs: []Config{
				saturatingFleetConfig("sampling", nil),
				saturatingFleetConfig("no-sampling", &noSampling),
			},
			Comparisons: []Comparison{{
				Name:      "slo-violation-rate",
				Metric:    MetricSLOViolationRate,
				Treatment: "sampling",
				Control:   "no-sampling",
				Direction: Less,
				MinEffect: 0,
			}},
		},
		{
			Name:   "sampling-utilisation-recovery",
			Family: "Ablation comparative",
			Title:  "Saturation sampling recovers fleet utilisation under saturating load",
			Claim: "What the saturation machinery actually buys at cluster scale is " +
				"utilisation, not SLO conformance: on the same saturating mix, the sampled " +
				"operating point holds markedly higher fleet EFU than the ablation, which " +
				"keeps resetting to CT's wide HP partition and strands BE throughput — " +
				"mirroring the single-node ablation (EXPERIMENTS.md), where removing " +
				"sampling nudges SLO90 up but costs geomean EFU.",
			Seeds:      DefaultSeeds(DefaultSeedCount),
			Confidence: 0.95,
			Configs: []Config{
				saturatingFleetConfig("sampling", nil),
				saturatingFleetConfig("no-sampling", &noSampling),
			},
			Comparisons: []Comparison{{
				Name:      "fleet-efu",
				Metric:    MetricFleetEFU,
				Treatment: "sampling",
				Control:   "no-sampling",
				Direction: Greater,
				MinEffect: 0.02,
			}},
		},
		{
			Name:   "migration-beats-static",
			Family: "Control-loop comparative",
			Title:  "SLO-burn BE migration beats a static fleet under node chaos",
			Claim: "On a saturating stream-heavy mix with node faults injected (freeze-only " +
				"and combined freeze+loss storms), the SLO-burn migration loop — multi-window " +
				"burn-rate alerts evicting BE jobs off burning nodes through the bounded-retry " +
				"placement path, with cooldown and quarantine hysteresis — lowers the rate of " +
				"HP SLO-violation node-periods versus the same fleet with the loop disabled, " +
				"on the same arrival trace and fault stream. Fleet EFU rides along as an " +
				"exploratory endpoint: migration shuffles BE work, it should not strand it.",
			Seeds:      DefaultSeeds(8),
			Confidence: 0.95,
			Configs: []Config{
				controlFleetConfig("static-freeze", "node-freeze", false),
				controlFleetConfig("migrate-freeze", "node-freeze", true),
				controlFleetConfig("static-storm", "node-storm", false),
				controlFleetConfig("migrate-storm", "node-storm", true),
			},
			Comparisons: []Comparison{
				{
					Name:      "slo-violation-rate-freeze",
					Metric:    MetricSLOViolationRate,
					Treatment: "migrate-freeze",
					Control:   "static-freeze",
					Direction: Less,
					MinEffect: 0,
				},
				{
					Name:      "slo-violation-rate-storm",
					Metric:    MetricSLOViolationRate,
					Treatment: "migrate-storm",
					Control:   "static-storm",
					Direction: Less,
					MinEffect: 0,
				},
				{
					Name:        "fleet-efu-storm",
					Metric:      MetricFleetEFU,
					Treatment:   "migrate-storm",
					Control:     "static-storm",
					Direction:   Greater,
					MinEffect:   0,
					Exploratory: true,
				},
			},
		},
		{
			Name:   "clustering-beats-naive-spill",
			Family: "Consolidation comparative",
			Title:  "LFOC-style clustering beats naive per-app spill on worst-app fairness",
			Claim: "Consolidating more HP applications than the hardware has CLOS ids " +
				"(M=20 under 16), the clustered plan — similarity grouping over miss-ratio " +
				"curves with contention-aware way allocation — holds a lower worst-app " +
				"slowdown than the naive baseline practitioners actually deploy: one CLOS " +
				"per app in arrival order until the ids run out, the rest spilled into the " +
				"last partition. Eight workload draws, paired per seed; Eq. 1 EFU rides " +
				"along as an exploratory endpoint (the fairness gain should not cost " +
				"utilisation).",
			Seeds:      DefaultSeeds(8),
			Confidence: 0.95,
			Configs: []Config{
				{Name: "clustered", MultiHP: &experiments.MultiHPSpec{
					M: 20, BECount: 2, CLOSBudget: 16,
				}},
				{Name: "per-app-spill", MultiHP: &experiments.MultiHPSpec{
					M: 20, BECount: 2, CLOSBudget: 16, Grouping: core.GroupingSpill,
				}},
			},
			Comparisons: []Comparison{
				{
					Name:      "max-slowdown",
					Metric:    MetricMaxSlowdown,
					Treatment: "clustered",
					Control:   "per-app-spill",
					Direction: Less,
					MinEffect: 0.05,
				},
				{
					Name:        "consolidation-efu",
					Metric:      MetricConsolidationEFU,
					Treatment:   "clustered",
					Control:     "per-app-spill",
					Direction:   Greater,
					MinEffect:   0,
					Exploratory: true,
				},
			},
		},
		{
			Name:   "phase-hints-recluster",
			Family: "Consolidation comparative",
			Title:  "Phase-hinted re-clustering beats reactive-only on SLO conformance",
			Claim: "When the multi-HP controller re-plans its grouping periodically, " +
				"compiler-style phase hints (the upcoming phase's miss-ratio curve exposed " +
				"to the planner shortly before the transition, Com-CAS style) raise the " +
				"fraction of HP apps meeting their SLO over the reactive-only re-planner " +
				"that only ever sees the current phase. This is the naive transfer of the " +
				"phase-hint story to consolidation scale; the worst-app slowdown rides " +
				"along as an exploratory endpoint.",
			Seeds:      DefaultSeeds(8),
			Confidence: 0.95,
			Configs: []Config{
				{Name: "hinted", MultiHP: &experiments.MultiHPSpec{
					M: 18, BECount: 2, CLOSBudget: 16,
					ReclusterEvery: 10, UsePhaseHints: true,
				}},
				{Name: "reactive", MultiHP: &experiments.MultiHPSpec{
					M: 18, BECount: 2, CLOSBudget: 16,
					ReclusterEvery: 10,
				}},
			},
			Comparisons: []Comparison{
				{
					Name:      "slo-conformance",
					Metric:    MetricSLOConformance,
					Treatment: "hinted",
					Control:   "reactive",
					Direction: Greater,
					MinEffect: 0,
				},
				{
					Name:        "max-slowdown",
					Metric:      MetricMaxSlowdown,
					Treatment:   "hinted",
					Control:     "reactive",
					Direction:   Less,
					MinEffect:   0,
					Exploratory: true,
				},
			},
		},
	}
}

// ByName looks up a registered hypothesis.
func ByName(name string) (Hypothesis, error) {
	for _, h := range Registered() {
		if h.Name == name {
			return h, nil
		}
	}
	return Hypothesis{}, fmt.Errorf("hypo: unknown hypothesis %q (see Registered)", name)
}
