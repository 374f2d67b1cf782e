// Multi-HP consolidation under a CLOS budget: 20 latency-critical apps
// + 2 best-effort apps on a 22-core socket whose CAT hardware exposes
// only 16 CLOS ids. Per-app partitioning is infeasible (20 apps with
// 1-way floors exceed the 19 movable ways), so the controller clusters
// similar-sensitivity apps into shared partitions and runs one DICER
// state machine per group. The clustered plan is compared against the
// naive deployment baseline — one CLOS per app in arrival order, the
// overflow spilled into the last partition — on worst-app slowdown,
// per-app SLO conformance, and Eq. 1 EFU.
package main

import (
	"flag"
	"fmt"
	"log"

	"dicer"
)

func run(grouping string, periods int) (dicer.ScenarioResult, error) {
	// A bigger socket than the paper's: 22 cores, memory link scaled to
	// keep per-core bandwidth constant, so the LLC stays the contended
	// resource the grouping is judged on.
	m := dicer.DefaultMachine()
	need := 22
	m.Link.CapacityGBps *= float64(need) / float64(m.Cores)
	m.Cores = need

	gcc, err := dicer.AppByName("gcc_base1")
	if err != nil {
		return dicer.ScenarioResult{}, err
	}
	sc := dicer.Scenario{
		Machine:        m,
		BEs:            []dicer.Profile{gcc, gcc},
		Grouping:       grouping,
		HorizonPeriods: periods,
	}
	for _, p := range dicer.Catalog()[:20] {
		sc.HPs = append(sc.HPs, dicer.HPApp{Profile: p, SLO: 0.9})
	}
	return sc.Run(nil) // nil: the scenario's own grouped DICER
}

func main() {
	periods := flag.Int("periods", 120, "monitoring periods to simulate")
	flag.Parse()
	for _, grouping := range []string{dicer.GroupingClustered, dicer.GroupingSpill} {
		res, err := run(grouping, *periods)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s groups %2d  worst slowdown %.3f  SLO conf %3.0f%%  EFU %.3f\n",
			grouping, res.NumGroups(), res.MaxSlowdown(), 100*res.SLOConformance(), res.EFU())
	}
}
