// Extensions: the paper's §6 future-work items, implemented and compared.
//
// The workload is deliberately hostile to pure cache partitioning: a
// bandwidth-bound HP (lbm) with nine bandwidth-bound BEs (libquantum).
// No LLC allocation can protect lbm here — the memory link is the
// bottleneck — so plain DICER can only find the least-bad partition.
// The two §6 extensions attack the link directly:
//
//   - DICER+MBA throttles the best-effort class's memory bandwidth with
//     an AIMD loop until the link leaves saturation;
//
//   - DICER+BEMGR parks best-effort cores one at a time (thread packing)
//     while saturation persists, and unparks them when headroom returns.
//
//     go run ./examples/extensions
package main

import (
	"flag"
	"fmt"
	"log"

	"dicer"
	"dicer/internal/ext"
)

func main() {
	periods := flag.Int("periods", 120, "monitoring periods to simulate")
	flag.Parse()

	cfg := dicer.DefaultControllerConfig()

	mba, err := ext.NewDicerMBA(cfg)
	if err != nil {
		log.Fatal(err)
	}
	bemgrInner := dicer.NewDICER()
	bemgr, err := ext.NewBEManager(bemgrInner, cfg.BWThresholdGbps)
	if err != nil {
		log.Fatal(err)
	}

	type variant struct {
		name    string
		pol     dicer.Policy
		wantMBA bool
	}
	variants := []variant{
		{"DICER (plain)", dicer.NewDICER(), false},
		{"DICER+MBA", mba, true},
		{"DICER+BEMGR", bemgr, false},
	}

	fmt.Println("lbm (HP, bandwidth-bound) + 9x libquantum (BEs, bandwidth-bound)")
	fmt.Println()
	fmt.Printf("%-14s %9s %9s %8s\n", "variant", "HP norm", "BE norm", "EFU")
	for _, v := range variants {
		sc := dicer.NewScenario("lbm1", "libquantum1", 9)
		sc.HorizonPeriods = *periods
		sc.WithMBA = v.wantMBA
		res, err := sc.Run(v.pol)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %9.3f %9.3f %8.3f\n",
			v.name, res.HPNorm(), res.BENorms()[0], res.EFU())
	}
	fmt.Println()
	fmt.Printf("BE manager parked %d of 9 best-effort cores at the end of its run.\n",
		bemgr.ParkedBEs())
	fmt.Printf("MBA loop settled on a best-effort cap of %.1f Gbps.\n", mba.BECapGbps())
	fmt.Println()
	fmt.Println("Both extensions trade best-effort throughput for HP protection that")
	fmt.Println("cache partitioning alone cannot provide on a saturated memory link.")
}
