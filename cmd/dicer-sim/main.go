// dicer-sim runs one consolidation scenario under a chosen co-location
// policy and prints a per-period timeline plus the summary metrics.
//
// Usage:
//
//	dicer-sim -hp milc1 -be gcc_base1 -n 9 -policy dicer -trace
//	dicer-sim -hp omnetpp1 -be lbm1 -n 5 -policy static:8
//	dicer-sim -hp milc1 -be gcc_base1 -policy dicer+mba
//	dicer-sim -hp omnetpp1 -be gcc_base1 -chaos storm -chaos-seed 7 -guard
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"dicer"
	"dicer/internal/core"
	"dicer/internal/ext"
	"dicer/internal/policy"
)

func main() {
	var (
		hp         = flag.String("hp", "milc1", "high-priority application (catalog name)")
		be         = flag.String("be", "gcc_base1", "best-effort application (catalog name)")
		n          = flag.Int("n", 9, "number of BE instances")
		polName    = flag.String("policy", "dicer", "um | ct | static:<ways> | dicer | dicer+mba | dicer+bemgr | heracles:<slo>")
		periods    = flag.Int("periods", 120, "monitoring periods to simulate")
		trace      = flag.Bool("trace", false, "print DICER controller decisions")
		every      = flag.Int("every", 10, "print a timeline row every N periods (0 = none)")
		timeline   = flag.String("timeline", "", "write a per-period CSV timeline to this file")
		chaosN     = flag.String("chaos", "none", "fault schedule: none | "+strings.Join(chaosNames(), " | "))
		chaosS     = flag.Int64("chaos-seed", 1, "seed for the chaos fault stream (replays bit-identically)")
		guard      = flag.Bool("guard", false, "machine-check controller invariants after every period")
		traceOut   = flag.String("trace-out", "", "write a replayable JSONL trace of the run to this file")
		serveAddr  = flag.String("serve", "", "loop the scenario and serve /metrics, /trace, /alerts, /events and /healthz on this address (e.g. :9090)")
		slo        = flag.Float64("slo", 0.9, "HP SLO as a fraction of alone performance (drives the burn-rate alerter and the trace header)")
		pprofOn    = flag.Bool("pprof", false, "with -serve: also expose /debug/pprof/ profiling endpoints")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	if *serveAddr != "" {
		err := runServe(*serveAddr, serveParams{
			hp: *hp, be: *be, n: *n, periods: *periods, policy: *polName,
			chaosName: *chaosN, chaosSeed: *chaosS, guard: *guard,
			slo: *slo, pprof: *pprofOn,
		})
		if err != nil {
			fatal(err)
		}
		return // graceful shutdown (SIGINT/SIGTERM)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	pol, ctl, withMBA, err := buildPolicy(*polName, *hp)
	if err != nil {
		fatal(err)
	}
	if *trace && ctl != nil {
		ctl.Trace = func(e dicer.ControllerEvent) {
			fmt.Printf("  [p%03d %-8s] %-12s hpWays=%2d hpIPC=%.3f totalBW=%.1f Gbps\n",
				e.Period, e.State, e.Kind, e.HPWays, e.HPIPC, e.TotalBW)
		}
	}

	sc, err := buildScenario(*hp, *be, *n, *periods, *guard, *chaosN, *chaosS)
	if err != nil {
		fatal(err)
	}
	sc.WithMBA = withMBA
	if *slo > 0 {
		sc.HPs[0].SLO = *slo
	}
	var traceFile *os.File
	var traceSink *dicer.TraceJSONL
	if *traceOut != "" {
		if traceFile, err = os.Create(*traceOut); err != nil {
			fatal(err)
		}
		traceSink = dicer.NewTraceJSONL(traceFile)
		sc.Trace = traceSink
	}
	var tl *dicer.Timeline
	if *timeline != "" {
		tl = &dicer.Timeline{}
		sc.AttachTimeline(tl)
	} else if *every > 0 {
		sc.OnPeriod = func(period int, p dicer.Period) {
			if period%*every != 0 {
				return
			}
			fmt.Printf("t=%3ds hpIPC=%.3f beIPC=%.3f hpBW=%5.1f totBW=%5.1f Gbps\n",
				period, p.ClosMeanIPC(policy.HPClos), p.ClosMeanIPC(policy.BEClos),
				p.GroupBW(policy.HPClos), p.TotalGbps)
		}
	}

	fmt.Printf("scenario: %s (HP) + %dx %s (BEs), policy %s, %d periods\n\n",
		*hp, *n, *be, pol.Name(), *periods)
	res, err := sc.Run(pol)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("\nresults (%s):\n", res.PolicyName)
	fmt.Printf("  HP IPC            %.3f (alone %.3f, normalised %.3f, slowdown %.3fx)\n",
		res.Apps[0].IPC, res.Apps[0].AloneIPC, res.HPNorm(), res.HPSlowdown())
	be0 := res.BEIPCs[0]
	fmt.Printf("  BE IPC            %.3f (alone %.3f, normalised %.3f)\n",
		be0, res.BEAloneIPCs[0], res.BENorms()[0])
	fmt.Printf("  effective util    %.3f\n", res.EFU())
	for _, slo := range []float64{0.80, 0.85, 0.90, 0.95} {
		status := "MISSED"
		if res.SLOAchieved(slo) {
			status = "met"
		}
		fmt.Printf("  SLO %.0f%%           %s (SUCI@1: %.3f)\n", slo*100, status, res.SUCI(slo, 1))
	}
	fmt.Printf("  final HP ways     %d\n", res.FinalHPWays)
	if sc.Chaos != nil {
		fmt.Printf("  chaos             %s seed=%d: %s\n", sc.Chaos.Name, sc.ChaosSeed, res.ChaosStats)
		fmt.Printf("  tolerated faults  %d\n", res.ToleratedFaults)
	}

	if tl != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tl.WriteCSV(f); err != nil {
			fatal(err)
		}
		lo, hi := tl.MinMaxHPWays()
		fmt.Printf("  timeline          %s (%d periods, HP ways ranged %d..%d)\n",
			*timeline, len(tl.Entries), lo, hi)
	}
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("  trace             %s (verify with: dicer-trace replay %s)\n",
			*traceOut, *traceOut)
	}
}

// buildScenario constructs the scenario the flags describe; trace and
// timeline wiring is left to the caller. Shared by the one-shot path and
// the -serve loop.
func buildScenario(hp, be string, n, periods int, guard bool, chaosName string, chaosSeed int64) (*dicer.Scenario, error) {
	if _, err := dicer.AppByName(hp); err != nil {
		return nil, err
	}
	if _, err := dicer.AppByName(be); err != nil {
		return nil, err
	}
	sc := dicer.NewScenario(hp, be, n)
	sc.HorizonPeriods = periods
	sc.CheckInvariants = guard
	if chaosName != "none" && chaosName != "" {
		cfg, err := dicer.ChaosScheduleByName(chaosName)
		if err != nil {
			return nil, err
		}
		sc.Chaos = &cfg
		sc.ChaosSeed = chaosSeed
	}
	return sc, nil
}

// buildPolicy parses the -policy flag. hpName is needed for controllers
// that require the HP's alone-run reference (heracles).
func buildPolicy(name, hpName string) (dicer.Policy, *core.Controller, bool, error) {
	switch {
	case name == "um":
		return dicer.Unmanaged(), nil, false, nil
	case name == "ct":
		return dicer.CacheTakeover(), nil, false, nil
	case strings.HasPrefix(name, "static:"):
		ways, err := strconv.Atoi(strings.TrimPrefix(name, "static:"))
		if err != nil {
			return nil, nil, false, fmt.Errorf("bad static way count in %q", name)
		}
		return dicer.StaticPartition(ways), nil, false, nil
	case name == "dicer":
		ctl := dicer.NewDICER()
		return ctl, ctl, false, nil
	case name == "dicer+mba":
		cfg := dicer.DefaultControllerConfig()
		d, err := ext.NewDicerMBA(cfg)
		if err != nil {
			return nil, nil, false, err
		}
		return d, d.Controller(), true, nil
	case strings.HasPrefix(name, "heracles:"):
		slo, err := strconv.ParseFloat(strings.TrimPrefix(name, "heracles:"), 64)
		if err != nil {
			return nil, nil, false, fmt.Errorf("bad heracles SLO in %q", name)
		}
		prof, err := dicer.AppByName(hpName)
		if err != nil {
			return nil, nil, false, err
		}
		ref, err := dicer.AloneIPC(dicer.Machine{}, prof)
		if err != nil {
			return nil, nil, false, err
		}
		h, err := ext.NewHeracles(ref, slo)
		if err != nil {
			return nil, nil, false, err
		}
		return h, nil, false, nil
	case name == "dicer+bemgr":
		cfg := dicer.DefaultControllerConfig()
		ctl := dicer.NewDICER()
		mgr, err := ext.NewBEManager(ctl, cfg.BWThresholdGbps)
		if err != nil {
			return nil, nil, false, err
		}
		return mgr, ctl, false, nil
	}
	return nil, nil, false, fmt.Errorf("unknown policy %q", name)
}

// chaosNames lists the canned fault schedules for the -chaos flag help.
func chaosNames() []string {
	var names []string
	for _, c := range dicer.ChaosSchedules() {
		names = append(names, c.Name)
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dicer-sim:", err)
	os.Exit(1)
}
