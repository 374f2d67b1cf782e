// dicer-sim runs one consolidation scenario under a chosen co-location
// policy and prints a per-period timeline plus the summary metrics.
//
// Usage:
//
//	dicer-sim -hp milc1 -be gcc_base1 -n 9 -policy dicer -trace
//	dicer-sim -hp omnetpp1 -be lbm1 -n 5 -policy static:8
//	dicer-sim -hp milc1 -be gcc_base1 -policy dicer+mba
//	dicer-sim -hp omnetpp1 -be gcc_base1 -chaos storm -chaos-seed 7 -guard
//	dicer-sim -hp milc1 -be gcc_base1 -periods 60 -trace-out trace.jsonl
//
// -trace-out records a replayable JSONL trace of the run; dicer-trace
// replays and analyzes it.
package main

import (
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run parses the command line in args and runs the scenario once,
// printing to stdout, or loops it behind the -serve endpoints.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dicer-sim", flag.ExitOnError)
	var (
		hp         = fs.String("hp", "milc1", "high-priority application (catalog name)")
		be         = fs.String("be", "gcc_base1", "best-effort application (catalog name)")
		n          = fs.Int("n", 9, "number of BE instances")
		polName    = fs.String("policy", "dicer", "um | ct | static:<ways> | dicer | dicer+mba | dicer+bemgr | heracles:<slo>")
		periods    = fs.Int("periods", 120, "monitoring periods to simulate")
		trace      = fs.Bool("trace", false, "print DICER controller decisions")
		every      = fs.Int("every", 10, "print a timeline row every N periods (0 = none)")
		timeline   = fs.String("timeline", "", "write a per-period CSV timeline to this file")
		chaosN     = fs.String("chaos", "none", "fault schedule: none | "+strings.Join(chaosNames(), " | "))
		chaosS     = fs.Int64("chaos-seed", 1, "seed for the chaos fault stream (replays bit-identically)")
		guard      = fs.Bool("guard", false, "machine-check controller invariants after every period")
		traceOut   = fs.String("trace-out", "", "write a replayable JSONL trace of the run to this file")
		serveAddr  = fs.String("serve", "", "loop the scenario and serve /metrics, /trace, /alerts, /events and /healthz on this address (e.g. :9090)")
		slo        = fs.Float64("slo", 0.9, "HP SLO as a fraction of alone performance (drives the burn-rate alerter and the trace header)")
		pprofOn    = fs.Bool("pprof", false, "with -serve: also expose /debug/pprof/ profiling endpoints")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
	)
	fs.Parse(args) // ExitOnError: exits 2 on a bad flag, 0 on -h

	if *serveAddr != "" {
		// Returns on graceful shutdown (SIGINT/SIGTERM).
		return runServe(*serveAddr, serveParams{
			hp: *hp, be: *be, n: *n, periods: *periods, policy: *polName,
			chaosName: *chaosN, chaosSeed: *chaosS, guard: *guard,
			slo: *slo, pprof: *pprofOn,
		})
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	pol, ctl, withMBA, err := buildPolicy(*polName, *hp)
	if err != nil {
		return err
	}
	if *trace && ctl != nil {
		ctl.Trace = func(e dicer.ControllerEvent) {
			fmt.Fprintf(stdout, "  [p%03d %-8s] %-12s hpWays=%2d hpIPC=%.3f totalBW=%.1f Gbps\n",
				e.Period, e.State, e.Kind, e.HPWays, e.HPIPC, e.TotalBW)
		}
	}

	sc, err := buildScenario(*hp, *be, *n, *periods, *guard, *chaosN, *chaosS)
	if err != nil {
		return err
	}
	sc.WithMBA = withMBA
	if *slo > 0 {
		sc.HPs[0].SLO = *slo
	}
	var traceFile *os.File
	var traceSink *dicer.TraceJSONL
	if *traceOut != "" {
		if traceFile, err = os.Create(*traceOut); err != nil {
			return err
		}
		defer traceFile.Close()
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
			fmt.Fprintf(stdout, "t=%3ds hpIPC=%.3f beIPC=%.3f hpBW=%5.1f totBW=%5.1f Gbps\n",
				period, p.ClosMeanIPC(policy.HPClos), p.ClosMeanIPC(policy.BEClos),
				p.GroupBW(policy.HPClos), p.TotalGbps)
		}
	}

	fmt.Fprintf(stdout, "scenario: %s (HP) + %dx %s (BEs), policy %s, %d periods\n\n",
		*hp, *n, *be, pol.Name(), *periods)
	res, err := sc.Run(pol)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nresults (%s):\n", res.PolicyName)
	fmt.Fprintf(stdout, "  HP IPC            %.3f (alone %.3f, normalised %.3f, slowdown %.3fx)\n",
		res.Apps[0].IPC, res.Apps[0].AloneIPC, res.HPNorm(), res.HPSlowdown())
	be0 := res.BEIPCs[0]
	fmt.Fprintf(stdout, "  BE IPC            %.3f (alone %.3f, normalised %.3f)\n",
		be0, res.BEAloneIPCs[0], res.BENorms()[0])
	fmt.Fprintf(stdout, "  effective util    %.3f\n", res.EFU())
	for _, slo := range []float64{0.80, 0.85, 0.90, 0.95} {
		status := "MISSED"
		if res.SLOAchieved(slo) {
			status = "met"
		}
		fmt.Fprintf(stdout, "  SLO %.0f%%           %s (SUCI@1: %.3f)\n", slo*100, status, res.SUCI(slo, 1))
	}
	fmt.Fprintf(stdout, "  final HP ways     %d\n", res.FinalHPWays)
	if sc.Chaos != nil {
		fmt.Fprintf(stdout, "  chaos             %s seed=%d: %s\n", sc.Chaos.Name, sc.ChaosSeed, res.ChaosStats)
		fmt.Fprintf(stdout, "  tolerated faults  %d\n", res.ToleratedFaults)
	}

	if tl != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tl.WriteCSV(f); err != nil {
			return err
		}
		lo, hi := tl.MinMaxHPWays()
		fmt.Fprintf(stdout, "  timeline          %s (%d periods, HP ways ranged %d..%d)\n",
			*timeline, len(tl.Entries), lo, hi)
	}
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  trace             %s (verify with: dicer-trace replay %s)\n",
			*traceOut, *traceOut)
	}
	return nil
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
