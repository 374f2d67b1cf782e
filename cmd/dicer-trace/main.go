// dicer-trace works with recorded JSONL controller traces: it captures
// them from simulated runs and re-drives a fresh controller from the
// recorded inputs, verifying decision-for-decision equivalence — every
// trace file doubles as a regression test.
//
// Usage:
//
//	dicer-trace record -hp milc1 -be gcc_base1 -n 9 -periods 60 -o trace.jsonl
//	dicer-trace record -hp omnetpp1 -be gcc_base1 -chaos delayed-actuation -chaos-seed 7 -o chaos.jsonl
//	dicer-trace replay trace.jsonl
//	dicer-trace analyze trace.jsonl
//	dicer-trace analyze -json cluster.jsonl
//	dicer-trace alerts trace.jsonl
//	dicer-trace explain incident-000-p0047-n001-slo-burn.jsonl
//
// replay exits non-zero on the first divergence between the trace and
// the re-driven controller (or on a structurally unreplayable trace).
// analyze/summary/alerts run the offline diagnostic engine — the same
// histogram and burn-rate alerter code behind the live /metrics and
// /alerts endpoints — over a recorded single-node or fleet trace.
// explain runs the causal forensics engine over an incident bundle
// dumped by the fleet flight recorder (dicer-fleet -forensics).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"dicer"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = runRecord(os.Args[2:], os.Stdout)
	case "replay":
		err = runReplay(os.Args[2:], os.Stdout)
	case "analyze":
		err = runAnalyze(os.Args[2:], os.Stdout)
	case "summary":
		err = runSummary(os.Args[2:], os.Stdout)
	case "alerts":
		err = runAlerts(os.Args[2:], os.Stdout)
	case "explain":
		err = runExplain(os.Args[2:], os.Stdout)
	case "-h", "--help", "help":
		usage()
		return
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dicer-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  dicer-trace record -hp <app> -be <app> [-n N] [-periods N] [-policy P] [-chaos S -chaos-seed N] -o <file>
  dicer-trace replay <file>
  dicer-trace analyze [-slo F] [-alone-ipc F] [-json] <file>   full diagnostic report (single-node or fleet trace)
  dicer-trace summary [-json] <file>                           percentile table only
  dicer-trace alerts  [-json] <file>                           burn-rate alert timeline only
  dicer-trace explain [-json] <bundle>                         causal root-cause report over an incident bundle`)
}

// runRecord runs one scenario with a JSONL trace sink attached.
func runRecord(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	var (
		hp      = fs.String("hp", "milc1", "high-priority application (catalog name)")
		be      = fs.String("be", "gcc_base1", "best-effort application (catalog name)")
		n       = fs.Int("n", 9, "number of BE instances")
		periods = fs.Int("periods", 60, "monitoring periods to simulate")
		polName = fs.String("policy", "dicer", "um | ct | static:<ways> | dicer")
		chaosN  = fs.String("chaos", "none", "fault schedule name (none = fault-free)")
		chaosS  = fs.Int64("chaos-seed", 1, "seed for the chaos fault stream")
		guard   = fs.Bool("guard", false, "machine-check controller invariants after every period")
		out     = fs.String("o", "", "output trace file (required)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("record: -o <file> is required")
	}
	pol, err := tracePolicy(*polName)
	if err != nil {
		return err
	}
	sc := dicer.NewScenario(*hp, *be, *n)
	sc.HorizonPeriods = *periods
	sc.CheckInvariants = *guard
	if *chaosN != "none" && *chaosN != "" {
		cfg, err := dicer.ChaosScheduleByName(*chaosN)
		if err != nil {
			return err
		}
		sc.Chaos = &cfg
		sc.ChaosSeed = *chaosS
	}

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	jl := dicer.NewTraceJSONL(f)
	sc.Trace = jl
	if _, err := sc.Run(pol); err != nil {
		f.Close()
		return err
	}
	if err := jl.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d periods of %s (HP %s + %dx %s) to %s\n",
		*periods, pol.Name(), *hp, *n, *be, *out)
	return nil
}

// runReplay re-drives the controller from a trace file and verifies it.
func runReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("replay: exactly one trace file expected")
	}
	path := fs.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, recs, err := dicer.ReadTrace(f)
	if err != nil {
		return err
	}
	res, err := dicer.ReplayTrace(h, recs)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	masks := "decisions only (trace recorded under chaos)"
	if res.MasksVerified {
		masks = "decisions and installed masks"
	}
	fmt.Fprintf(stdout, "%s: OK — %d periods, %d decisions over %d HP group(s) and %d re-plan(s) replayed identically (%s)\n",
		path, res.Periods, res.Decisions, res.Groups, res.Replans, masks)
	return nil
}

// tracePolicy parses the -policy flag; only policies whose decisions a
// trace captures are offered (extensions record fine through dicer-sim).
func tracePolicy(name string) (dicer.Policy, error) {
	switch {
	case name == "um":
		return dicer.Unmanaged(), nil
	case name == "ct":
		return dicer.CacheTakeover(), nil
	case strings.HasPrefix(name, "static:"):
		ways, err := strconv.Atoi(strings.TrimPrefix(name, "static:"))
		if err != nil {
			return nil, fmt.Errorf("bad static way count in %q", name)
		}
		return dicer.StaticPartition(ways), nil
	case name == "dicer":
		return dicer.NewDICER(), nil
	}
	return nil, fmt.Errorf("unknown policy %q", name)
}
