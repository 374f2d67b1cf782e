// dicer-trace works with recorded JSONL controller traces (record one
// with dicer-sim -trace-out): it re-drives a fresh controller from the
// recorded inputs, verifying decision-for-decision equivalence — every
// trace file doubles as a regression test.
//
// Usage:
//
//	dicer-sim -hp milc1 -be gcc_base1 -n 9 -periods 60 -trace-out trace.jsonl
//	dicer-trace replay trace.jsonl
//	dicer-trace analyze trace.jsonl
//	dicer-trace analyze -json cluster.jsonl
//	dicer-trace explain incident-000-p0047-n001-slo-burn.jsonl
//
// replay exits non-zero on the first divergence between the trace and
// the re-driven controller (or on a structurally unreplayable trace).
// analyze runs the offline diagnostic engine — the same histogram and
// burn-rate alerter code behind the live /metrics and /alerts
// endpoints — over a recorded single-node or fleet trace.
// explain runs the causal forensics engine over an incident bundle
// dumped by the fleet flight recorder (dicer-fleet -forensics).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dicer"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "replay":
		err = runReplay(os.Args[2:], os.Stdout)
	case "analyze":
		err = runAnalyze(os.Args[2:], os.Stdout)
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
  dicer-trace replay <file>                                    re-drive the controller a trace recorded (dicer-sim -trace-out)
  dicer-trace analyze [-slo F] [-alone-ipc F] [-json] <file>   diagnostic report (single-node or fleet trace)
  dicer-trace explain [-json] <bundle>                         causal root-cause report over an incident bundle`)
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
