package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dicer"
)

// analyzeFlags are shared by analyze, summary and alerts: the three
// subcommands run the same offline engine and print different slices of
// its report.
type analyzeFlags struct {
	fs       *flag.FlagSet
	slo      *float64
	aloneIPC *float64
	jsonOut  *bool
}

func newAnalyzeFlags(name string) analyzeFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return analyzeFlags{
		fs:       fs,
		slo:      fs.Float64("slo", 0, "override the trace header's SLO target (fraction of alone performance)"),
		aloneIPC: fs.Float64("alone-ipc", 0, "override the HP alone-run reference IPC (single-node traces)"),
		jsonOut:  fs.Bool("json", false, "emit the report as JSON instead of text"),
	}
}

// report parses args, runs the engine over the one trace-file argument
// and returns the report.
func (a analyzeFlags) report(args []string) (*dicer.DiagReport, error) {
	if err := a.fs.Parse(args); err != nil {
		return nil, err
	}
	if a.fs.NArg() != 1 {
		return nil, fmt.Errorf("%s: exactly one trace file expected", a.fs.Name())
	}
	f, err := os.Open(a.fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dicer.AnalyzeTrace(f, dicer.DiagAnalyzeOptions{
		SLO:      *a.slo,
		AloneIPC: *a.aloneIPC,
	})
}

// runAnalyze prints the full diagnostic report: percentile table,
// burn-rate timeline, decision causes, per-node outliers.
func runAnalyze(args []string, stdout io.Writer) error {
	a := newAnalyzeFlags("analyze")
	rep, err := a.report(args)
	if err != nil {
		return err
	}
	if *a.jsonOut {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	}
	rep.Render(stdout)
	return nil
}

// runSummary prints only the percentile table (the quick look).
func runSummary(args []string, stdout io.Writer) error {
	a := newAnalyzeFlags("summary")
	rep, err := a.report(args)
	if err != nil {
		return err
	}
	if *a.jsonOut {
		return writeJSONValue(stdout, rep.Metrics)
	}
	fmt.Fprintf(stdout, "%-30s %8s %9s %9s %9s %9s %9s\n",
		"metric", "count", "mean", "p50", "p90", "p99", "max")
	for _, s := range rep.Metrics {
		fmt.Fprintf(stdout, "%-30s %8d %9.4g %9.4g %9.4g %9.4g %9.4g\n",
			s.Name, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
	}
	return nil
}

// runAlerts prints only the burn-rate alert section: configuration,
// violation counts, every transition.
func runAlerts(args []string, stdout io.Writer) error {
	a := newAnalyzeFlags("alerts")
	rep, err := a.report(args)
	if err != nil {
		return err
	}
	if *a.jsonOut {
		return writeJSONValue(stdout, rep.Alert)
	}
	al := rep.Alert
	fmt.Fprintf(stdout, "budget %.3g, windows", al.Config.Budget)
	for _, bw := range al.Config.Windows {
		fmt.Fprintf(stdout, " %dp@%.3gx", bw.Periods, bw.Burn)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "violations %d/%d (rate %.4f)  fires %d  firing-periods %d\n",
		al.Violations, rep.Periods, al.ViolationRate, al.Fires, al.FiringPeriods)
	if len(al.Events) == 0 {
		fmt.Fprintln(stdout, "no alert transitions")
		return nil
	}
	for _, ev := range al.Events {
		state := "cleared"
		if ev.Firing {
			state = "FIRED"
		}
		fmt.Fprintf(stdout, "period %4d  %-7s  short-burn %.3f  long-burn %.3f\n",
			ev.Period, state, ev.ShortBurn, ev.LongBurn)
	}
	return nil
}

func writeJSONValue(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
