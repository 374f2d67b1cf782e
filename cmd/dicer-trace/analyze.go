package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dicer"
)

// runAnalyze runs the offline diagnostic engine over one trace file and
// prints the full report: percentile table, burn-rate timeline, decision
// causes, per-node outliers; with -json, the same report as JSON.
func runAnalyze(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		slo      = fs.Float64("slo", 0, "override the trace header's SLO target (fraction of alone performance)")
		aloneIPC = fs.Float64("alone-ipc", 0, "override the HP alone-run reference IPC (single-node traces)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("analyze: exactly one trace file expected")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := dicer.AnalyzeTrace(f, dicer.DiagAnalyzeOptions{SLO: *slo, AloneIPC: *aloneIPC})
	if err != nil {
		return err
	}
	if *jsonOut {
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
