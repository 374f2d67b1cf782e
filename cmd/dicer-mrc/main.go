// dicer-mrc inspects the workload catalog: per-application miss-ratio
// curves over LLC way allocations, footprints, and alone IPC.
//
// Usage:
//
//	dicer-mrc                  # one summary row per catalog application
//	dicer-mrc -app milc1       # full way-by-way curve for one application
package main

import (
	"flag"
	"fmt"
	"os"

	"dicer"
	"dicer/internal/app"
	"dicer/internal/machine"
	"dicer/internal/report"
	"dicer/internal/sim"
)

func main() {
	var (
		name = flag.String("app", "", "catalog application to detail (empty = summary of all)")
	)
	flag.Parse()

	m := machine.Default()
	alone := sim.NewAloneTable(m, 240, 0.25, false) // 60-s alone runs
	if *name != "" {
		detail(m, alone, *name)
		return
	}

	t := report.NewTable(
		fmt.Sprintf("catalog: %d applications on %s", len(dicer.Catalog()), experimentsSummary(m)),
		"Name", "Suite", "Class", "Phases", "Footprint MB", "APKI", "Alone IPC")
	for _, p := range dicer.Catalog() {
		t.AddRowf(p.Name, p.Suite, string(p.Class), len(p.Phases),
			p.MaxFootprint()/(1<<20), p.Phases[0].APKI, aloneIPC(alone, p, m.LLCWays))
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func detail(m machine.Machine, alone *sim.AloneTable, name string) {
	p, err := dicer.AppByName(name)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s (%s, %s): %d phase(s), footprint %.1f MB\n\n",
		p.Name, p.Suite, p.Class, len(p.Phases), p.MaxFootprint()/(1<<20))
	for _, ph := range p.Phases {
		fmt.Printf("phase %q: %.0fG instructions, base CPI %.2f, APKI %.1f, stream %.0f%%\n",
			ph.Name, ph.Instructions/1e9, ph.BaseCPI, ph.APKI, ph.Curve.StreamFraction()*100)
	}
	fmt.Println()

	t := report.NewTable("alone performance by exclusive LLC ways",
		"Ways", "MB", "MissRatio(p0)", "MPKI(p0)", "IPC")
	var series []float64
	for w := 1; w <= m.LLCWays; w++ {
		bytes := m.WaysBytes(w)
		miss := p.Phases[0].Curve.MissRatio(bytes)
		ipc := aloneIPC(alone, p, w)
		series = append(series, ipc)
		t.AddRowf(w, bytes/(1<<20), miss, p.Phases[0].APKI*miss, ipc)
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\nIPC vs ways: %s\n", report.Sparkline(series))
}

// aloneIPC looks up prof's alone IPC confined to the given ways.
func aloneIPC(alone *sim.AloneTable, prof app.Profile, ways int) float64 {
	ipc, err := alone.IPC(prof, ways)
	if err != nil {
		fatal(err)
	}
	return ipc
}

func experimentsSummary(m machine.Machine) string {
	return fmt.Sprintf("%d cores, %d MB %d-way LLC", m.Cores, m.LLCBytes>>20, m.LLCWays)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dicer-mrc:", err)
	os.Exit(1)
}
