package experiments

import (
	"fmt"
	"io"
	"math/bits"

	"dicer/internal/policy"
	"dicer/internal/resctrl"
)

// TimelineEntry is one monitoring period's view of a running scenario.
type TimelineEntry struct {
	Period    int
	HPIPC     float64
	BEMeanIPC float64
	HPWays    int
	BEWays    int
	HPBWGbps  float64
	TotalGbps float64
}

// Timeline records per-period scenario state for post-hoc analysis. Attach
// it to a Scenario before Run:
//
//	tl := &Timeline{}
//	sc.AttachTimeline(tl)
//
// (AttachTimeline installs an OnPeriod hook, so it replaces any hook set
// earlier.) For a structured, replayable audit trail — including the
// controller's decisions, not just the counters — use Scenario.Trace with
// an obs.Ring or obs.JSONL sink instead; the timeline is the lightweight
// CSV-oriented view.
type Timeline struct {
	Entries []TimelineEntry
}

// AttachTimeline subscribes tl to the scenario's monitoring periods.
// It must be called before Run; it replaces any previous OnPeriod hook.
// The HP columns read CLOS 0 (the HP partition, or the first HP group of
// a grouped run) and the BE columns the period's last CLOS group, where
// the BEs run in every topology.
func (sc *Scenario) AttachTimeline(tl *Timeline) {
	sc.OnPeriod = func(period int, p resctrl.Period) {
		be := policy.BEClos
		if n := len(p.Groups); n > 0 {
			be = p.Groups[n-1].Clos
		}
		e := TimelineEntry{
			Period:    period,
			HPIPC:     p.ClosMeanIPC(policy.HPClos),
			BEMeanIPC: p.ClosMeanIPC(be),
			HPBWGbps:  p.GroupBW(policy.HPClos),
			TotalGbps: p.TotalGbps,
		}
		for _, g := range p.Groups {
			switch g.Clos {
			case policy.HPClos:
				e.HPWays = bits.OnesCount64(g.CBM)
			case be:
				e.BEWays = bits.OnesCount64(g.CBM)
			}
		}
		tl.Entries = append(tl.Entries, e)
	}
}

// WriteCSV emits the timeline as CSV.
func (tl *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "period,hp_ipc,be_mean_ipc,hp_ways,be_ways,hp_bw_gbps,total_bw_gbps"); err != nil {
		return err
	}
	for _, e := range tl.Entries {
		if _, err := fmt.Fprintf(w, "%d,%.4f,%.4f,%d,%d,%.2f,%.2f\n",
			e.Period, e.HPIPC, e.BEMeanIPC, e.HPWays, e.BEWays, e.HPBWGbps, e.TotalGbps); err != nil {
			return err
		}
	}
	return nil
}

// HPWaysSeries returns the HP allocation over time, for quick plotting.
func (tl *Timeline) HPWaysSeries() []float64 {
	out := make([]float64, len(tl.Entries))
	for i, e := range tl.Entries {
		out[i] = float64(e.HPWays)
	}
	return out
}

// MinMaxHPWays returns the smallest and largest HP allocation seen.
func (tl *Timeline) MinMaxHPWays() (min, max int) {
	if len(tl.Entries) == 0 {
		return 0, 0
	}
	min, max = tl.Entries[0].HPWays, tl.Entries[0].HPWays
	for _, e := range tl.Entries {
		if e.HPWays < min {
			min = e.HPWays
		}
		if e.HPWays > max {
			max = e.HPWays
		}
	}
	return min, max
}
