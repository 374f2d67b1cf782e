package diag

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"dicer/internal/fleet"
)

// The causal explain engine: given one sealed incident bundle, walk the
// decision provenance backwards from the violation and rank candidate
// root causes. The engine is pure — same bundle in, same report out,
// byte for byte — so a report over a live dump and one over a committed
// golden bundle are interchangeable evidence, and the text rendering
// can be golden-tested.

// ExplainSchema tags the explain report's JSON form.
const ExplainSchema = "dicer-explain/v1"

// Finding categories, coarsest first: which layer of the stack the
// candidate cause lives in.
const (
	// CatControlPlane: a fleet orchestration decision (repack,
	// migration, autoscale) in the incident window.
	CatControlPlane = "control-plane"
	// CatController: the node's own cache controller moved the
	// partition (shrink, sampling, recluster).
	CatController = "controller"
	// CatChaos: an injected node fault (freeze, loss).
	CatChaos = "chaos"
	// CatLoad: best-effort colocation pressure changed (placements).
	CatLoad = "load"
	// CatBandwidth: the memory link crossed its queueing knee.
	CatBandwidth = "bandwidth"
)

// Finding is one ranked candidate root cause.
type Finding struct {
	Rank     int    `json:"rank"`
	Category string `json:"category"`
	// Cause is the decision-provenance tag of the candidate: a fleet
	// event cause (repack, slo-burn-migration, ...), a controller cause
	// (shrink-step, sampling, ...), or a synthetic tag (node-freeze,
	// be-placement, link-saturation).
	Cause  string `json:"cause"`
	Period int    `json:"period"`
	// Lead is how many periods before the violation onset the candidate
	// acted; negative means it happened after the onset (aftermath or
	// masking evidence, scored down accordingly).
	Lead     int     `json:"lead"`
	Score    float64 `json:"score"`
	Evidence string  `json:"evidence"`
}

// ExplainReport is the engine's output: the incident's manifest, the
// violation-run geometry the engine found, and the ranked candidates.
type ExplainReport struct {
	Schema   string                 `json:"schema"`
	Incident fleet.IncidentManifest `json:"incident"`

	// Onset is the first period of the consecutive SLO-violated run the
	// trigger sits in (== the trigger period when the window shows no
	// violation, e.g. a node-loss trigger on a healthy node). RunLength
	// is that run's length up to the trigger; Violations counts every
	// violated period in the window; Masked counts frozen periods
	// inside [Onset, trigger] — periods whose counter reads the fault
	// injection swallowed.
	Onset      int `json:"onset"`
	RunLength  int `json:"run_length"`
	Violations int `json:"violations"`
	Masked     int `json:"masked_periods,omitempty"`

	Findings []Finding `json:"findings"`
}

// ExplainIncident runs the causal engine over one sealed bundle.
func ExplainIncident(inc *fleet.Incident) *ExplainReport {
	rep := &ExplainReport{
		Schema:   ExplainSchema,
		Incident: inc.Manifest,
	}
	fl := inc.Flight
	trig := inc.Manifest.Period

	// Violation-run geometry: find the latest violated entry at or
	// before the trigger, then extend backwards while consecutive
	// periods stay violated. The run's first period is the onset every
	// candidate's lead is measured from.
	rep.Onset = trig
	last := -1
	for i := range fl {
		if !fl[i].SLOViolated {
			continue
		}
		rep.Violations++
		if fl[i].Period <= trig {
			last = i
		}
	}
	if last >= 0 {
		first := last
		for first > 0 && fl[first-1].SLOViolated && fl[first-1].Period == fl[first].Period-1 {
			first--
		}
		rep.Onset = fl[first].Period
		rep.RunLength = last - first + 1
	}
	for i := range fl {
		if fl[i].Period >= rep.Onset && fl[i].Period <= trig && fl[i].Frozen {
			rep.Masked++
		}
	}

	var cands []Finding
	cands = append(cands, eventCandidates(inc, rep.Onset)...)
	cands = append(cands, flightCandidates(inc, rep.Onset, rep.Masked)...)

	// Deterministic ranking: score, then recency, then stable
	// tie-breaks on the strings.
	sort.Slice(cands, func(i, j int) bool {
		a, b := &cands[i], &cands[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Period != b.Period {
			return a.Period > b.Period
		}
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		return a.Evidence < b.Evidence
	})
	for i := range cands {
		cands[i].Rank = i + 1
	}
	rep.Findings = cands
	return rep
}

// scoreAt weights a candidate by how long before the onset it acted: a
// cause right at the onset keeps its full weight, earlier ones decay,
// and anything after the onset is aftermath — kept as evidence but
// scored at a flat fraction so true precursors always outrank it.
func scoreAt(weight float64, period, onset int) (float64, int) {
	lead := onset - period
	if lead < 0 {
		return round3(weight * 0.25), lead
	}
	return round3(weight / (1 + 0.12*float64(lead))), lead
}

// round3 pins scores to 3 decimals so reports stay byte-stable across
// formatting changes.
func round3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }

// eventCandidates turns the fleet control events in the window into
// candidates. Events on the triggering node and events that move cache
// or capacity fleet-wide score high; the node's own burn-driven
// eviction is a response, not a cause, and scores low.
func eventCandidates(inc *fleet.Incident, onset int) []Finding {
	var out []Finding
	node, trig := inc.Manifest.Node, inc.Manifest.Period
	for i := range inc.Events {
		ev := &inc.Events[i]
		if ev.Period > trig {
			continue
		}
		var w float64
		var evidence string
		switch ev.Cause {
		case fleet.CauseRepack:
			w = 1.0
			evidence = "fleet repack re-clustered node cache plans in place of added capacity"
			if ev.Detail != "" {
				evidence += " (" + ev.Detail + ")"
			}
		case fleet.CauseScaleDown:
			if ev.Node == node {
				w = 0.9
				evidence = fmt.Sprintf("autoscaler drained this node (%s)", ev.Detail)
			} else {
				w = 0.45
				evidence = fmt.Sprintf("autoscaler removed capacity: node %d %s; surviving nodes absorb its load", ev.Node, ev.Detail)
			}
		case fleet.CauseMigration:
			if ev.Node == node {
				w = 0.35
				evidence = fmt.Sprintf("this node's burn alert evicted %d BE job(s) (%s) — a response to the violation, not its cause", len(ev.Jobs), ev.Detail)
			} else {
				w = 0.6
				evidence = fmt.Sprintf("node %d evicted %d BE job(s) (%s); evictees re-queued into the fleet raise colocation pressure elsewhere", ev.Node, len(ev.Jobs), ev.Detail)
			}
		case fleet.CauseScaleUp:
			w = 0.2
			evidence = fmt.Sprintf("autoscaler added capacity (%s)", ev.Detail)
		default:
			w = 0.3
			evidence = fmt.Sprintf("control event %q on node %d", ev.Cause, ev.Node)
		}
		score, lead := scoreAt(w, ev.Period, onset)
		out = append(out, Finding{
			Category: CatControlPlane,
			Cause:    ev.Cause,
			Period:   ev.Period,
			Lead:     lead,
			Score:    score,
			Evidence: evidence,
		})
	}
	return out
}

// shrinkWeight maps a controller decision cause to a prior: deliberate
// partition moves (shrink, saturation handling) are likelier culprits
// than exploratory ones.
func shrinkWeight(cause string) float64 {
	switch cause {
	case "shrink-step":
		return 0.9
	case "saturation-detected":
		return 0.85
	case "sampling":
		return 0.75
	case "guard-veto", "chaos-masked":
		return 0.8
	case "rollback":
		return 0.7
	}
	return 0.6
}

// flightCandidates walks consecutive flight entries of the triggering
// node and turns state transitions into candidates: HP-way shrinks
// (coalesced into runs, annotated with their provenance cause),
// recluster periods, BE placement bursts, link-saturation onsets, and
// chaos freeze/loss onsets.
func flightCandidates(inc *fleet.Incident, onset, masked int) []Finding {
	var out []Finding
	fl := inc.Flight
	trig := inc.Manifest.Period
	emit := func(cat, cause string, period int, w float64, evidence string) {
		if period > trig {
			return
		}
		score, lead := scoreAt(w, period, onset)
		out = append(out, Finding{
			Category: cat, Cause: cause, Period: period,
			Lead: lead, Score: score, Evidence: evidence,
		})
	}
	causeOf := func(e *fleet.FlightEntry) string {
		if e.Cause == "" {
			return "unspecified"
		}
		return e.Cause
	}
	for i := 1; i < len(fl); i++ {
		prev, cur := &fl[i-1], &fl[i]
		if cur.Period != prev.Period+1 {
			continue
		}
		// HP-way shrink runs, coalesced while the cause tag holds.
		if cur.HPWays > 0 && prev.HPWays > 0 && cur.HPWays < prev.HPWays {
			cause := causeOf(cur)
			j := i
			for j+1 < len(fl) && fl[j+1].Period == fl[j].Period+1 &&
				fl[j+1].HPWays > 0 && fl[j+1].HPWays < fl[j].HPWays &&
				causeOf(&fl[j+1]) == cause {
				j++
			}
			ev := fmt.Sprintf("controller shrank HP ways %d -> %d (%s)", prev.HPWays, fl[j].HPWays, cause)
			if j > i {
				ev = fmt.Sprintf("controller shrank HP ways %d -> %d over %d periods (%s)", prev.HPWays, fl[j].HPWays, j-i+1, cause)
			}
			emit(CatController, cause, cur.Period, shrinkWeight(cause), ev)
			i = j
			continue
		}
		if cur.Reclustered {
			emit(CatController, "recluster", cur.Period, 0.85,
				fmt.Sprintf("grouping plan re-clustered (%d groups, HP ways %d -> %d)", cur.HPGroups, prev.HPWays, cur.HPWays))
		}
		if d := cur.BECount - prev.BECount; d > 0 {
			j := i
			total := d
			for j+1 < len(fl) && fl[j+1].Period == fl[j].Period+1 && fl[j+1].BECount > fl[j].BECount {
				total += fl[j+1].BECount - fl[j].BECount
				j++
			}
			w := 0.5 + 0.05*float64(min(total, 4))
			emit(CatLoad, "be-placement", cur.Period, w,
				fmt.Sprintf("%d new BE job(s) placed on the node (%d -> %d)", total, prev.BECount, fl[j].BECount))
			i = j
			continue
		}
		if cur.Saturated && !prev.Saturated {
			emit(CatBandwidth, "link-saturation", cur.Period, 0.7,
				fmt.Sprintf("memory link crossed its queueing knee (%.1f Gbps total)", cur.TotalGbps))
		}
		if cur.Frozen && !prev.Frozen {
			w := 0.65
			if inc.Manifest.Trigger == fleet.TriggerNodeFreeze {
				w = 1.0
			}
			ev := "chaos froze the node: counter reads and actuation paused"
			if masked > 0 {
				ev += fmt.Sprintf("; masked %d period(s) of the violation run", masked)
			}
			emit(CatChaos, "node-freeze", cur.Period, w, ev)
		}
		if cur.Lost && !prev.Lost {
			emit(CatChaos, "node-loss", cur.Period, 1.0,
				"chaos lost the node: running jobs orphaned, capacity gone")
		}
	}
	return out
}

// Explain reads one incident bundle and runs the engine over it.
func Explain(r io.Reader) (*ExplainReport, error) {
	inc, err := fleet.ReadIncident(r)
	if err != nil {
		return nil, err
	}
	return ExplainIncident(inc), nil
}

// JSON renders the report as indented JSON (deterministic bytes).
func (r *ExplainReport) JSON() ([]byte, error) { return indentJSON(r) }

// Render writes the human-readable forensics report: the trigger line,
// the violation-run geometry, a per-period flight strip, and the ranked
// candidates. Deterministic for a given report — golden tests pin it.
func (r *ExplainReport) Render(w io.Writer, fl []fleet.FlightEntry) {
	m := &r.Incident
	fmt.Fprintf(w, "incident #%d  %s on node %d at period %d", m.Seq, m.Trigger, m.Node, m.Period)
	if m.Detail != "" {
		fmt.Fprintf(w, "  (%s)", m.Detail)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fleet    policy=%s scheduler=%s nodes=%d", m.Policy, m.Scheduler, m.Nodes)
	if m.HPsPerNode > 0 {
		fmt.Fprintf(w, " hps/node=%d", m.HPsPerNode)
	}
	fmt.Fprintf(w, " slo=%.3g", m.SLO)
	if m.NodeChaos != "" {
		fmt.Fprintf(w, " chaos=%s", m.NodeChaos)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "window   p%d..p%d (%d periods)  violated %d", m.WindowFrom, m.WindowTo, m.WindowTo-m.WindowFrom+1, r.Violations)
	if r.RunLength > 0 {
		fmt.Fprintf(w, "  onset p%d (run %d)", r.Onset, r.RunLength)
	} else {
		fmt.Fprintf(w, "  no violation run before the trigger")
	}
	if r.Masked > 0 {
		fmt.Fprintf(w, "  masked %d", r.Masked)
	}
	fmt.Fprintln(w)

	if len(fl) > 0 {
		fmt.Fprintln(w)
		renderFlightStrip(w, fl, r.Onset, m.Period, r.RunLength > 0)
	}

	fmt.Fprintln(w)
	if len(r.Findings) == 0 {
		fmt.Fprintln(w, "no candidate causes found in the window")
		return
	}
	fmt.Fprintln(w, "root-cause candidates (most likely first):")
	for _, f := range r.Findings {
		fmt.Fprintf(w, "%3d. p%-4d [%s] %s  score %.3f  lead %d\n",
			f.Rank, f.Period, f.Category, f.Cause, f.Score, f.Lead)
		fmt.Fprintf(w, "     %s\n", f.Evidence)
	}
}

// renderFlightStrip draws the flight window one character per period
// (L=lost F=frozen V=violated s=saturated .=ok) with a marker line
// flagging the onset (o) and the trigger (^), chunked into rows of 60.
func renderFlightStrip(w io.Writer, fl []fleet.FlightEntry, onset, trigger int, haveOnset bool) {
	const row = 60
	fmt.Fprintln(w, "flight strip (L=lost F=frozen V=violated s=saturated .=ok; o=onset ^=trigger):")
	for start := 0; start < len(fl); start += row {
		end := start + row
		if end > len(fl) {
			end = len(fl)
		}
		var strip, marks strings.Builder
		marked := false
		for _, e := range fl[start:end] {
			switch {
			case e.Lost:
				strip.WriteByte('L')
			case e.Frozen:
				strip.WriteByte('F')
			case e.SLOViolated:
				strip.WriteByte('V')
			case e.Saturated:
				strip.WriteByte('s')
			default:
				strip.WriteByte('.')
			}
			switch {
			case e.Period == trigger:
				marks.WriteByte('^')
				marked = true
			case e.Period == onset && haveOnset:
				marks.WriteByte('o')
				marked = true
			default:
				marks.WriteByte(' ')
			}
		}
		fmt.Fprintf(w, "  p%-4d %s\n", fl[start].Period, strip.String())
		if marked {
			fmt.Fprintf(w, "        %s\n", strings.TrimRight(marks.String(), " "))
		}
	}
}
