package experiments

import (
	"fmt"
	"sort"

	"dicer/internal/app"
)

// WorkloadClass labels a multiprogrammed workload by CT's effect on the HP
// (paper §2.3.3).
type WorkloadClass string

// The two workload classes.
const (
	CTFavoured WorkloadClass = "CT-F" // CT improves HP performance over UM
	CTThwarted WorkloadClass = "CT-T" // CT offers no improvement or degrades HP
)

// classifyMargin is the relative HP-IPC advantage CT must show over UM to
// count as an improvement; it absorbs model noise around exact ties.
const classifyMargin = 1.01

// Classification holds the full 59×59 baseline sweep at one BE count: the
// UM and CT result for every pair and the derived class.
type Classification struct {
	BECount int
	UM, CT  map[Workload]Result
	Class   map[Workload]WorkloadClass
}

// Pairs returns every (HP, BE) workload over the catalog at the given BE
// count — the paper's 59×59 = 3481 multiprogrammed workloads.
func Pairs(beCount int) []Workload {
	names := app.Names()
	out := make([]Workload, 0, len(names)*len(names))
	for _, hp := range names {
		for _, be := range names {
			out = append(out, Workload{HP: hp, BE: be, BECount: beCount})
		}
	}
	return out
}

// Classify runs (memoised) the full baseline sweep — every catalog pair
// under UM and CT — and labels each workload CT-F or CT-T.
func (s *Suite) Classify(beCount int) (*Classification, error) {
	s.classMu.Lock()
	if c, ok := s.class[beCount]; ok {
		s.classMu.Unlock()
		return c, nil
	}
	s.classMu.Unlock()

	pairs := Pairs(beCount)
	jobs := make([]Job, 0, 2*len(pairs))
	for _, w := range pairs {
		jobs = append(jobs,
			Job{W: w, Policy: UM, Horizon: s.cfg.SweepHorizonPeriods},
			Job{W: w, Policy: CT, Horizon: s.cfg.SweepHorizonPeriods})
	}
	results, err := s.RunMany(jobs)
	if err != nil {
		return nil, err
	}

	c := &Classification{
		BECount: beCount,
		UM:      make(map[Workload]Result, len(pairs)),
		CT:      make(map[Workload]Result, len(pairs)),
		Class:   make(map[Workload]WorkloadClass, len(pairs)),
	}
	for _, r := range results {
		switch r.Policy {
		case UM:
			c.UM[r.Workload] = r
		case CT:
			c.CT[r.Workload] = r
		}
	}
	for _, w := range pairs {
		if c.CT[w].HPIPC > c.UM[w].HPIPC*classifyMargin {
			c.Class[w] = CTFavoured
		} else {
			c.Class[w] = CTThwarted
		}
	}

	s.classMu.Lock()
	s.class[beCount] = c
	s.classMu.Unlock()
	return c, nil
}

// Sample sizes used throughout the paper's evaluation (§4.1): 120
// representative workloads, 50 CT-Favoured and 70 CT-Thwarted.
const (
	SampleCTF = 50
	SampleCTT = 70
)

// SampledWorkload pairs a workload with its class for reporting.
type SampledWorkload struct {
	Workload Workload
	Class    WorkloadClass
}

// Sample returns the deterministic 120-workload representative sample: 50
// CT-F and 70 CT-T pairs, selected by evenly spacing each class's
// pairs after ordering them by the severity of the HP's UM slowdown (so
// the sample spans the full contention spectrum, from unaffected to
// heavily thwarted, exactly what "representative" needs to mean for
// Figures 4–8). If a class has fewer members than its quota, the deficit
// is filled from the other class.
func (s *Suite) Sample(beCount int) ([]SampledWorkload, error) {
	c, err := s.Classify(beCount)
	if err != nil {
		return nil, err
	}
	var ctf, ctt []Workload
	for _, w := range Pairs(beCount) { // stable catalog order
		if c.Class[w] == CTFavoured {
			ctf = append(ctf, w)
		} else {
			ctt = append(ctt, w)
		}
	}
	bySeverity := func(ws []Workload) {
		sort.SliceStable(ws, func(i, j int) bool {
			si := c.UM[ws[i]].HPSlowdown()
			sj := c.UM[ws[j]].HPSlowdown()
			if si != sj {
				return si < sj
			}
			return ws[i].String() < ws[j].String()
		})
	}
	bySeverity(ctf)
	bySeverity(ctt)

	nf, nt := SampleCTF, SampleCTT
	if len(ctf) < nf {
		nt += nf - len(ctf)
		nf = len(ctf)
	}
	if len(ctt) < nt {
		nf += nt - len(ctt)
		nt = len(ctt)
		if nf > len(ctf) {
			nf = len(ctf)
		}
	}
	if nf+nt == 0 {
		return nil, fmt.Errorf("experiments: empty classification")
	}

	out := make([]SampledWorkload, 0, nf+nt)
	for _, w := range spaced(ctf, nf) {
		out = append(out, SampledWorkload{Workload: w, Class: CTFavoured})
	}
	for _, w := range spaced(ctt, nt) {
		out = append(out, SampledWorkload{Workload: w, Class: CTThwarted})
	}
	return out, nil
}

// spaced picks n evenly spaced elements from ws (all of ws if n >= len).
func spaced(ws []Workload, n int) []Workload {
	if n >= len(ws) {
		return ws
	}
	if n <= 0 {
		return nil
	}
	out := make([]Workload, 0, n)
	if n == 1 {
		return ws[len(ws)/2 : len(ws)/2+1]
	}
	for i := 0; i < n; i++ {
		idx := i * (len(ws) - 1) / (n - 1)
		out = append(out, ws[idx])
	}
	// Spacing can repeat indices when n is close to len(ws); dedup while
	// preserving order, then top up from unused elements.
	seen := make(map[Workload]bool, n)
	dedup := out[:0]
	for _, w := range out {
		if !seen[w] {
			seen[w] = true
			dedup = append(dedup, w)
		}
	}
	for _, w := range ws {
		if len(dedup) >= n {
			break
		}
		if !seen[w] {
			seen[w] = true
			dedup = append(dedup, w)
		}
	}
	return dedup
}

// WithBECount returns a copy of the sampled workloads re-targeted at a
// different BE count (Figures 6–8 sweep the number of employed cores while
// keeping the application pairs fixed).
func WithBECount(sample []SampledWorkload, beCount int) []SampledWorkload {
	out := make([]SampledWorkload, len(sample))
	for i, sw := range sample {
		sw.Workload.BECount = beCount
		out[i] = sw
	}
	return out
}
