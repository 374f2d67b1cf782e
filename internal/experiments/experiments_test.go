package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"dicer/internal/app"
)

// Counts returns the number of CT-F and CT-T workloads.
func (c *Classification) Counts() (ctf, ctt int) {
	for _, cl := range c.Class {
		if cl == CTFavoured {
			ctf++
		} else {
			ctt++
		}
	}
	return ctf, ctt
}

func fastConfig() Config {
	cfg := DefaultConfig()
	// Shorter horizons keep the integration tests quick; the shapes the
	// assertions check are stable well before the full horizons.
	cfg.HorizonPeriods = 60
	cfg.SweepHorizonPeriods = 40
	return cfg
}

var (
	sharedOnce  sync.Once
	sharedSuite *Suite
)

// suite returns a process-wide Suite so the expensive sweeps are computed
// once across all tests in this package.
func suite(t *testing.T) *Suite {
	t.Helper()
	sharedOnce.Do(func() {
		s, err := NewSuite(fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedSuite = s
	})
	return sharedSuite
}

func TestNewSuiteValidation(t *testing.T) {
	bad := fastConfig()
	bad.HorizonPeriods = 0
	if _, err := NewSuite(bad); err == nil {
		t.Fatal("expected error for zero horizon")
	}
	bad = fastConfig()
	bad.Machine.Cores = 0
	if _, err := NewSuite(bad); err == nil {
		t.Fatal("expected error for invalid machine")
	}
	bad = fastConfig()
	bad.DICER.SampleStep = 0
	if _, err := NewSuite(bad); err == nil {
		t.Fatal("expected error for invalid controller config")
	}
}

func TestPairsCount(t *testing.T) {
	pairs := Pairs(9)
	if len(pairs) != 3481 {
		t.Fatalf("pairs = %d, want 59*59 = 3481 (paper §4.1)", len(pairs))
	}
	seen := map[Workload]bool{}
	for _, w := range pairs {
		if w.BECount != 9 {
			t.Fatalf("pair %v has wrong BE count", w)
		}
		if seen[w] {
			t.Fatalf("duplicate pair %v", w)
		}
		seen[w] = true
	}
}

func TestWorkloadString(t *testing.T) {
	w := Workload{HP: "milc1", BE: "gcc_base1", BECount: 9}
	if got := w.String(); got != "milc1+9xgcc_base1" {
		t.Fatalf("workload string %q", got)
	}
}

func TestSpaced(t *testing.T) {
	ws := make([]Workload, 10)
	for i := range ws {
		ws[i] = Workload{HP: string(rune('a' + i))}
	}
	got := spaced(ws, 3)
	if len(got) != 3 {
		t.Fatalf("spaced returned %d", len(got))
	}
	if got[0] != ws[0] || got[2] != ws[9] {
		t.Fatalf("spaced endpoints wrong: %v", got)
	}
	if got := spaced(ws, 20); len(got) != 10 {
		t.Fatal("spaced should return all when n >= len")
	}
	if got := spaced(ws, 0); got != nil {
		t.Fatal("spaced(0) should be nil")
	}
	// Near-full selection must not contain duplicates.
	got = spaced(ws, 9)
	seen := map[Workload]bool{}
	for _, w := range got {
		if seen[w] {
			t.Fatalf("duplicate in spaced: %v", w)
		}
		seen[w] = true
	}
	if len(got) != 9 {
		t.Fatalf("spaced(9) returned %d", len(got))
	}
}

func TestWithBECount(t *testing.T) {
	in := []SampledWorkload{{Workload: Workload{HP: "a", BE: "b", BECount: 9}, Class: CTFavoured}}
	out := WithBECount(in, 3)
	if out[0].Workload.BECount != 3 || in[0].Workload.BECount != 9 {
		t.Fatal("WithBECount must copy, not mutate")
	}
	if out[0].Class != CTFavoured {
		t.Fatal("class lost")
	}
}

func TestResultMetrics(t *testing.T) {
	r := Result{
		Workload: Workload{HP: "h", BE: "b", BECount: 2},
		HPIPC:    0.9, HPAlone: 1.0,
		BEIPC: 0.25, BEAlone: 0.5,
	}
	if math.Abs(r.HPNorm()-0.9) > 1e-12 {
		t.Fatal("HPNorm")
	}
	if math.Abs(r.BENorm()-0.5) > 1e-12 {
		t.Fatal("BENorm")
	}
	if math.Abs(r.HPSlowdown()-1/0.9) > 1e-12 {
		t.Fatal("HPSlowdown")
	}
	// EFU over [0.9, 0.5, 0.5] = 3 / (1/0.9 + 2/0.5).
	want := 3 / (1/0.9 + 2/0.5)
	if math.Abs(r.EFU()-want) > 1e-12 {
		t.Fatalf("EFU = %g, want %g", r.EFU(), want)
	}
	if !r.SLOAchieved(0.9) || r.SLOAchieved(0.95) {
		t.Fatal("SLO evaluation")
	}
	if r.SUCI(0.95, 1) != 0 {
		t.Fatal("missed SLO must zero SUCI")
	}
	if math.Abs(r.SUCI(0.9, 1)-want) > 1e-12 {
		t.Fatal("SUCI at lambda 1 should equal EFU")
	}
}

func TestAloneIPCMemoisedAndMonotone(t *testing.T) {
	s := suite(t)
	a, err := s.AloneIPC("omnetpp1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.AloneIPC("omnetpp1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoised alone IPC differs")
	}
	prev := 0.0
	for _, w := range []int{1, 4, 8, 12, 20} {
		ipc, err := s.AloneIPCWays("omnetpp1", w)
		if err != nil {
			t.Fatal(err)
		}
		if ipc < prev-1e-9 {
			t.Fatalf("alone IPC fell with more ways at %d: %g < %g", w, ipc, prev)
		}
		prev = ipc
	}
	if _, err := s.AloneIPC("nosuchapp"); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestRunValidatesWorkload(t *testing.T) {
	s := suite(t)
	if _, err := s.Run(Workload{HP: "milc1", BE: "gcc_base1", BECount: 0}, UM, 5); err == nil {
		t.Fatal("expected error for zero BEs")
	}
	if _, err := s.Run(Workload{HP: "milc1", BE: "gcc_base1", BECount: 10}, UM, 5); err == nil {
		t.Fatal("expected error for too many BEs")
	}
	if _, err := s.Run(Workload{HP: "nope", BE: "gcc_base1", BECount: 9}, UM, 5); err == nil {
		t.Fatal("expected error for unknown HP")
	}
	if _, err := s.Run(Workload{HP: "milc1", BE: "nope", BECount: 9}, UM, 5); err == nil {
		t.Fatal("expected error for unknown BE")
	}
	if _, err := s.Run(Workload{HP: "milc1", BE: "gcc_base1", BECount: 9}, PolicyName("bogus"), 5); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestRunMemoised(t *testing.T) {
	s := suite(t)
	w := Workload{HP: "namd1", BE: "povray1", BECount: 2}
	a, err := s.Run(w, UM, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(w, UM, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoised runs differ")
	}
}

func TestStaticNineteenMatchesCT(t *testing.T) {
	s := suite(t)
	w := Workload{HP: "omnetpp1", BE: "gcc_base1", BECount: 9}
	ct, err := s.Run(w, CT, 20)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.StaticRun(w, 19, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ct.HPIPC-st.HPIPC) > 1e-12 {
		t.Fatalf("CT and Static(19) disagree: %g vs %g", ct.HPIPC, st.HPIPC)
	}
}

func TestRunManyPreservesOrder(t *testing.T) {
	s := suite(t)
	jobs := []Job{
		{W: Workload{HP: "namd1", BE: "povray1", BECount: 1}, Policy: UM, Horizon: 5},
		{W: Workload{HP: "povray1", BE: "namd1", BECount: 1}, Policy: CT, Horizon: 5},
	}
	res, err := s.RunMany(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Workload.HP != "namd1" || res[1].Workload.HP != "povray1" {
		t.Fatal("RunMany order not preserved")
	}
	if res[0].Policy != UM || res[1].Policy != CT {
		t.Fatal("RunMany policies mixed up")
	}
}

func TestTable1Rendering(t *testing.T) {
	s := suite(t)
	out := s.Table1().String()
	for _, want := range []string{"25 MB, 20-way", "68.3 Gbps", "T = 1 sec",
		"MemBW_threshold = 50", "phase_threshold = 30%", "a = 5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

// ---------------------------------------------------------------------------
// Shape-target integration tests (DESIGN.md "what reproduced means").
// These run the real figure drivers on reduced horizons.

func TestShapeFigure3MilcGcc(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	s := suite(t)
	f3, err := s.Figure3("milc1", "gcc_base1", 9)
	if err != nil {
		t.Fatal(err)
	}
	// Shape target 3: best at few ways, CT noticeably worse, UM near best.
	if f3.BestWays > 8 {
		t.Errorf("best static partition at %d ways, want <= 8", f3.BestWays)
	}
	ctSlow := f3.Slowdown[len(f3.Slowdown)-1] // 19 ways = CT
	if ctSlow < f3.BestValue*1.1 {
		t.Errorf("CT slowdown %.3f not noticeably worse than best %.3f", ctSlow, f3.BestValue)
	}
	if f3.UM > f3.BestValue*1.1 {
		t.Errorf("UM slowdown %.3f should be near best %.3f", f3.UM, f3.BestValue)
	}
	// The sweep must be a U-shape: 1 way worse than the best too.
	if f3.Slowdown[0] <= f3.BestValue {
		t.Errorf("1-way slowdown %.3f should exceed best %.3f", f3.Slowdown[0], f3.BestValue)
	}
}

func TestShapeFigure2(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	s := suite(t)
	f2, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	// Rows are CDFs: non-decreasing, ending at 100.
	for ti, row := range f2.CDF {
		prev := 0.0
		for w, v := range row {
			if v < prev-1e-9 {
				t.Fatalf("target %d: CDF fell at way %d", ti, w+1)
			}
			prev = v
		}
		if row[f2.Ways-1] != 100 {
			t.Fatalf("target %d: CDF does not reach 100%%", ti)
		}
	}
	// Looser targets need fewer ways: CDF(90%) >= CDF(99%) pointwise.
	for w := 0; w < f2.Ways; w++ {
		if f2.CDF[0][w] < f2.CDF[2][w]-1e-9 {
			t.Fatalf("way %d: 90%% target CDF below 99%% target", w+1)
		}
	}
	// Shape target 2: most applications need much less than the full LLC
	// (paper: 50% reach 99% performance with <= 6 ways).
	if f2.CDF[2][5] < 50 {
		t.Errorf("only %.0f%% of apps reach 99%% perf with 6 ways, want >= 50%%", f2.CDF[2][5])
	}
}

func TestShapeClassificationAndSample(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep (full 59x59)")
	}
	s := suite(t)
	c, err := s.Classify(9)
	if err != nil {
		t.Fatal(err)
	}
	ctf, ctt := c.Counts()
	if ctf+ctt != 3481 {
		t.Fatalf("classified %d workloads, want 3481", ctf+ctt)
	}
	// Paper: ~60% CT-T. Accept a generous band around it.
	frac := float64(ctt) / 3481
	if frac < 0.40 || frac > 0.75 {
		t.Errorf("CT-T fraction %.2f outside [0.40, 0.75] (paper ~0.60)", frac)
	}

	sample, err := s.Sample(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample) != SampleCTF+SampleCTT {
		t.Fatalf("sample size %d, want %d", len(sample), SampleCTF+SampleCTT)
	}
	var nf, nt int
	seen := map[Workload]bool{}
	for _, sw := range sample {
		if seen[sw.Workload] {
			t.Fatalf("duplicate %v in sample", sw.Workload)
		}
		seen[sw.Workload] = true
		if sw.Class == CTFavoured {
			nf++
		} else {
			nt++
		}
		if c.Class[sw.Workload] != sw.Class {
			t.Fatalf("sample class mismatch for %v", sw.Workload)
		}
	}
	if nf != SampleCTF || nt != SampleCTT {
		t.Fatalf("sample split %d/%d, want %d/%d", nf, nt, SampleCTF, SampleCTT)
	}
	// Deterministic.
	again, err := s.Sample(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sample {
		if sample[i] != again[i] {
			t.Fatal("sample not deterministic")
		}
	}
}

func TestShapeFigure1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep (full 59x59)")
	}
	s := suite(t)
	f1, err := s.Figure1(9)
	if err != nil {
		t.Fatal(err)
	}
	if f1.N != 3481 {
		t.Fatalf("N = %d", f1.N)
	}
	// Shape target 1: CT's CDF lies left of (above) UM's through the tail.
	for i, tick := range f1.Ticks {
		if tick >= 1.1 && tick <= 2.0 && f1.CTCDF[i] < f1.UMCDF[i] {
			t.Errorf("at %.1fx CT CDF %.1f below UM %.1f", tick, f1.CTCDF[i], f1.UMCDF[i])
		}
	}
	// Few workloads are unaffected under UM (paper < 5%).
	if f1.UMCDF[0] > 10 {
		t.Errorf("%.1f%% of workloads unaffected under UM, want < 10%%", f1.UMCDF[0])
	}
	// Nearly everything is under 3x (paper: slowdowns rarely exceed 2x).
	if f1.UMCDF[7] < 95 {
		t.Errorf("UM CDF at 3.0x = %.1f, want >= 95", f1.UMCDF[7])
	}
	// Rendering sanity.
	if !strings.Contains(f1.Table().String(), "Figure 1") {
		t.Error("Figure 1 table missing title")
	}
}

func TestShapeGridFigures678(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep (grid)")
	}
	s := suite(t)
	g, err := s.GridFor(9)
	if err != nil {
		t.Fatal(err)
	}
	last := len(g.CoreCounts) - 1

	f6 := g.Figure6()
	// Shape target 6: EFU ordering UM > DICER > CT at full occupancy, gap
	// widening with cores.
	if !(f6.EFU[UM][last] > f6.EFU[DICER][last] && f6.EFU[DICER][last] > f6.EFU[CT][last]) {
		t.Errorf("EFU ordering violated at 10 cores: UM %.3f DICER %.3f CT %.3f",
			f6.EFU[UM][last], f6.EFU[DICER][last], f6.EFU[CT][last])
	}
	gapSmall := f6.EFU[UM][0] - f6.EFU[CT][0]
	gapBig := f6.EFU[UM][last] - f6.EFU[CT][last]
	if gapBig <= gapSmall {
		t.Errorf("UM-CT EFU gap did not widen: %.3f -> %.3f", gapSmall, gapBig)
	}

	f7 := g.Figure7()
	// Shape target 7: DICER beats UM everywhere at 90%; DICER is at least
	// competitive with CT at high occupancy (within a few points) and
	// clearly better at the 95% SLO.
	if f7.Achieved[0.90][DICER][last] <= f7.Achieved[0.90][UM][last] {
		t.Errorf("SLO90 at 10 cores: DICER %.1f <= UM %.1f",
			f7.Achieved[0.90][DICER][last], f7.Achieved[0.90][UM][last])
	}
	if f7.Achieved[0.90][DICER][last] < f7.Achieved[0.90][CT][last]-10 {
		t.Errorf("SLO90 at 10 cores: DICER %.1f far below CT %.1f",
			f7.Achieved[0.90][DICER][last], f7.Achieved[0.90][CT][last])
	}
	if f7.Achieved[0.95][DICER][last] < f7.Achieved[0.95][CT][last]-5 {
		t.Errorf("SLO95 at 10 cores: DICER %.1f below CT %.1f",
			f7.Achieved[0.95][DICER][last], f7.Achieved[0.95][CT][last])
	}

	f8 := g.Figure8()
	// Shape target 8: DICER has the best SUCI at the 90% SLO for every
	// lambda at full occupancy.
	for _, lambda := range f8.Lambdas {
		d := f8.SUCI[lambda][0.90][DICER][last]
		if d < f8.SUCI[lambda][0.90][UM][last] {
			t.Errorf("lambda %g: DICER SUCI %.3f below UM", lambda, d)
		}
		if d < f8.SUCI[lambda][0.90][CT][last]*0.9 {
			t.Errorf("lambda %g: DICER SUCI %.3f well below CT %.3f",
				lambda, d, f8.SUCI[lambda][0.90][CT][last])
		}
	}

	// Headline claims (paper: >90% at SLO80, ~74% at SLO90, EFU ~0.6).
	h := g.Headline(s.Config().Machine.Cores)
	if h.PctSLO80 < 75 {
		t.Errorf("headline SLO80 = %.1f%%, want >= 75%%", h.PctSLO80)
	}
	if h.PctSLO90 < 60 {
		t.Errorf("headline SLO90 = %.1f%%, want >= 60%%", h.PctSLO90)
	}
	if h.GeoMeanEFU < 0.5 || h.GeoMeanEFU > 0.95 {
		t.Errorf("headline EFU = %.3f outside [0.5, 0.95]", h.GeoMeanEFU)
	}

	// Figure 5 piggybacks on the same sample.
	f5, err := s.Figure5(9)
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) != SampleCTF+SampleCTT {
		t.Fatalf("figure 5 rows = %d", len(f5.Rows))
	}
	// CT-F rows come first.
	for i := 1; i < len(f5.Rows); i++ {
		if f5.Rows[i-1].Class == CTThwarted && f5.Rows[i].Class == CTFavoured {
			t.Fatal("figure 5 rows not CT-F first")
		}
	}
	// Shape target 5: DICER's BE IPC beats CT's on average.
	var dSum, cSum float64
	for _, row := range f5.Rows {
		dSum += row.BENorm[DICER]
		cSum += row.BENorm[CT]
	}
	if dSum <= cSum {
		t.Errorf("mean DICER BE norm %.3f <= CT %.3f", dSum/120, cSum/120)
	}

	// Figure 4 sanity: EFU in (0,1], CT points lower-EFU than UM points on
	// average.
	f4, err := s.Figure4(9)
	if err != nil {
		t.Fatal(err)
	}
	var umEFU, ctEFU float64
	for _, p := range f4.Points {
		if p.EFU <= 0 || p.EFU > 1 {
			t.Fatalf("EFU %g out of range for %v", p.EFU, p.Workload)
		}
		if p.Policy == UM {
			umEFU += p.EFU
		} else {
			ctEFU += p.EFU
		}
	}
	if umEFU <= ctEFU {
		t.Errorf("UM mean EFU %.3f <= CT %.3f", umEFU/120, ctEFU/120)
	}

	// Rendering of all grid tables.
	if !strings.Contains(f6.Table().String(), "Figure 6") {
		t.Error("figure 6 table")
	}
	if got := len(f7.Tables()); got != 4 {
		t.Errorf("figure 7 tables = %d, want 4", got)
	}
	if got := len(f8.Tables()); got != 12 {
		t.Errorf("figure 8 tables = %d, want 12 (3 lambdas x 4 SLOs)", got)
	}
	if !strings.Contains(h.Table().String(), "Headline") {
		t.Error("headline table")
	}
}

func TestPaperFig5WorkloadsResolve(t *testing.T) {
	paper := PaperFig5Workloads(9)
	if len(paper) < 80 {
		t.Fatalf("only %d paper pairs transcribed", len(paper))
	}
	names := map[string]bool{}
	for _, n := range app.Names() {
		names[n] = true
	}
	seen := map[Workload]bool{}
	for _, sw := range paper {
		if !names[sw.Workload.HP] {
			t.Errorf("paper pair HP %q not in catalog", sw.Workload.HP)
		}
		if !names[sw.Workload.BE] {
			t.Errorf("paper pair BE %q not in catalog", sw.Workload.BE)
		}
		if seen[sw.Workload] {
			t.Errorf("duplicate paper pair %v", sw.Workload)
		}
		seen[sw.Workload] = true
	}
}

func TestFigure5PaperAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	s := suite(t)
	r, err := s.Figure5Paper(9)
	if err != nil {
		t.Fatal(err)
	}
	if r.N != len(PaperFig5Workloads(9)) {
		t.Fatalf("evaluated %d of %d pairs", r.N, len(PaperFig5Workloads(9)))
	}
	// Per-pair CT-F/CT-T agreement with the paper's panels is weak by
	// construction: the synthetic profiles reproduce class-level shapes,
	// not the per-benchmark microarchitectural details that decide
	// near-tie pairs (most disagreements are pairs the paper saw as small
	// CT wins and this model sees as exact ties). Record it, expect it
	// above a floor, and gate on the claim Figure 5 actually makes:
	// DICER's HP performance is best or close to best on BOTH panels.
	if got := r.AgreementPct(); got < 20 {
		t.Errorf("class agreement with the paper's panels %.0f%%, want >= 20%%", got)
	}
	mean := func(class WorkloadClass, pol PolicyName) float64 {
		var sum float64
		var n int
		for _, row := range r.Rows {
			if row.Class == class {
				sum += row.HPNorm[pol]
				n++
			}
		}
		return sum / float64(n)
	}
	for _, class := range []WorkloadClass{CTFavoured, CTThwarted} {
		d := mean(class, DICER)
		best := mean(class, UM)
		if ct := mean(class, CT); ct > best {
			best = ct
		}
		if d < best-0.10 {
			t.Errorf("%s panel: DICER mean HP norm %.3f far below best baseline %.3f",
				class, d, best)
		}
	}
	if !strings.Contains(r.Table().String(), "class agreement") {
		t.Error("table title")
	}
}

func TestSpacedSingleElement(t *testing.T) {
	ws := make([]Workload, 5)
	for i := range ws {
		ws[i] = Workload{HP: string(rune('a' + i))}
	}
	got := spaced(ws, 1)
	if len(got) != 1 || got[0] != ws[2] {
		t.Fatalf("spaced(5,1) = %v, want the middle element", got)
	}
}
