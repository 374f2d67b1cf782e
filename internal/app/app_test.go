package app

import (
	"math"
	"testing"
	"testing/quick"

	"dicer/internal/machine"
	"dicer/internal/mrc"
)

func testPhase() Phase {
	return Phase{
		Name:         "p",
		Instructions: 1e9,
		BaseCPI:      0.8,
		APKI:         10,
		Curve:        mrc.MustCurve(0.2, mrc.Component{Bytes: 2 * MB, Frac: 0.4}),
	}
}

func testProfile() Profile {
	return Profile{Name: "test", Suite: "spec2006", Class: ClassCache,
		Phases: []Phase{testPhase()}}
}

func TestPhaseValidate(t *testing.T) {
	good := testPhase()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Instructions = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero instructions")
	}
	bad = good
	bad.BaseCPI = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero base CPI")
	}
	bad = good
	bad.APKI = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for negative APKI")
	}
}

func TestProfileValidate(t *testing.T) {
	if err := testProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Profile{Name: "", Phases: []Phase{testPhase()}}).Validate(); err == nil {
		t.Fatal("expected error for empty name")
	}
	if err := (Profile{Name: "x"}).Validate(); err == nil {
		t.Fatal("expected error for no phases")
	}
}

func TestTotalInstructionsAndFootprint(t *testing.T) {
	p := testProfile()
	p.Phases = append(p.Phases, Phase{
		Name: "q", Instructions: 2e9, BaseCPI: 1, APKI: 5,
		Curve: mrc.MustCurve(0, mrc.Component{Bytes: 8 * MB, Frac: 0.3}),
	})
	if got := p.MaxFootprint(); got != 8*MB {
		t.Fatalf("max footprint = %g, want 8MB", got)
	}
}

func TestPhasePerfModel(t *testing.T) {
	m := machine.Default()
	ph := testPhase()
	perf := PhasePerf(m, ph, 2*MB, 1, 1)
	// Fully covered hot set: miss = stream only.
	if math.Abs(perf.MissRatio-0.2) > 1e-12 {
		t.Fatalf("miss ratio = %g, want 0.2", perf.MissRatio)
	}
	wantCPI := 0.8 + 10*0.2/1000*180
	if math.Abs(1/perf.IPC-wantCPI) > 1e-9 {
		t.Fatalf("CPI = %g, want %g", 1/perf.IPC, wantCPI)
	}
	// Bandwidth: IPS * MPKI/1000 * line * WB.
	ips := perf.IPC * m.CyclesPerSecond()
	wantBytes := ips * 2.0 / 1000 * 64 * WBFactor
	if math.Abs(perf.BytesPerSec-wantBytes) > 1 {
		t.Fatalf("bytes/s = %g, want %g", perf.BytesPerSec, wantBytes)
	}
}

func TestPerfMonotonicity(t *testing.T) {
	m := machine.Default()
	ph := testPhase()
	// More cache never hurts IPC.
	prev := 0.0
	for c := 0.0; c <= 4*MB; c += MB / 4 {
		ipc := PhasePerf(m, ph, c, 1, 1).IPC
		if ipc < prev-1e-12 {
			t.Fatalf("IPC fell with more cache at %g", c)
		}
		prev = ipc
	}
	// More inflation never helps IPC.
	if PhasePerf(m, ph, MB, 2, 1).IPC >= PhasePerf(m, ph, MB, 1, 1).IPC {
		t.Fatal("IPC did not fall with latency inflation")
	}
	// Co-location base factor slows the core part.
	if PhasePerf(m, ph, MB, 1, 1.05).IPC >= PhasePerf(m, ph, MB, 1, 1).IPC {
		t.Fatal("IPC did not fall with co-location factor")
	}
}

func TestProcAdvanceConservation(t *testing.T) {
	m := machine.Default()
	pr := NewProc(testProfile())
	retired := pr.Advance(m, 2*MB, 1, 1, 1.0)
	// One second at CPI 1.16 = 2.2e9/1.16 instructions.
	perf := PhasePerf(m, testPhase(), 2*MB, 1, 1)
	want := perf.IPC * m.CyclesPerSecond()
	if math.Abs(retired-want) > want*1e-9 {
		t.Fatalf("retired %g, want %g", retired, want)
	}
	if math.Abs(pr.Cycles-m.CyclesPerSecond()) > 1 {
		t.Fatalf("cycles %g, want one second worth", pr.Cycles)
	}
	if math.Abs(pr.IPC()-perf.IPC) > 1e-9 {
		t.Fatalf("cumulative IPC %g, want %g", pr.IPC(), perf.IPC)
	}
}

func TestProcPhaseTransitionAndRestart(t *testing.T) {
	m := machine.Default()
	p := Profile{Name: "two", Phases: []Phase{
		{Name: "a", Instructions: 1e8, BaseCPI: 1, APKI: 0, Curve: mrc.Curve{}},
		{Name: "b", Instructions: 1e8, BaseCPI: 1, APKI: 0, Curve: mrc.Curve{}},
	}}
	pr := NewProc(p)
	// 1e8 instructions at CPI 1 = 1e8 cycles = 1/22 s. Advance well past
	// one full run.
	pr.Advance(m, 0, 1, 1, 0.15) // 3.3e8 cycles -> 3.3 phases
	if pr.Completions != 1 {
		t.Fatalf("completions = %d, want 1", pr.Completions)
	}
	if pr.PhaseIndex() != 1 {
		t.Fatalf("phase = %d, want 1 (second phase of second run)", pr.PhaseIndex())
	}
	if math.Abs(pr.Instructions-3.3e8) > 1e6 {
		t.Fatalf("instructions = %g, want ~3.3e8", pr.Instructions)
	}
}

func TestNewProcPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid profile")
		}
	}()
	NewProc(Profile{Name: "bad"})
}

// Property: Advance over two half-intervals equals one full interval.
func TestPropertyAdvanceAdditive(t *testing.T) {
	m := machine.Default()
	f := func(cacheRaw, inflRaw uint8) bool {
		cache := float64(cacheRaw%40) * MB / 8
		infl := 1 + float64(inflRaw%50)/10
		a := NewProc(testProfile())
		b := NewProc(testProfile())
		a.Advance(m, cache, infl, 1, 1.0)
		b.Advance(m, cache, infl, 1, 0.5)
		b.Advance(m, cache, infl, 1, 0.5)
		return math.Abs(a.Instructions-b.Instructions) < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Catalog tests

func TestCatalogHas59Applications(t *testing.T) {
	if got := len(Catalog()); got != 59 {
		t.Fatalf("catalog size = %d, want 59 (paper §4.1)", got)
	}
}

func TestCatalogComposition(t *testing.T) {
	var spec, parsec int
	for _, p := range Catalog() {
		switch p.Suite {
		case "spec2006":
			spec++
		case "parsec3":
			parsec++
		default:
			t.Fatalf("unknown suite %q", p.Suite)
		}
	}
	if spec != 50 || parsec != 9 {
		t.Fatalf("composition spec=%d parsec=%d, want 50/9", spec, parsec)
	}
}

func TestCatalogProfilesValidate(t *testing.T) {
	for _, p := range Catalog() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s invalid: %v", p.Name, err)
		}
	}
}

func TestCatalogNamesUniqueAndSorted(t *testing.T) {
	names := Names()
	seen := map[string]bool{}
	for i, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		seen[n] = true
		if i > 0 && names[i-1] >= n {
			t.Fatalf("names not sorted at %q", n)
		}
	}
}

func TestCatalogMultiInputApps(t *testing.T) {
	// The paper: 8 SPEC programs with multiple inputs.
	prefix := map[string]int{}
	for _, p := range Catalog() {
		if p.Suite != "spec2006" {
			continue
		}
		// The variant index is always the single final digit ("bzip26" is
		// bzip2's input 6).
		base := p.Name
		if last := base[len(base)-1]; last >= '0' && last <= '9' {
			base = base[:len(base)-1]
		}
		prefix[base]++
	}
	multi := 0
	for _, n := range prefix {
		if n > 1 {
			multi++
		}
	}
	if multi != 8 {
		t.Fatalf("multi-input SPEC programs = %d, want 8", multi)
	}
	if prefix["gcc_base"] != 9 {
		t.Fatalf("gcc inputs = %d, want 9", prefix["gcc_base"])
	}
	if prefix["bzip2"] != 6 {
		t.Fatalf("bzip2 inputs = %d, want 6", prefix["bzip2"])
	}
}

func TestCatalogFig5Names(t *testing.T) {
	// Workload labels from the paper's Figure 5 must exist.
	for _, name := range []string{
		"milc1", "gcc_base9", "GemsFDTD1", "lbm1", "leslie3d1", "mcf1",
		"omnetpp1", "Xalan1", "streamcluster1", "libquantum1", "bzip24",
		"soplex2", "astar2", "gobmk4", "hmmer2", "h264ref3", "perlbench2",
		"namd1", "calculix1", "blackscholes1", "swaptions1", "dedup1",
		"fluidanimate1", "bodytrack1", "canneal1", "povray1", "tonto1",
		"zeusmp1", "sjeng1", "bwaves1", "sphinx1", "gromacs1", "ferret1",
		"facesim1",
	} {
		if _, err := ByName(name); err != nil {
			t.Errorf("missing catalog entry %q", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nosuchapp"); err == nil {
		t.Fatal("expected error for unknown app")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustByName("nosuchapp")
}

func TestCatalogVariantsDiffer(t *testing.T) {
	a := MustByName("gcc_base1")
	b := MustByName("gcc_base2")
	if a.Phases[0].Curve.Footprint() == b.Phases[0].Curve.Footprint() {
		t.Fatal("input variants should have different working sets")
	}
	if a.Phases[0].APKI == b.Phases[0].APKI {
		t.Fatal("input variants should have different access rates")
	}
}

func TestCatalogClassBehaviour(t *testing.T) {
	m := machine.Default()
	full := float64(m.LLCBytes)
	oneWay := m.WayBytes()
	for _, p := range Catalog() {
		ph := p.Phases[0]
		fullPerf := PhasePerf(m, ph, full, 1, 1)
		smallPerf := PhasePerf(m, ph, oneWay, 1, 1)
		switch p.Class {
		case ClassCompute:
			// Compute apps barely notice cache loss.
			if smallPerf.IPC < 0.7*fullPerf.IPC {
				t.Errorf("%s: compute app lost %.0f%% IPC from cache squeeze",
					p.Name, 100*(1-smallPerf.IPC/fullPerf.IPC))
			}
		case ClassStream:
			// Streamers are bandwidth-hungry even with the full LLC.
			if fullPerf.BytesPerSec < 4e8 {
				t.Errorf("%s: streamer only demands %.1e B/s", p.Name, fullPerf.BytesPerSec)
			}
		case ClassCache:
			// Cache-sensitive apps lose noticeably when squeezed.
			if smallPerf.IPC > 0.95*fullPerf.IPC {
				t.Errorf("%s: cache-sensitive app unaffected by squeeze", p.Name)
			}
		}
	}
}

func TestCatalogSharedAndDeterministic(t *testing.T) {
	a := Catalog()
	b := Catalog()
	if &a[0] != &b[0] {
		t.Fatal("catalog should be memoised")
	}
}

func BenchmarkPhasePerf(b *testing.B) {
	m := machine.Default()
	ph := MustByName("omnetpp1").Phases[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PhasePerf(m, ph, float64(i%20)*MB, 1.2, 1.05)
	}
}
