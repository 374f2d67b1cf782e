package resctrl

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"dicer/internal/app"
	"dicer/internal/cache"
	"dicer/internal/machine"
	"dicer/internal/mrc"
	"dicer/internal/sim"
)

func testApp(name string) app.Profile {
	return app.Profile{Name: name, Suite: "test", Class: app.ClassMixed,
		Phases: []app.Phase{{
			Name: "p", Instructions: 1e12, BaseCPI: 0.8, APKI: 12,
			Curve: mrc.MustCurve(0.2, mrc.Component{Bytes: 2 * app.MB, Frac: 0.4}),
		}}}
}

func testEmu(t *testing.T, withMBA bool) *Emu {
	t.Helper()
	r, err := sim.New(machine.Default(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(0, 0, testApp("hp")); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := r.Attach(i, 1, testApp("be")); err != nil {
			t.Fatal(err)
		}
	}
	return NewEmu(r, withMBA)
}

func TestEmuGeometry(t *testing.T) {
	e := testEmu(t, false)
	if e.NumWays() != 20 || e.NumClos() != 2 {
		t.Fatalf("geometry %d ways / %d clos, want 20/2", e.NumWays(), e.NumClos())
	}
	if got := e.LinkCapacityGbps(); math.Abs(got-68.3) > 1e-9 {
		t.Fatalf("link capacity = %g", got)
	}
}

func TestEmuCBMRoundTrip(t *testing.T) {
	e := testEmu(t, false)
	if err := e.SetCBM(0, 0xffffe); err != nil {
		t.Fatal(err)
	}
	if got := e.CBM(0); got != 0xffffe {
		t.Fatalf("CBM readback %#x", got)
	}
	if err := e.SetCBM(0, 0x5); err == nil {
		t.Fatal("expected contiguity error")
	}
}

func TestEmuMBAGate(t *testing.T) {
	e := testEmu(t, false)
	if err := e.SetMBACap(1, 20); err == nil {
		t.Fatal("expected error on platform without MBA")
	}
	e2 := testEmu(t, true)
	if err := e2.SetMBACap(1, 20); err != nil {
		t.Fatal(err)
	}
}

func TestEmuCountersMonotone(t *testing.T) {
	e := testEmu(t, false)
	before := e.Counters()
	e.Runner().Step(1)
	after := e.Counters()
	if after.Time <= before.Time {
		t.Fatal("time did not advance")
	}
	for i := range after.Cores {
		if after.Cores[i].Instructions <= before.Cores[i].Instructions {
			t.Fatalf("core %d instructions did not advance", i)
		}
	}
	for i := range after.Clos {
		if after.Clos[i].MemBytes < before.Clos[i].MemBytes {
			t.Fatalf("group %d memory bytes went backwards", i)
		}
	}
}

func TestMeterDeltas(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	e.Runner().Step(1)
	p := m.Sample()
	if math.Abs(p.Seconds-1) > 1e-9 {
		t.Fatalf("period length %g, want 1", p.Seconds)
	}
	hpIPC := p.CoreIPC(0)
	if hpIPC <= 0 || hpIPC > 2 {
		t.Fatalf("HP period IPC %g implausible", hpIPC)
	}
	if p.TotalGbps <= 0 {
		t.Fatal("no bandwidth measured")
	}
	// Second sample: the delta should be roughly the same steady state,
	// not the cumulative double.
	e.Runner().Step(1)
	p2 := m.Sample()
	if math.Abs(p2.CoreIPC(0)-hpIPC) > 0.05*hpIPC {
		t.Fatalf("steady state IPC drifted: %g vs %g", p2.CoreIPC(0), hpIPC)
	}
	if math.Abs(p2.TotalGbps-p.TotalGbps) > 0.1*p.TotalGbps {
		t.Fatalf("steady state bandwidth drifted: %g vs %g", p2.TotalGbps, p.TotalGbps)
	}
}

func TestMeterGroupHelpers(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	e.Runner().Step(1)
	p := m.Sample()
	if p.GroupBW(0) <= 0 || p.GroupBW(1) <= 0 {
		t.Fatal("group bandwidth not measured")
	}
	if p.GroupBW(7) != 0 {
		t.Fatal("unknown group should report 0")
	}
	if p.CoreIPC(99) != 0 {
		t.Fatal("unknown core should report 0")
	}
	if p.ClosMeanIPC(1) <= 0 {
		t.Fatal("BE class mean IPC missing")
	}
	if p.ClosMeanIPC(9) != 0 {
		t.Fatal("unknown class mean should be 0")
	}
	total := p.GroupBW(0) + p.GroupBW(1)
	if math.Abs(total-p.TotalGbps) > 1e-9 {
		t.Fatalf("group bandwidths %g do not sum to total %g", total, p.TotalGbps)
	}
}

// ---------------------------------------------------------------------------
// Schemata codec

func TestParseSchemataL3(t *testing.T) {
	s, err := ParseSchemata("L3:0=fffff;1=00001", 20)
	if err != nil {
		t.Fatal(err)
	}
	if s.Resource != "L3" {
		t.Fatalf("resource %q", s.Resource)
	}
	if s.Masks[0] != 0xfffff || s.Masks[1] != 1 {
		t.Fatalf("masks %+v", s.Masks)
	}
}

func TestParseSchemataMB(t *testing.T) {
	s, err := ParseSchemata("MB:0=50", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Percent[0] != 50 {
		t.Fatalf("percent %+v", s.Percent)
	}
}

func TestParseSchemataErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"L2:0=f",   // unsupported resource
		"L3:0",     // missing value
		"L3:x=f",   // bad id
		"L3:0=zz",  // bad hex
		"L3:0=5",   // non-contiguous (with ways=20)
		"L3:0=0",   // empty mask
		"MB:0=0",   // percent out of range
		"MB:0=101", // percent out of range
	}
	for _, line := range bad {
		if _, err := ParseSchemata(line, 20); err == nil {
			t.Errorf("expected parse error for %q", line)
		}
	}
}

func TestFormatSchemata(t *testing.T) {
	s := Schemata{Resource: "L3", Masks: map[int]uint64{1: 1, 0: 0xffffe}}
	if got := FormatSchemata(s, 20); got != "L3:0=ffffe;1=00001" {
		t.Fatalf("formatted %q", got)
	}
	mb := Schemata{Resource: "MB", Percent: map[int]int{0: 50}}
	if got := FormatSchemata(mb, 0); got != "MB:0=50" {
		t.Fatalf("formatted %q", got)
	}
}

// Property: format -> parse round-trips arbitrary valid contiguous masks.
func TestPropertySchemataRoundTrip(t *testing.T) {
	f := func(lowRaw, widthRaw, ways2 uint8) bool {
		ways := int(ways2%19) + 2
		width := int(widthRaw)%ways + 1
		low := int(lowRaw) % (ways - width + 1)
		mask := cache.ContiguousMask(low, width)
		s := Schemata{Resource: "L3", Masks: map[int]uint64{0: mask, 1: 1}}
		line := FormatSchemata(s, ways)
		parsed, err := ParseSchemata(line, ways)
		if err != nil {
			return false
		}
		return parsed.Masks[0] == mask && parsed.Masks[1] == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Filesystem facade

func testFS(t *testing.T) (*FS, *Emu) {
	t.Helper()
	e := testEmu(t, true)
	return NewFS(e), e
}

func TestFSInfoFiles(t *testing.T) {
	fs, _ := testFS(t)
	cbm, err := fs.ReadFile("/info/L3/cbm_mask")
	if err != nil || cbm != "fffff\n" {
		t.Fatalf("cbm_mask = %q, err %v", cbm, err)
	}
	n, err := fs.ReadFile("/info/L3/num_closids")
	if err != nil || n != "2\n" {
		t.Fatalf("num_closids = %q, err %v", n, err)
	}
	if _, err := fs.ReadFile("/info/L3/nope"); err == nil {
		t.Fatal("expected error for unknown info file")
	}
}

func TestFSMkdirAssignsClos(t *testing.T) {
	fs, e := testFS(t)
	if err := fs.Mkdir("/be"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/be/schemata", "L3:0=00001"); err != nil {
		t.Fatal(err)
	}
	if got := e.CBM(1); got != 1 {
		t.Fatalf("group write did not reach CLOS 1: %#x", got)
	}
	// Only 2 CLOS on this platform: a second group must fail.
	if err := fs.Mkdir("/more"); err == nil {
		t.Fatal("expected out-of-closids error")
	}
	if err := fs.Mkdir("/be"); err == nil {
		t.Fatal("expected error for duplicate group")
	}
	if err := fs.Mkdir("/a/b"); err == nil {
		t.Fatal("expected error for nested group")
	}
}

func TestFSSchemataReadWrite(t *testing.T) {
	fs, e := testFS(t)
	if err := fs.WriteFile("/schemata", "L3:0=ffffe"); err != nil {
		t.Fatal(err)
	}
	if got := e.CBM(0); got != 0xffffe {
		t.Fatalf("root schemata write did not land: %#x", got)
	}
	s, err := fs.ReadFile("/schemata")
	if err != nil {
		t.Fatal(err)
	}
	if s != "L3:0=ffffe\n" {
		t.Fatalf("schemata readback %q", s)
	}
	if err := fs.WriteFile("/schemata", "L3:0=50005"); err == nil {
		t.Fatal("expected error for non-contiguous mask")
	}
	if err := fs.WriteFile("/cpus_list", "1"); err == nil {
		t.Fatal("expected error writing read-only file")
	}
}

func TestFSMBAWrite(t *testing.T) {
	fs, _ := testFS(t)
	if err := fs.Mkdir("/be"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/be/schemata", "MB:0=50"); err != nil {
		t.Fatal(err)
	}
	// Platform without MBA rejects the write.
	e2 := testEmu(t, false)
	fs2 := NewFS(e2)
	if err := fs2.WriteFile("/schemata", "MB:0=50"); err == nil {
		t.Fatal("expected error on MBA-less platform")
	}
}

func TestFSMonitoringFiles(t *testing.T) {
	fs, e := testFS(t)
	e.Runner().Step(1)
	occ, err := fs.ReadFile("/mon_data/mon_L3_00/llc_occupancy")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(occ, "\n") || occ == "0\n" {
		t.Fatalf("llc_occupancy = %q", occ)
	}
	bw, err := fs.ReadFile("/mon_data/mon_L3_00/mbm_total_bytes")
	if err != nil {
		t.Fatal(err)
	}
	if bw == "0\n" {
		t.Fatalf("mbm_total_bytes = %q", bw)
	}
}

func TestFSCpusList(t *testing.T) {
	fs, _ := testFS(t)
	cpus, err := fs.ReadFile("/cpus_list")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(cpus) != "0" {
		t.Fatalf("root cpus_list = %q, want 0", cpus)
	}
}

func TestFSWriteErrors(t *testing.T) {
	fs, _ := testFS(t)
	if err := fs.WriteFile("/schemata", "L3:1=fffff"); err == nil {
		t.Fatal("expected error for schemata missing domain 0")
	}
	if err := fs.WriteFile("/schemata", "garbage"); err == nil {
		t.Fatal("expected parse error")
	}
	if err := fs.WriteFile("/nogroup/schemata", "L3:0=1"); err == nil {
		t.Fatal("expected error for unknown group")
	}
	if err := fs.WriteFile("/", "x"); err == nil {
		t.Fatal("expected error writing a directory")
	}
	// Blank lines in schemata writes are ignored (kernel behaviour).
	if err := fs.WriteFile("/schemata", "\nL3:0=fffff\n\n"); err != nil {
		t.Fatal(err)
	}
}

func TestFSGroupMonitoringSeparation(t *testing.T) {
	fs, e := testFS(t)
	if err := fs.Mkdir("/be"); err != nil {
		t.Fatal(err)
	}
	e.Runner().Step(2)
	rootBW, err := fs.ReadFile("/mon_data/mon_L3_00/mbm_total_bytes")
	if err != nil {
		t.Fatal(err)
	}
	beBW, err := fs.ReadFile("/be/mon_data/mon_L3_00/mbm_total_bytes")
	if err != nil {
		t.Fatal(err)
	}
	if rootBW == beBW {
		t.Fatalf("root and BE group report identical traffic %q", rootBW)
	}
}

func TestMeterWithNoTimeElapsed(t *testing.T) {
	e := testEmu(t, false)
	m := NewMeter(e)
	p := m.Sample() // immediately: zero-length period
	if p.Seconds != 0 {
		t.Fatalf("period length %g", p.Seconds)
	}
	if p.TotalGbps != 0 {
		t.Fatalf("zero-length period bandwidth %g", p.TotalGbps)
	}
	for _, c := range p.Cores {
		if c.IPC != 0 {
			t.Fatalf("zero-length period IPC %g", c.IPC)
		}
	}
}

// BenchmarkMeterSample times one monitoring-period read of a paper cell:
// omnetpp1 and nine gcc_base1 copies on the CT split. Only Sample is
// timed. The runner stands still, so every Sample after the first reads
// a zero-length period over the same counters; the counter read, the
// baseline match and the per-entry loop are the work of any Sample.
func BenchmarkMeterSample(b *testing.B) {
	r, err := sim.New(machine.Default(), 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.Attach(0, 0, app.MustByName("omnetpp1")); err != nil {
		b.Fatal(err)
	}
	for i := 1; i < 10; i++ {
		if err := r.Attach(i, 1, app.MustByName("gcc_base1")); err != nil {
			b.Fatal(err)
		}
	}
	if err := r.SetMask(0, cache.ContiguousMask(1, 19)); err != nil {
		b.Fatal(err)
	}
	if err := r.SetMask(1, cache.ContiguousMask(0, 1)); err != nil {
		b.Fatal(err)
	}
	r.Step(0.25)
	m := NewMeter(NewEmu(r, false))
	m.Sample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sample()
	}
}
