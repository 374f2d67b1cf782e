package trace

import "testing"

func TestParseSizeSuffixes(t *testing.T) {
	cases := map[string]uint64{
		"4096": 4096, "512k": 512 << 10, "8m": 8 << 20, "1g": 1 << 30, "2M": 2 << 20,
	}
	for s, want := range cases {
		got, err := ParseSpecSize(s)
		if err != nil || got != want {
			t.Errorf("ParseSpecSize(%q) = %d, %v; want %d", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "x", "12q3", "k"} {
		if _, err := ParseSpecSize(bad); err == nil {
			t.Errorf("ParseSpecSize(%q): expected error", bad)
		}
	}
}

func TestParseSpecSimpleGenerators(t *testing.T) {
	cases := []struct {
		spec      string
		footprint uint64
	}{
		{"loop:1m", 1 << 20},
		{"stream", 0},
		{"strided:64k:128", 64 << 10},
		{"zipf:2m", 2 << 20},
		{"zipf:2m:0.5", 2 << 20},
	}
	for _, tc := range cases {
		g, err := ParseSpec(tc.spec, 1)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		if got := g.Footprint(); got != tc.footprint {
			t.Errorf("%q footprint = %d, want %d", tc.spec, got, tc.footprint)
		}
		// Must produce addresses without panicking.
		for i := 0; i < 100; i++ {
			g.Next()
		}
	}
}

func TestParseSpecMix(t *testing.T) {
	g, err := ParseSpec("mix(loop:1m@0.5,stream@0.2,zipf:4m:1.2@0.3)", 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.Footprint() != 0 {
		t.Fatal("mix with a stream should report unbounded footprint")
	}
	// Components live in disjoint regions: collect addresses and confirm
	// at least three distinct high regions appear.
	regions := map[uint64]bool{}
	for i := 0; i < 3000; i++ {
		regions[g.Next()>>40] = true
	}
	if len(regions) < 3 {
		t.Fatalf("mix components not in distinct regions: %v", regions)
	}
}

func TestParseSpecNestedMix(t *testing.T) {
	g, err := ParseSpec("mix(mix(loop:64k@1,loop:128k@1)@0.6,stream@0.4)", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		g.Next()
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"loop",
		"loop:1m:2m",
		"stream:1m",
		"strided:1m",
		"zipf",
		"zipf:1m:x",
		"bogus:1m",
		"mix(loop:1m)",   // missing weight
		"mix(loop:1m@x)", // bad weight
		"mix(bogus@1)",   // bad sub-spec
		"mix(loop:1m@0)", // zero weight (rejected by NewMix)
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec, 1); err == nil {
			t.Errorf("ParseSpec(%q): expected error", spec)
		}
	}
}

func TestParseSpecDeterministic(t *testing.T) {
	a, err := ParseSpec("mix(zipf:1m:0.8@0.7,stream@0.3)", 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("mix(zipf:1m:0.8@0.7,stream@0.3)", 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same spec and seed diverged")
		}
	}
}

func TestSplitTop(t *testing.T) {
	got := splitTop("a,b(c,d),e")
	if len(got) != 3 || got[0] != "a" || got[1] != "b(c,d)" || got[2] != "e" {
		t.Fatalf("splitTop = %v", got)
	}
}
