package diag

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// FuzzAnalyze feeds the offline analyzer arbitrary input: it must never
// panic, and for whatever it accepts the report must render and encode,
// and a second Analyze of the same bytes must encode to the same JSON.
// The seeds are the header and first record or two of a two-CLOS
// trace, a grouped trace and a cluster trace (the fuzzer minimises
// every input it finds interesting, and whole traces stall it).
func FuzzAnalyze(f *testing.F) {
	for _, path := range []string{
		filepath.Join("..", "..", "testdata", "ctt_milc.jsonl.golden"),
		filepath.Join("..", "..", "testdata", "recluster.jsonl.golden"),
		filepath.Join("..", "..", "cmd", "dicer-fleet", "testdata", "cluster.jsonl.golden"),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(raw, []byte("\n"))
		f.Add(bytes.Join(lines[:2], nil))
		f.Add(bytes.Join(lines[:3], nil))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		rep, err := Analyze(bytes.NewReader(in), AnalyzeOptions{})
		if err != nil {
			return
		}
		rep.Render(io.Discard)
		once, err := rep.JSON()
		if err != nil {
			t.Fatalf("accepted trace's report does not encode: %v", err)
		}
		again, err := Analyze(bytes.NewReader(in), AnalyzeOptions{})
		if err != nil {
			t.Fatalf("second Analyze refuses what the first accepted: %v", err)
		}
		twice, err := again.JSON()
		if err != nil {
			t.Fatalf("second report does not encode: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("two analyses of the same bytes differ:\n%s\n%s", once, twice)
		}
	})
}
