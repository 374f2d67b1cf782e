package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenTraces are the committed trace files under the repository's
// testdata directory.
var goldenTraces = []string{"ctt_milc", "ctf_omnetpp_chaos", "recluster"}

// encode writes h and recs through the JSONL sink.
func encode(t *testing.T, h Header, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	jl := NewJSONL(&buf)
	if err := jl.Start(h); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		jl.Emit(&recs[i])
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTracesReencode: every committed golden decodes and
// re-encodes through JSONL byte for byte.
func TestGoldenTracesReencode(t *testing.T) {
	for _, name := range goldenTraces {
		raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".jsonl.golden"))
		if err != nil {
			t.Fatal(err)
		}
		h, recs, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := encode(t, h, recs); !bytes.Equal(got, raw) {
			t.Errorf("%s: re-encoding changed the trace (%d vs %d bytes)", name, len(got), len(raw))
		}
	}
}

// FuzzReadTrace feeds the trace decoder arbitrary input: it must never
// panic, and whatever it accepts must re-encode through JSONL to a
// fixpoint — encoding, decoding and encoding again gives the same bytes.
// The seeds are the committed goldens, cut to their header, first
// record and first re-plan record (the fuzzer minimises every input it
// finds interesting, which whole 30 KB traces stall), and a header line
// of each earlier schema, which the decoder refuses.
func FuzzReadTrace(f *testing.F) {
	for _, name := range goldenTraces {
		raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".jsonl.golden"))
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(raw, []byte("\n"))
		seed := bytes.Join(lines[:2], nil)
		for _, l := range lines[2:] {
			if bytes.Contains(l, []byte(`"plan":`)) {
				seed = append(seed, l...)
				break
			}
		}
		f.Add(seed)
	}
	f.Add([]byte(`{"schema":"dicer-trace/v1","policy":"DICER","hp":"milc1","num_ways":20}` + "\n"))
	f.Add([]byte(`{"schema":"dicer-trace/v2","policy":"DICER-clustered","hps":["milc1","namd1"],"num_ways":20,"clos_budget":4}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		h, recs, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		once := encode(t, h, recs)
		h2, recs2, err := ReadTrace(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, once)
		}
		if twice := encode(t, h2, recs2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixpoint:\n%s\n%s", once, twice)
		}
	})
}
