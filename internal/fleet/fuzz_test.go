package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dicer/internal/obs"
)

// encodeClusterTrace writes hdr and recs the way the cluster writes its
// trace.
func encodeClusterTrace(t *testing.T, hdr TraceHeader, recs []ClusterRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	lw := obs.NewLineWriter(&buf)
	lw.WriteLine(hdr)
	for i := range recs {
		lw.WriteLine(&recs[i])
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadClusterTrace feeds the cluster trace decoder arbitrary input:
// it must never panic, and whatever it accepts must re-encode to a
// fixpoint — encoding, decoding and encoding again gives the same
// bytes. The seeds are the committed cluster golden cut to its header
// and first record, and to its first two (the fuzzer minimises every
// input it finds interesting, and whole traces stall it), and a header
// of another schema, which the decoder refuses.
func FuzzReadClusterTrace(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "dicer-fleet", "testdata", "cluster.jsonl.golden"))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	f.Add(bytes.Join(lines[:2], nil))
	f.Add(bytes.Join(lines[:3], nil))
	f.Add([]byte(`{"schema":"dicer-trace/v3","policy":"DICER","hps":["milc1"],"num_ways":20}` + "\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		hdr, recs, err := ReadClusterTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		once := encodeClusterTrace(t, hdr, recs)
		hdr2, recs2, err := ReadClusterTrace(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v\n%s", err, once)
		}
		if twice := encodeClusterTrace(t, hdr2, recs2); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixpoint:\n%s\n%s", once, twice)
		}
	})
}
