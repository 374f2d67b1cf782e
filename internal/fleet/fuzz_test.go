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

// FuzzReadIncident feeds the incident bundle decoder arbitrary input: it
// must never panic, and whatever it accepts must re-dump to bytes that it
// accepts again and that re-dump identically. The seeds are the
// committed node-loss bundle cut to its manifest and first flight line,
// and a manifest of another schema, which the decoder refuses.
func FuzzReadIncident(f *testing.F) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "cmd", "dicer-fleet", "testdata", "incidents",
		"incident-000-p0011-n002-node-loss.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	f.Add(bytes.Join(lines[:2], nil))
	f.Add([]byte(`{"schema":"dicer-incident/v0","seq":0,"trigger":"node-loss","node":2,"period":11}` + "\n"))
	dump := func(t *testing.T, inc *Incident) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := inc.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		inc, err := ReadIncident(bytes.NewReader(in))
		if err != nil {
			return
		}
		once := dump(t, inc)
		again, err := ReadIncident(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-dumped bundle does not decode: %v\n%s", err, once)
		}
		if twice := dump(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("re-dumping is not a fixpoint:\n%s\n%s", once, twice)
		}
	})
}
