package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// warmRecord is a record that has carried heartbeats and an event,
// zeroed as Decode zeroes one before decoding into it.
func warmRecord() *ClusterRecord {
	rec := syntheticRecord(3)
	rec.Events = []FleetEvent{{Cause: CauseMigration, Node: 1, Jobs: []int{7}, Detail: "burn"}}
	rec.reset()
	return rec
}

// FuzzReadClusterTrace feeds the cluster trace decoder arbitrary input:
// it must never panic, and whatever it accepts must re-encode to a
// fixpoint — encoding, decoding and encoding again gives the same
// bytes. Every line after the first also goes to the one-pass decoder
// directly: a line it accepts encoding/json must accept too, into the
// same record, both decoding into a warm record zeroed as Decode zeroes
// one. The seeds are the committed cluster golden cut to its
// header and first record, and to its first two (the fuzzer minimises
// every input it finds interesting, and whole traces stall it), a
// header of another schema, which the decoder refuses, and the golden's
// header over each of fallbackLines' variants of its first record.
func FuzzReadClusterTrace(f *testing.F) {
	raw, err := os.ReadFile(goldenClusterTraces[0])
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	f.Add(bytes.Join(lines[:2], nil))
	f.Add(bytes.Join(lines[:3], nil))
	f.Add([]byte(`{"schema":"dicer-trace/v3","policy":"DICER","hps":["milc1"],"num_ways":20}` + "\n"))
	for _, v := range fallbackLines(strings.TrimSuffix(string(lines[1]), "\n")) {
		f.Add([]byte(string(lines[0]) + v + "\n"))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, line := range bytes.Split(in, []byte("\n"))[1:] {
			fast, slow := warmRecord(), warmRecord()
			if !fast.decodeFast(bytes.TrimSuffix(line, []byte("\r"))) {
				continue
			}
			if err := json.Unmarshal(line, slow); err != nil {
				t.Fatalf("the fast decoder accepts a line encoding/json refuses (%v):\n%s", err, line)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("the fast decoder and encoding/json disagree on\n%s\n%+v\n%+v", line, fast, slow)
			}
		}

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
