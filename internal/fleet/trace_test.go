package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"dicer/internal/obs"
)

// syntheticRecord is one period of an n-node two-HP fleet, shaped like
// fleet-ops' records: every heartbeat field is set on some node, with
// frozen, lost, draining and retired nodes among them. It carries no
// events, so decoding it allocates nothing once warm.
func syntheticRecord(n int) *ClusterRecord {
	rec := &ClusterRecord{
		Period: 41, Arrivals: 64, Admitted: 33, Rejected: 31, Placed: 30, Requeued: 2,
		Done: 28, QueueLen: 32, Running: 3 * n, Freezes: 1, Losses: 1, NodesLive: n - n/40,
		Incidents: 1, SLOViolations: n / 3, FleetEFU: 0.30610443066925597,
		Nodes: make([]Heartbeat, n),
	}
	for i := range rec.Nodes {
		x := float64(i)
		hb := &rec.Nodes[i]
		hb.Node = i
		switch {
		case i%53 == 1:
			hb.Frozen = true
			continue
		case i%53 == 2:
			hb.Lost = true
			continue
		case i%40 == 3:
			hb.Draining, hb.Retired = true, i%80 == 3
			continue
		}
		hb.HPIPC = 0.6 + x/(3*float64(n))
		hb.HPNorm = 0.7 + x/7e3
		hb.HPGroups = 2
		hb.BECount = i % 9
		hb.HPWays = 4 + i%13
		hb.HPBWGbps = 2.2 + x/97
		hb.TotalGbps = 7 + x/31
		hb.Saturated = i%7 == 0
		hb.SLOViolated = i%3 == 0
		hb.NormSum = 1.6 + x/53
	}
	return rec
}

// goldenClusterTraces are the committed cluster traces: the static
// fleet's and the migration run's, which carries events.
var goldenClusterTraces = []string{
	filepath.Join("..", "..", "cmd", "dicer-fleet", "testdata", "cluster.jsonl.golden"),
	filepath.Join("..", "..", "cmd", "dicer-fleet", "testdata", "migration.jsonl.golden"),
}

// TestClusterRecordEncodeMatchesMarshal holds AppendJSON to json.Marshal
// byte for byte over the values where their formats could part: floats
// at the exponent-form cutoffs and the ends of the range, negative zero,
// negative ints, strings json escapes, nil and empty slices. It then
// decodes each line both ways. NaN and ±Inf must be refused by both,
// with the same error, and LineWriter must keep the first one.
func TestClusterRecordEncodeMatchesMarshal(t *testing.T) {
	var cases []ClusterRecord
	for _, f := range []float64{1e-6, 9.99e-7, 1e20, 1e21, math.Copysign(0, -1), 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 1.5e-7, -2.5e300, 0.1, 123456789.125} {
		cases = append(cases, ClusterRecord{FleetEFU: f, Nodes: []Heartbeat{{
			HPIPC: f, HPNorm: -f, HPBWGbps: f, TotalGbps: f, NormSum: f,
		}}})
	}
	for _, s := range []string{"<", ">", "&", "a<b>&c", "\x00", "\x1f", "\t\n", "\x7f", `"`, `\`,
		"\u2028", "\u2029", "é", "\xff", "bad\xc3(utf8", ""} {
		cases = append(cases, ClusterRecord{
			Events: []FleetEvent{{Cause: s, Node: 1, Detail: s}, {Cause: CauseRepack, Node: -1, Detail: "x" + s}},
			Nodes:  []Heartbeat{{}},
		})
	}
	cases = append(cases,
		ClusterRecord{},                       // nil Nodes: "nodes":null
		ClusterRecord{Nodes: []Heartbeat{}},   // empty Nodes: "nodes":[]
		ClusterRecord{Events: []FleetEvent{}}, // empty Events: omitted
		ClusterRecord{Events: []FleetEvent{{Cause: CauseMigration, Jobs: []int{}}}, Nodes: []Heartbeat{{}}},
		ClusterRecord{
			Period: -1, Arrivals: math.MaxInt64, Admitted: math.MinInt64, Rejected: -3, Placed: -4,
			Requeued: -5, Dropped: -6, Done: -7, QueueLen: -8, Running: -9, Freezes: -10, Losses: -11,
			Evicted: -12, Quarantined: -13, NodesLive: -14, Incidents: -15, SLOViolations: -16,
			Events: []FleetEvent{{Cause: CauseMigration, Node: -1, Jobs: []int{-3, 0, math.MaxInt64, math.MinInt64}}},
			Nodes: []Heartbeat{{Node: -2, Frozen: true, Lost: true, Draining: true, Retired: true,
				HPGroups: -1, BECount: -3, HPWays: -4, Saturated: true, SLOViolated: true}},
		},
		*syntheticRecord(64),
	)
	for i := range cases {
		rec := &cases[i]
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.AppendJSON([]byte("prefix"))
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("case %d: AppendJSON = %s, %v\njson.Marshal = %s", i, got, err, want)
		}
		var fast, slow ClusterRecord
		errFast, errSlow := fast.decodeLine(want), json.Unmarshal(want, &slow)
		if (errFast == nil) != (errSlow == nil) || !reflect.DeepEqual(fast, slow) {
			t.Fatalf("case %d: decodeLine = %+v, %v\njson.Unmarshal = %+v, %v", i, fast, errFast, slow, errSlow)
		}
	}

	good := syntheticRecord(2)
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, rec := range []*ClusterRecord{{FleetEFU: f}, {Nodes: []Heartbeat{{NormSum: f}}}} {
			_, jerr := json.Marshal(rec)
			_, err := rec.AppendJSON(nil)
			if jerr == nil || err == nil || err.Error() != jerr.Error() {
				t.Fatalf("%v: AppendJSON error %v, json.Marshal error %v", f, err, jerr)
			}
			var buf bytes.Buffer
			lw := obs.NewLineWriter(&buf)
			lw.WriteLine(good)
			lw.WriteLine(rec)
			lw.WriteLine(good)
			if err := lw.Flush(); err == nil || err.Error() != jerr.Error() {
				t.Fatalf("%v: LineWriter kept %v, want %v", f, err, jerr)
			}
			if n := bytes.Count(buf.Bytes(), []byte("\n")); n > 1 {
				t.Fatalf("%v: LineWriter wrote %d lines, want at most the one before the error", f, n)
			}
		}
	}
}

// TestClusterTraceGoldensTakeFastPath holds the one-pass decoder to the
// program's own output: every record line of the committed cluster
// traces must decode on the fast path, into one warm record as analyze
// decodes a trace, and re-encode to its own bytes. A fast path that
// quietly declined these lines would cost only speed, which no other
// test sees.
func TestClusterTraceGoldensTakeFastPath(t *testing.T) {
	for _, path := range goldenClusterTraces {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))[1:]
		var rec ClusterRecord
		events := 0
		for i, line := range lines {
			rec.reset()
			if !rec.decodeFast(line) {
				t.Fatalf("%s: record %d takes the fallback:\n%s", path, i, line)
			}
			events += len(rec.Events)
			got, err := rec.AppendJSON(nil)
			if err != nil || !bytes.Equal(got, line) {
				t.Fatalf("%s: record %d re-encodes to\n%s (%v), want\n%s", path, i, got, err, line)
			}
		}
		t.Logf("%s: %d records, %d events", filepath.Base(path), len(lines), events)
	}
}

// fallbackLines returns variants of a record line, laid out as
// AppendJSON writes it, that encoding/json reads (or refuses) but
// AppendJSON never writes, so the fast decoder must decline each.
func fallbackLines(line string) []string {
	head, _, _ := strings.Cut(line, `,"nodes":[`)
	return []string{
		strings.Replace(line, `{"period":0,"arrivals":1,`, `{"arrivals":1,"period":0,`, 1), // reordered keys
		strings.Replace(line, `"admitted":1,`, `"admitted": 1,`, 1),                        // whitespace
		line + " ",
		strings.Replace(line, `{"node":0,`, `{"\u006eode":0,`, 1), // escaped key
		strings.Replace(line, `{"node":0,`, `{"NODE":0,`, 1),      // case-folded key
		strings.Replace(line, `"running":0,`, `"running":0,"bogus":1,`, 1),
		strings.Replace(line, `{"node":0,`, `{"node":0,"frozen":false,`, 1),
		strings.Replace(line, `"running":0,`, `"running":0,"freezes":0,`, 1),
		head + `,"nodes":null}`,
		head + `,"nodes":[]}`,
		head + `,"events":[],"nodes":[]}`,
		strings.Replace(line, `"arrivals":1,`, `"arrivals":1e2,`, 1), // an int as 1e2: json refuses it
	}
}

// TestClusterRecordFallback checks that the fast decoder declines every
// line outside AppendJSON's layout, and that decodeLine then reads it
// exactly as encoding/json does, a partly written record
// notwithstanding.
func TestClusterRecordFallback(t *testing.T) {
	raw, err := os.ReadFile(goldenClusterTraces[0])
	if err != nil {
		t.Fatal(err)
	}
	line := strings.SplitN(string(raw), "\n", 3)[1]
	for i, v := range fallbackLines(line) {
		if v == line {
			t.Fatalf("variant %d leaves the golden's first record unchanged", i)
		}
		warm := syntheticRecord(8)
		warm.reset()
		if warm.decodeFast([]byte(v)) {
			t.Errorf("variant %d takes the fast path:\n%s", i, v)
		}
		got := syntheticRecord(8)
		errGot := got.decodeLine([]byte(v))
		var want ClusterRecord
		errWant := json.Unmarshal([]byte(v), &want)
		if (errGot == nil) != (errWant == nil) {
			t.Errorf("variant %d: decodeLine error %v, json.Unmarshal error %v", i, errGot, errWant)
			continue
		}
		if errGot == nil && !reflect.DeepEqual(*got, want) {
			t.Errorf("variant %d: decodeLine = %+v\njson.Unmarshal = %+v", i, got, want)
		}
	}
}

// TestTraceDecoderLines holds the line reader to bufio.ScanLines' cuts
// (CRLF ends, blank lines, a last line without "\n") with no length
// limit, and checks that read and decode errors name the record.
func TestTraceDecoderLines(t *testing.T) {
	raw, err := os.ReadFile(goldenClusterTraces[1])
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := ReadClusterTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	mangled := bytes.Join(lines, []byte("\r\n\n\r\n"))
	if _, got, err := ReadClusterTrace(bytes.NewReader(mangled)); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("CRLF, blank lines, no final newline: %d records, %v; want %d", len(got), err, len(want))
	}
	// Under bufio's smallest buffer every line is assembled from pieces,
	// some split between its "\r" and "\n".
	d := &TraceDecoder{r: bufio.NewReaderSize(bytes.NewReader(mangled), 16)}
	if _, err := d.readLine(); err != nil {
		t.Fatal(err)
	}
	var got []ClusterRecord
	for {
		var rec ClusterRecord
		if err := d.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("16-byte reader buffer: %d records differ from the %d read whole", len(got), len(want))
	}

	bad := string(lines[0]) + "\n" + string(lines[1]) + "\n" + `{"period":"x"}` + "\n"
	if _, _, err := ReadClusterTrace(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "bad record 1") {
		t.Fatalf("bad second record: error %v, want one naming record 1", err)
	}
	errRead := errors.New("disk gone")
	r := io.MultiReader(bytes.NewReader(bytes.Join(lines[:3], []byte("\n"))), strings.NewReader("\n{"), iotest.ErrReader(errRead))
	if _, recs, err := ReadClusterTrace(r); !errors.Is(err, errRead) || !strings.Contains(err.Error(), "record 2") || len(recs) != 2 {
		t.Fatalf("read error after two records: %d records, error %v; want 2 and one naming record 2", len(recs), err)
	}
}

// TestClusterTraceCodecAllocFree pins the codec's steady state: once
// LineWriter's buffer and the decoder's record and line buffer are warm,
// writing a 512-node period's record and decoding one back allocate
// nothing.
func TestClusterTraceCodecAllocFree(t *testing.T) {
	rec := syntheticRecord(512)
	var trace bytes.Buffer
	lw := obs.NewLineWriter(&trace)
	lw.WriteLine(TraceHeader{Schema: TraceSchema})
	for i := 0; i < 60; i++ {
		lw.WriteLine(rec)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	discard := obs.NewLineWriter(io.Discard)
	discard.WriteLine(rec)
	if got := testing.AllocsPerRun(50, func() { discard.WriteLine(rec) }); got != 0 {
		t.Errorf("encode: %v allocs per record, want 0", got)
	}
	if err := discard.Flush(); err != nil {
		t.Fatal(err)
	}

	d, _, err := NewTraceDecoder(&trace)
	if err != nil {
		t.Fatal(err)
	}
	var back ClusterRecord
	if err := d.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		if err := d.Decode(&back); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decode: %v allocs per record, want 0", got)
	}
	if !reflect.DeepEqual(&back, rec) {
		t.Error("the warm record decodes differently from what was written")
	}
}
