package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// LineWriter writes JSON Lines: one value per line, buffered, first
// error sticky. Output is deterministic for deterministic values (struct
// fields marshal in declaration order, floats in Go's shortest exact
// form), which is what makes golden-trace tests byte-for-byte stable.
// Both the per-run trace sink (JSONL) and the fleet's cluster trace are
// built on it.
//
// A LineWriter is not safe for concurrent use; give each run its own.
type LineWriter struct {
	w   *bufio.Writer
	err error // first write error; subsequent calls are no-ops
}

// NewLineWriter wraps w. Call Flush after the run; lines are buffered.
func NewLineWriter(w io.Writer) *LineWriter {
	return &LineWriter{w: bufio.NewWriter(w)}
}

// WriteLine marshals v and appends it as one line.
func (l *LineWriter) WriteLine(v any) {
	if l.err != nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		l.err = err
		return
	}
	if _, err := l.w.Write(b); err != nil {
		l.err = err
		return
	}
	l.err = l.w.WriteByte('\n')
}

// Flush drains the buffer and returns the first error encountered by any
// write so far.
func (l *LineWriter) Flush() error {
	if l.err != nil {
		return l.err
	}
	return l.w.Flush()
}

// Err returns the first error encountered so far.
func (l *LineWriter) Err() error { return l.err }

// JSONL writes a trace as JSON Lines: one Header line followed by one
// line per Record.
//
// JSONL is not safe for concurrent Emit calls; give each run its own
// writer (the per-runner pattern the experiments layer uses).
type JSONL struct {
	lw *LineWriter
}

// NewJSONL wraps w. Call Flush (or Close on the owning file) after the
// run; records are buffered.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{lw: NewLineWriter(w)}
}

// Start implements HeaderSink: the header becomes the first line.
func (j *JSONL) Start(h Header) error {
	j.lw.WriteLine(h)
	return j.lw.Err()
}

// Emit implements Sink.
func (j *JSONL) Emit(r *Record) { j.lw.WriteLine(r) }

// Flush drains the buffer and returns the first error encountered by any
// write so far.
func (j *JSONL) Flush() error { return j.lw.Flush() }

var _ HeaderSink = (*JSONL)(nil)

// ReadTrace parses a JSONL trace: the header line, then every record.
func ReadTrace(r io.Reader) (Header, []Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)

	var h Header
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return h, nil, err
		}
		return h, nil, fmt.Errorf("obs: empty trace")
	}
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return h, nil, fmt.Errorf("obs: bad trace header: %w", err)
	}
	if h.Schema != Schema {
		return h, nil, fmt.Errorf("obs: unsupported trace schema %q (want %q)", h.Schema, Schema)
	}

	var recs []Record
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return h, recs, fmt.Errorf("obs: bad record on line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	return h, recs, sc.Err()
}
