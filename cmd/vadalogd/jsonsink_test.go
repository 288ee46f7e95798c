package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
)

// escaperSeeds covers every escape class of encoding/json's string
// encoder; the fuzz target starts from them and the table test below runs
// them in tier-1.
var escaperSeeds = []string{
	"",
	"plain",
	`say "hi"`,
	`back\slash`,
	"line\nfeed\rreturn\ttab",
	"\b\f",
	"\x00\x01\x02\x03\x04\x05\x06\x07\x0b\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f",
	"del\x7f",
	"<script>&amp;</script>",
	"sep\u2028para\u2029end",
	"\u2027\u202a", // neighbours of U+2028/9 share their first two bytes
	"héllo wörld — 日本語 🎉",
	"\xff",             // never valid
	"\xc3",             // truncated two-byte sequence
	"\xe2\x80",         // truncated three-byte sequence (prefix of U+2028)
	"\xf0\x9f\x8e",     // truncated four-byte sequence
	"\xc0\xaf",         // overlong '/'
	"\xe0\x80\xaf",     // overlong three-byte
	"\xed\xa0\x80",     // UTF-16 surrogate half
	"\xf4\x90\x80\x80", // beyond U+10FFFF
	"a\xffb\"c d<e",
	"\ufffd", // the replacement rune itself is valid and passes through
}

func checkEscaper(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
		t.Errorf("appendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
	}
}

func TestAppendJSONStringSeeds(t *testing.T) {
	for _, s := range escaperSeeds {
		checkEscaper(t, s)
	}
	// Every single byte, alone and between safe neighbours.
	for b := 0; b < 256; b++ {
		checkEscaper(t, string([]byte{byte(b)}))
		checkEscaper(t, "x"+string([]byte{byte(b)})+"y")
	}
	// Appending extends dst rather than replacing it.
	if got := string(appendJSONString([]byte("["), "a")); got != `["a"` {
		t.Errorf("append onto a prefix: %s", got)
	}
}

// FuzzAppendJSONString: the hand-rolled escaper is byte-identical to
// encoding/json on arbitrary input, valid UTF-8 or not.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range escaperSeeds {
		f.Add(s)
	}
	f.Fuzz(checkEscaper)
}

// stubWriter is a ResponseWriter over any io.Writer that counts the
// Writes and Flushes delivering the body.
type stubWriter struct {
	hdr             http.Header
	out             io.Writer
	writes, flushes int
}

func newStubWriter(out io.Writer) *stubWriter { return &stubWriter{hdr: http.Header{}, out: out} }

func (w *stubWriter) Header() http.Header { return w.hdr }
func (w *stubWriter) WriteHeader(int)     {}
func (w *stubWriter) Flush()              { w.flushes++ }
func (w *stubWriter) Write(b []byte) (int, error) {
	w.writes++
	return w.out.Write(b)
}

// runSink drives one answer through a fresh jsonSink the way QueryStream
// does and returns the body and the writer that received it.
func runSink(t *testing.T, resp *service.QueryResponse) ([]byte, *stubWriter) {
	t.Helper()
	var body bytes.Buffer
	w := newStubWriter(&body)
	s := &jsonSink{w: w, flusher: w, explain: resp.Explain != nil}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Begin(resp.Epoch, resp.Columns))
	for _, tup := range resp.Tuples {
		must(s.Row(tup))
	}
	must(s.End(resp.Truncated, resp.Bool))
	if resp.Explain != nil {
		must(s.Trace(resp.Explain))
	}
	if s.sent != body.Len() {
		t.Errorf("sink counted %d bytes sent, writer received %d", s.sent, body.Len())
	}
	return body.Bytes(), w
}

// headerLen is the encoded size of the response header for a one-digit
// epoch and column count.
const headerLen = len(`{"epoch":1,"columns":1,"tuples":[`)

// TestJSONSinkGolden: across the response-shape matrix the sink's bytes
// equal json.Marshal of the equivalent QueryResponse plus the trailing
// newline, and they arrive in the expected number of writes — one for
// any answer below the drain threshold, unflushed and with its
// Content-Length; every write but the closing one flushed otherwise.
func TestJSONSinkGolden(t *testing.T) {
	yes, no := true, false
	many := make([][]string, 5000)
	for i := range many {
		many[i] = []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)}
	}
	// sized returns a one-row answer whose encoding, when Row checks the
	// threshold, is drainAt+delta bytes long.
	sized := func(delta int) [][]string {
		return [][]string{{strings.Repeat("x", drainAt+delta-headerLen-len(`[""]`))}}
	}
	cases := []struct {
		name   string
		resp   service.QueryResponse
		writes int
	}{
		{"zero rows", service.QueryResponse{Epoch: 1, Columns: 2, Tuples: [][]string{}}, 1},
		{"one row", service.QueryResponse{Epoch: 7, Columns: 2, Tuples: [][]string{{"a", "b"}}}, 1},
		{"zero columns", service.QueryResponse{Epoch: 1, Columns: 0, Tuples: [][]string{{}, {}}}, 1},
		{"bool true", service.QueryResponse{Epoch: 3, Tuples: [][]string{}, Bool: &yes}, 1},
		{"bool false", service.QueryResponse{Epoch: 3, Tuples: [][]string{}, Bool: &no}, 1},
		{"truncated", service.QueryResponse{Epoch: 12345678901, Columns: 1, Tuples: [][]string{{"a"}, {"b"}}, Truncated: true}, 1},
		{"explain", service.QueryResponse{Epoch: 1, Columns: 1, Tuples: [][]string{{"a"}},
			Explain: &service.QueryTrace{RequestID: "r<1>", Class: "pattern", Rows: 1}}, 1},
		{"explain bool", service.QueryResponse{Epoch: 1, Tuples: [][]string{}, Bool: &yes,
			Explain: &service.QueryTrace{Class: "cq"}}, 1},
		{"escapes", service.QueryResponse{Epoch: 1, Columns: len(escaperSeeds), Tuples: [][]string{escaperSeeds}}, 1},
		{"threshold-1", service.QueryResponse{Epoch: 1, Columns: 1, Tuples: sized(-1)}, 1},
		{"threshold", service.QueryResponse{Epoch: 1, Columns: 1, Tuples: sized(0)}, 2},
		{"threshold+1", service.QueryResponse{Epoch: 1, Columns: 1, Tuples: sized(+1)}, 2},
		{"bulk", service.QueryResponse{Epoch: 1, Columns: 2, Tuples: many}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, w := runSink(t, &tc.resp)
			want, err := json.Marshal(&tc.resp)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(got, want) {
				t.Fatalf("sink body differs from json.Marshal:\n got %.200q\nwant %.200q", got, want)
			}
			if tc.writes == 0 { // bulk: one write per drainAt of body, give or take the tail
				tc.writes = len(want)/drainAt + 1
			}
			if w.writes != tc.writes || w.flushes != w.writes-1 {
				t.Errorf("%d bytes took %d writes and %d flushes, want %d and %d", len(want), w.writes, w.flushes, tc.writes, tc.writes-1)
			}
			wantLen := ""
			if tc.writes == 1 {
				wantLen = strconv.Itoa(len(want))
			}
			if cl := w.hdr.Get("Content-Length"); cl != wantLen {
				t.Errorf("Content-Length = %q for %d bytes in %d writes, want %q", cl, len(want), tc.writes, wantLen)
			}
			if ct := w.hdr.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
		})
	}
}

// TestJSONSinkAllocations pins the wire path's allocation profile: a Row
// into an already-grown buffer allocates nothing, and a whole 10 000-row
// response allocates only the buffer's doublings, not per row.
func TestJSONSinkAllocations(t *testing.T) {
	w := newStubWriter(io.Discard)
	s := &jsonSink{w: w, flusher: w}
	if err := s.Begin(1, 2); err != nil {
		t.Fatal(err)
	}
	tuple := []string{"node00017", "node<42>"}
	for i := 0; i < 5000; i++ { // past the first drain: the buffer is at its final size
		s.Row(tuple)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Row(tuple) }); n != 0 {
		t.Errorf("steady-state Row allocates %v times, want 0", n)
	}

	whole := testing.AllocsPerRun(10, func() {
		s := &jsonSink{w: w, flusher: w}
		s.Begin(1, 2)
		for i := 0; i < 10000; i++ {
			s.Row(tuple)
		}
		s.End(false, nil)
	})
	// The sink itself, then append's growth steps from 512 B to past
	// 32 KiB (doubling, then 1.25x): 15 on go1.24.
	if whole > 20 {
		t.Errorf("a 10000-row response allocates %v times, want O(log buffer), <= 20", whole)
	}
}

// BenchmarkJSONSink is a profiling aid for the encoder alone (rows/s and
// B/op with nothing behind the ResponseWriter); bench/ holds the record.
func BenchmarkJSONSink(b *testing.B) {
	const rows = 10000
	tuples := make([][]string, rows)
	for i := range tuples {
		tuples[i] = []string{fmt.Sprintf("node%05d", i), fmt.Sprintf("node%05d", i+1)}
	}
	w := newStubWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &jsonSink{w: w, flusher: w}
		s.Begin(1, 2)
		for _, tup := range tuples {
			s.Row(tup)
		}
		s.End(false, nil)
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// TestJSONSinkWriteErrorPropagates: a failed drain surfaces from Row, so
// the enumeration feeding the sink stops, and marks the sink begun — the
// handler must not try to answer with an error status on a dead stream.
func TestJSONSinkWriteErrorPropagates(t *testing.T) {
	pr, pw := io.Pipe()
	pr.Close() // every write to pw now fails with io.ErrClosedPipe
	s := &jsonSink{w: newStubWriter(pw)}
	if err := s.Begin(1, 1); err != nil {
		t.Fatal(err)
	}
	if s.begun {
		t.Fatal("begun before any drain")
	}
	big := []string{strings.Repeat("x", drainAt)}
	if err := s.Row(big); err != io.ErrClosedPipe {
		t.Fatalf("Row over the threshold on a dead writer: err %v, want io.ErrClosedPipe", err)
	}
	if !s.begun {
		t.Fatal("a failed drain must still mark the sink begun")
	}
}
