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
	"repro/internal/term"
)

// raceEnabled reports a -race build (race_test.go sets it): allocation
// bounds that rely on sync.Pool keeping what it is given are skipped.
var raceEnabled bool

// escapeCases is one constant per escape class of encoding/json's string
// encoder (internal/term's FuzzAppendJSONString covers the escaper in
// depth; these ride through the sink and the daemon).
var escapeCases = []string{
	"plain",
	`say "hi"`,
	`back\slash`,
	"<script>&amp;</script>",
	"sep\u2028para\u2029end",
	"tab\tbell\x07nul\x00esc\x1bdel\x7f",
	"h\u00e9llo \u65e5\u672c",
	"bad\xffutf8\xc3",
	"\xe2\x80", // truncated prefix of U+2028
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
// does and returns the body and the writer that received it. With a
// store, rows go through RowTerms as that store's interned constants —
// the path QueryStream takes; without one, through Row as strings.
func runSink(t *testing.T, resp *service.QueryResponse, st *term.Store) ([]byte, *stubWriter) {
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
		if st == nil {
			must(s.Row(tup))
			continue
		}
		terms := make([]term.Term, len(tup))
		for i, v := range tup {
			terms[i] = st.Const(v)
		}
		must(s.RowTerms(st, terms))
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
// Every case runs on both row paths: strings through Row, and interned
// constants through RowTerms, which copies the literals the store
// encoded at intern time.
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
		{"escapes", service.QueryResponse{Epoch: 1, Columns: len(escapeCases), Tuples: [][]string{escapeCases}}, 1},
		{"threshold-1", service.QueryResponse{Epoch: 1, Columns: 1, Tuples: sized(-1)}, 1},
		{"threshold", service.QueryResponse{Epoch: 1, Columns: 1, Tuples: sized(0)}, 2},
		{"threshold+1", service.QueryResponse{Epoch: 1, Columns: 1, Tuples: sized(+1)}, 2},
		{"bulk", service.QueryResponse{Epoch: 1, Columns: 2, Tuples: many}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := json.Marshal(&tc.resp)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if tc.writes == 0 { // bulk: one write per drainAt of body, give or take the tail
				tc.writes = len(want)/drainAt + 1
			}
			wantLen := ""
			if tc.writes == 1 {
				wantLen = strconv.Itoa(len(want))
			}
			for _, st := range []*term.Store{nil, term.NewStore()} {
				path := "Row"
				if st != nil {
					path = "RowTerms"
				}
				got, w := runSink(t, &tc.resp, st)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: sink body differs from json.Marshal:\n got %.200q\nwant %.200q", path, got, want)
				}
				if w.writes != tc.writes || w.flushes != w.writes-1 {
					t.Errorf("%s: %d bytes took %d writes and %d flushes, want %d and %d", path, len(want), w.writes, w.flushes, tc.writes, tc.writes-1)
				}
				if cl := w.hdr.Get("Content-Length"); cl != wantLen {
					t.Errorf("%s: Content-Length = %q for %d bytes in %d writes, want %q", path, cl, len(want), tc.writes, wantLen)
				}
				if ct := w.hdr.Get("Content-Type"); ct != "application/json" {
					t.Errorf("%s: Content-Type = %q", path, ct)
				}
			}
		})
	}
}

// TestJSONSinkAllocations pins the wire path's allocation profile: a row
// into an already-grown buffer allocates nothing on either row path, and
// with the buffer recycled through sinkBufs a whole 10 000-row response
// allocates O(1) — not the buffer's doublings.
func TestJSONSinkAllocations(t *testing.T) {
	st := term.NewStore()
	names := []string{"node00017", "node<42>"}
	terms := []term.Term{st.Const(names[0]), st.Const(names[1])}
	w := newStubWriter(io.Discard)
	s := &jsonSink{w: w, flusher: w}
	if err := s.Begin(1, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ { // past the first drain: the buffer is at its final size
		s.RowTerms(st, terms)
	}
	if n := testing.AllocsPerRun(1000, func() { s.RowTerms(st, terms) }); n != 0 {
		t.Errorf("steady-state RowTerms allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { s.Row(names) }); n != 0 {
		t.Errorf("steady-state Row allocates %v times, want 0", n)
	}

	whole := testing.AllocsPerRun(10, func() {
		s := &jsonSink{w: w, flusher: w}
		s.Begin(1, 2)
		for i := 0; i < 10000; i++ {
			s.RowTerms(st, terms)
		}
		s.End(false, nil)
	})
	// The race detector makes sync.Pool drop a random share of Puts.
	if whole > 2 && !raceEnabled {
		t.Errorf("a 10000-row response allocates %v times, want O(1), <= 2", whole)
	}
}

// BenchmarkJSONSink is a profiling aid for the encoder alone (rows/s and
// B/op with nothing behind the ResponseWriter), fed the way QueryStream
// feeds it: interned terms through RowTerms. bench/ holds the record.
func BenchmarkJSONSink(b *testing.B) {
	const rows = 10000
	st := term.NewStore()
	tuples := make([][]term.Term, rows)
	for i := range tuples {
		tuples[i] = []term.Term{st.Const(fmt.Sprintf("node%05d", i)), st.Const(fmt.Sprintf("node%05d", i+1))}
	}
	w := newStubWriter(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &jsonSink{w: w, flusher: w}
		s.Begin(1, 2)
		for _, tup := range tuples {
			s.RowTerms(st, tup)
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
