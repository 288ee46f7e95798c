package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// chainProgram builds a transitive-closure program over an n-node chain —
// n(n-1)/2 closure tuples, enough to span many flush windows.
func chainProgram(n int) string {
	var b strings.Builder
	b.WriteString("t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\n")
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	return b.String()
}

// TestQueryResponseStreams: a large result arrives incrementally — bytes
// of the body are readable before the terminating brace — and the full
// body still decodes as one QueryResponse with every tuple.
func TestQueryResponseStreams(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	const n = 128 // 8128 closure tuples, several flush windows of 1024
	if _, err := svc.Load(chainProgram(n)); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(service.QueryRequest{Query: "?(X,Y) :- t(X,Y)."})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	// Read the first chunk only: it must hold the header and some tuples
	// but not the body's end — proof the response didn't materialize
	// before the first byte.
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	first := make([]byte, 16<<10)
	nr, err := io.ReadFull(br, first)
	if err != nil {
		t.Fatalf("first chunk: %d bytes, err %v", nr, err)
	}
	if !bytes.HasPrefix(first, []byte(`{"epoch":`)) {
		t.Fatalf("stream prefix: %.60q", first)
	}
	if bytes.Contains(first, []byte("}\n")) {
		t.Fatal("response ended within the first 16KiB — not streamed")
	}

	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	var qr service.QueryResponse
	if err := json.Unmarshal(append(first[:nr], rest...), &qr); err != nil {
		t.Fatalf("streamed body does not decode: %v", err)
	}
	if want := n * (n - 1) / 2; len(qr.Tuples) != want {
		t.Fatalf("%d tuples, want %d", len(qr.Tuples), want)
	}
	if qr.Columns != 2 || qr.Truncated {
		t.Fatalf("header: %+v", qr)
	}
}

// TestQueryClientDisconnectCancelsEnumeration: a client closing mid-body
// aborts the server-side enumeration (Stats.Aborted increments) and the
// daemon keeps serving.
func TestQueryClientDisconnectCancelsEnumeration(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	// Facts only: the self-join query below matches 640k rows (clamped at
	// the 100k default limit) — megabytes of body, far beyond what the
	// connection's buffers absorb. The client stops reading after the
	// first bytes, so backpressure parks the enumeration mid-stream; the
	// disconnect then MUST abort it (it cannot have finished).
	var edges strings.Builder
	for i := 0; i < 800; i++ {
		fmt.Fprintf(&edges, "e(n%d,n%d).\n", i, i+1)
	}
	if _, err := svc.Load(edges.String()); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(service.QueryRequest{Query: "?(X,Y,Z,W) :- e(X,Y), e(Z,W)."})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read a few bytes of the stream, then walk away.
	if _, err := io.ReadFull(resp.Body, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	// The abort is asynchronous: the enumeration notices the dead client
	// at its next context check or flush.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Aborted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("enumeration never aborted after client disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The daemon is healthy: the same query completes afterwards.
	var qr service.QueryResponse
	postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "e", Args: []string{"n0", "n1"}}, &qr)
	if len(qr.Tuples) != 1 {
		t.Fatalf("post-disconnect query: %+v", qr)
	}
}

// TestQueryStreamShapes: truncation flags and boolean answers keep the
// exact former response shape through the streaming encoder.
func TestQueryStreamShapes(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	if _, err := svc.Load(chainProgram(16)); err != nil {
		t.Fatal(err)
	}
	var qr service.QueryResponse
	postJSON(t, ts.URL+"/query", service.QueryRequest{Query: "?(X,Y) :- t(X,Y).", Limit: 7}, &qr)
	if len(qr.Tuples) != 7 || !qr.Truncated {
		t.Fatalf("limit: %d tuples truncated=%v", len(qr.Tuples), qr.Truncated)
	}
	qr = service.QueryResponse{}
	postJSON(t, ts.URL+"/query", service.QueryRequest{Query: "? :- t(n0,n9)."}, &qr)
	if qr.Bool == nil || !*qr.Bool {
		t.Fatalf("boolean true: %+v", qr)
	}
	qr = service.QueryResponse{}
	postJSON(t, ts.URL+"/query", service.QueryRequest{Query: "? :- t(n9,n0)."}, &qr)
	if qr.Bool == nil || *qr.Bool {
		t.Fatalf("boolean false: %+v", qr)
	}
	if qr.Tuples == nil || len(qr.Tuples) != 0 {
		t.Fatalf("boolean tuples: %+v", qr.Tuples)
	}
	// Evaluation errors still arrive as JSON error objects (nothing was
	// streamed before the failure).
	respRaw := postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "zzz", Args: []string{"_"}}, nil)
	if respRaw.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown predicate: status %d", respRaw.StatusCode)
	}
}

// TestQueryShapesOverHTTP drives every response shape through the
// buffered sink over a real connection. Each body must decode, carry the
// expected answer, and re-marshal to the very bytes received — the wire
// form is json.Marshal's, whatever the answer's size or content.
func TestQueryShapesOverHTTP(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()

	// One constant holding every escape class that survives the JSON
	// request and the parser's string syntax (backslash quotes the next
	// character).
	const nasty = "q\"b\\n\nr\rt\tc\x01\x1fd\x7f<&>\u2028\u2029é日🎉\ufffd"
	quoted := `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(nasty) + `"`
	// at<i> holds one constant sized so the one-row answer reaches the
	// drain threshold less one byte, exactly, and plus one byte.
	var prog strings.Builder
	prog.WriteString(chainProgram(16))
	fmt.Fprintf(&prog, "esc(%s, plain).\n", quoted)
	var sized [3]string
	for i, delta := range []int{-1, 0, +1} {
		sized[i] = strings.Repeat("x", drainAt+delta-headerLen-len(`[""]`))
		fmt.Fprintf(&prog, "at%d(%s).\n", i, sized[i])
	}
	var loaded struct{ Epoch uint64 }
	postJSON(t, ts.URL+"/load", map[string]string{"program": prog.String()}, &loaded)
	if loaded.Epoch != 1 {
		t.Fatalf("load: epoch %d, want 1 (the sized constants assume a one-digit epoch)", loaded.Epoch)
	}

	yes, no := true, false
	cases := []struct {
		name      string
		path      string
		req       service.QueryRequest
		rows      int
		truncated bool
		boolAns   *bool
		first     []string // the first tuple, when it is known
	}{
		{name: "zero rows", req: service.QueryRequest{Pred: "t", Args: []string{"n9", "n0"}}},
		{name: "unknown constant", req: service.QueryRequest{Pred: "t", Args: []string{"nowhere", "_"}}},
		{name: "one row", req: service.QueryRequest{Pred: "t", Args: []string{"n0", "n9"}}, rows: 1, first: []string{"n0", "n9"}},
		{name: "all rows", req: service.QueryRequest{Query: "?(X,Y) :- t(X,Y)."}, rows: 120},
		{name: "truncated", req: service.QueryRequest{Query: "?(X,Y) :- t(X,Y).", Limit: 7}, rows: 7, truncated: true},
		{name: "bool true", req: service.QueryRequest{Query: "? :- t(n0,n9)."}, boolAns: &yes},
		{name: "bool false", req: service.QueryRequest{Query: "? :- t(n9,n0)."}, boolAns: &no},
		{name: "explain", path: "?explain=1", req: service.QueryRequest{Pred: "t", Args: []string{"n0", "_"}}, rows: 15},
		{name: "explain bool", path: "?explain=1", req: service.QueryRequest{Query: "? :- t(n0,n9)."}, boolAns: &yes},
		{name: "escapes", req: service.QueryRequest{Pred: "esc", Args: []string{"_", "_"}}, rows: 1, first: []string{nasty, "plain"}},
		{name: "threshold-1", req: service.QueryRequest{Pred: "at0", Args: []string{"_"}}, rows: 1, first: []string{sized[0]}},
		{name: "threshold", req: service.QueryRequest{Pred: "at1", Args: []string{"_"}}, rows: 1, first: []string{sized[1]}},
		{name: "threshold+1", req: service.QueryRequest{Pred: "at2", Args: []string{"_"}}, rows: 1, first: []string{sized[2]}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postRaw(t, ts.URL+"/query"+tc.path, tc.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %.200s", resp.StatusCode, raw)
			}
			var qr service.QueryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatalf("body does not decode: %v: %.200q", err, raw)
			}
			if qr.Tuples == nil || len(qr.Tuples) != tc.rows || qr.Truncated != tc.truncated {
				t.Fatalf("%d tuples (nil=%v) truncated=%v, want %d truncated=%v",
					len(qr.Tuples), qr.Tuples == nil, qr.Truncated, tc.rows, tc.truncated)
			}
			if (qr.Bool == nil) != (tc.boolAns == nil) || (qr.Bool != nil && *qr.Bool != *tc.boolAns) {
				t.Fatalf("bool = %v, want %v", qr.Bool, tc.boolAns)
			}
			if tc.first != nil && strings.Join(qr.Tuples[0], "\x00") != strings.Join(tc.first, "\x00") {
				t.Fatalf("first tuple %.80q, want %.80q", qr.Tuples[0], tc.first)
			}
			if (qr.Explain != nil) != (tc.path != "") {
				t.Fatalf("explain object present=%v on path %q", qr.Explain != nil, tc.path)
			}
			again, err := json.Marshal(&qr)
			if err != nil {
				t.Fatal(err)
			}
			if again = append(again, '\n'); !bytes.Equal(raw, again) {
				t.Fatalf("wire bytes are not json.Marshal's:\n got %.300q\nwant %.300q", raw, again)
			}
		})
	}
}

// TestQueryBudgetTripMidStream: a budget that trips during the
// enumeration answers with the typed error status while nothing has been
// drained, and can only truncate the body once something has.
func TestQueryBudgetTripMidStream(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	if _, err := svc.Load(chainProgram(128)); err != nil { // 8128 closure tuples, ~110 KB encoded
		t.Fatal(err)
	}
	scan := service.QueryRequest{Pred: "t", Args: []string{"_", "_"}}

	// Trips after ~500 rows (~7 KB): still buffered, so the client gets a
	// well-formed 422 instead of a 200 whose body breaks off.
	scan.MaxProbes = 256
	resp, raw := postRaw(t, ts.URL+"/query", scan)
	var eb struct {
		errBody
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil {
		t.Fatalf("early trip: error body does not decode: %v: %.200q", err, raw)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || eb.Code != "over_budget" {
		t.Fatalf("early trip: status %d code %q, want 422 \"over_budget\"", resp.StatusCode, eb.Code)
	}
	if eb.RequestID == "" || eb.RequestID != resp.Header.Get(requestIDHeader) {
		t.Fatalf("early trip: request_id %q, header %q", eb.RequestID, resp.Header.Get(requestIDHeader))
	}
	if got := svc.Stats().OverBudget; got != 1 {
		t.Fatalf("early trip: queries_over_budget = %d, want 1", got)
	}

	// Trips after ~4300 rows (~60 KB): a drain has committed the 200.
	scan.MaxProbes = 4096
	resp, raw = postRaw(t, ts.URL+"/query", scan)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("late trip: status %d, want the already-committed 200", resp.StatusCode)
	}
	if len(raw) < drainAt || json.Valid(raw) {
		t.Fatalf("late trip: %d-byte body, valid JSON=%v; want a truncated stream of at least one drain", len(raw), json.Valid(raw))
	}
	if got := svc.Stats().OverBudget; got != 2 {
		t.Fatalf("late trip: queries_over_budget = %d, want 2", got)
	}
}

// TestOversizedBodyIs413: a request body over the limit is refused as
// too_large, not misreported as a malformed (cut-off) document.
func TestOversizedBodyIs413(t *testing.T) {
	defer func(prev int64) { maxBody = prev }(maxBody)
	maxBody = 1 << 10
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()

	var eb errBody
	resp := postJSON(t, ts.URL+"/load", map[string]string{"program": strings.Repeat("e(a,b). ", 1<<10)}, &eb)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || eb.Code != "too_large" {
		t.Fatalf("oversized /load: status %d code %q, want 413 \"too_large\"", resp.StatusCode, eb.Code)
	}
	// A body under the limit that ends early is still a plain 400.
	r2, err := http.Post(ts.URL+"/load", "application/json", strings.NewReader(`{"program": "e(a,b).`))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("cut-off body: status %d, want 400", r2.StatusCode)
	}
}

// countingListener counts the Write calls the server makes on its
// connections: each is one write(2) on a TCP socket.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestSmallAnswerLeavesAsOneWrite: an answer that never reached the drain
// threshold carries its Content-Length and reaches the socket in a single
// write — headers and body together — instead of as a flushed chunk plus
// the chunked terminator; an answer past the threshold still streams
// chunked, its first bytes readable before its end exists.
func TestSmallAnswerLeavesAsOneWrite(t *testing.T) {
	svc := service.New(service.Options{})
	var writes atomic.Int64
	ts := httptest.NewUnstartedServer(newHandler(svc))
	ts.Listener = countingListener{ts.Listener, &writes}
	ts.Start()
	defer ts.Close()
	defer svc.Close()
	if _, err := svc.Load(chainProgram(128)); err != nil {
		t.Fatal(err)
	}

	// t(n117,_) has ten answers.
	before := writes.Load()
	resp, raw := postRaw(t, ts.URL+"/query", service.QueryRequest{Pred: "t", Args: []string{"n117", "_"}})
	var qr service.QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil || len(qr.Tuples) != 10 {
		t.Fatalf("small answer: %d tuples, err %v: %.200q", len(qr.Tuples), err, raw)
	}
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("small answer: Content-Length %d for %d bytes, Transfer-Encoding %v; want the length and no encoding",
			resp.ContentLength, len(raw), resp.TransferEncoding)
	}
	if n := writes.Load() - before; n != 1 {
		t.Fatalf("small answer took %d writes on the connection, want 1", n)
	}

	body, _ := json.Marshal(service.QueryRequest{Pred: "t", Args: []string{"_", "_"}})
	big, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer big.Body.Close()
	if big.ContentLength != -1 || len(big.TransferEncoding) != 1 || big.TransferEncoding[0] != "chunked" {
		t.Fatalf("bulk answer: Content-Length %d, Transfer-Encoding %v; want a chunked stream", big.ContentLength, big.TransferEncoding)
	}
	first := make([]byte, 16<<10)
	if _, err := io.ReadFull(big.Body, first); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(first, []byte(`{"epoch":`)) || bytes.Contains(first, []byte("}\n")) {
		t.Fatalf("bulk answer's first 16 KiB: prefix %.40q, or it already holds the end", first)
	}
	rest, err := io.ReadAll(big.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(append(first, rest...), &qr); err != nil || len(qr.Tuples) != 128*127/2 {
		t.Fatalf("bulk answer: %d tuples, err %v", len(qr.Tuples), err)
	}
}
