package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
)

const tcSource = `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
e(a,b). e(b,c). e(c,d).
`

// postRaw posts a JSON body and returns the response with its raw body.
func postRaw(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// postJSON posts a JSON body and decodes a JSON response.
func postJSON(t *testing.T, url string, body any, into any) *http.Response {
	t.Helper()
	resp, raw := postRaw(t, url, body)
	if into != nil {
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

// TestDaemonEndToEnd drives the full HTTP surface in-process: load a
// program, query patterns and rule queries, stream a CSV bulk load,
// apply incremental updates, and read stats — the same flow the CI
// smoke runs against the real binary.
func TestDaemonEndToEnd(t *testing.T) {
	svc := service.New(service.Options{CSVBatch: 8})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()

	// Queries before a program is loaded are 409s.
	var qr service.QueryResponse
	if resp := postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "t", Args: []string{"_", "_"}}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("query before load: status %d, want 409", resp.StatusCode)
	}

	var loadResp struct {
		Epoch uint64 `json:"epoch"`
		Facts int    `json:"facts"`
	}
	if resp := postJSON(t, ts.URL+"/load", map[string]string{"program": tcSource}, &loadResp); resp.StatusCode != http.StatusOK {
		t.Fatalf("/load status %d", resp.StatusCode)
	}
	if loadResp.Epoch != 1 || loadResp.Facts != 3+6 {
		t.Fatalf("/load -> %+v", loadResp)
	}

	// Pattern query.
	postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "t", Args: []string{"a", "_"}}, &qr)
	if len(qr.Tuples) != 3 {
		t.Fatalf("t(a,_) = %d tuples, want 3", len(qr.Tuples))
	}
	// Rule query with a view.
	postJSON(t, ts.URL+"/query", service.QueryRequest{Query: "back(X,Y) :- t(Y,X). ?(X) :- back(d,X)."}, &qr)
	if len(qr.Tuples) != 3 {
		t.Fatalf("view query = %d tuples, want 3", len(qr.Tuples))
	}

	// CSV bulk load extends the chain: d -> x0 -> x1 ... -> x9.
	var csvBody strings.Builder
	prev := "d"
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&csvBody, "%s,x%d\n", prev, i)
		prev = fmt.Sprintf("x%d", i)
	}
	var csvResp struct {
		Epoch  uint64 `json:"epoch"`
		Staged int    `json:"staged"`
	}
	resp, err := http.Post(ts.URL+"/load/csv?pred=e", "text/csv", strings.NewReader(csvBody.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&csvResp); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if csvResp.Staged != 10 {
		t.Fatalf("/load/csv staged %d rows, want 10", csvResp.Staged)
	}
	postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "t", Args: []string{"a", "x9"}}, &qr)
	if len(qr.Tuples) != 1 {
		t.Fatalf("closure missing a->x9 after bulk load")
	}

	// Incremental delete and re-insert.
	var upd struct {
		Epoch uint64 `json:"epoch"`
	}
	postJSON(t, ts.URL+"/delete", map[string]string{"facts": "e(b,c)."}, &upd)
	postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "t", Args: []string{"a", "d"}}, &qr)
	if len(qr.Tuples) != 0 || qr.Epoch != upd.Epoch {
		t.Fatalf("after delete: %d tuples at epoch %d (update epoch %d)", len(qr.Tuples), qr.Epoch, upd.Epoch)
	}
	postJSON(t, ts.URL+"/insert", map[string]string{"facts": "e(b,c)."}, &upd)
	postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "t", Args: []string{"a", "d"}}, &qr)
	if len(qr.Tuples) != 1 {
		t.Fatalf("closure not restored after insert")
	}

	// Bad requests are 4xx, not panics: unknown predicate, rule in an
	// update payload, malformed JSON, missing ?pred.
	if resp := postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "zzz", Args: []string{"_"}}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown predicate: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/insert", map[string]string{"facts": "p(X) :- e(X,Y)."}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("rule in update: status %d", resp.StatusCode)
	}
	r2, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", r2.StatusCode)
	}
	r3, err := http.Post(ts.URL+"/load/csv", "text/csv", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing pred: status %d", r3.StatusCode)
	}

	// Health and stats.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hr)
	}
	hr.Body.Close()
	var st service.Stats
	sr, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if !st.Loaded || st.Queries == 0 || st.Engine.Inserted == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDaemonConcurrentQueriesUnderChurn hammers the HTTP surface with
// parallel readers while updates stream in — the transport-level slice
// of the snapshot-isolation property (epoch tags must always be
// consistent with a published materialization; here we assert responses
// are well-formed and the service survives under -race).
func TestDaemonConcurrentQueriesUnderChurn(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	var sb strings.Builder
	sb.WriteString("t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&sb, "e(n%d,n%d).\n", i, i+1)
	}
	postJSON(t, ts.URL+"/load", map[string]string{"program": sb.String()}, nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var qr service.QueryResponse
				resp := postJSON(t, ts.URL+"/query", service.QueryRequest{Pred: "t", Args: []string{"n0", "_"}}, &qr)
				if resp.StatusCode != http.StatusOK || qr.Epoch == 0 {
					t.Errorf("query failed: status %d epoch %d", resp.StatusCode, qr.Epoch)
					return
				}
			}
		}()
	}
	for u := 0; u < 40; u++ {
		postJSON(t, ts.URL+"/delete", map[string]string{"facts": "e(n7,n8)."}, nil)
		postJSON(t, ts.URL+"/insert", map[string]string{"facts": "e(n7,n8)."}, nil)
	}
	close(done)
	wg.Wait()
}
