package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/service"
)

// errBody is the structured error JSON every failed request carries.
type errBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// bigChain is tcSource's program over an n-node path — enough work for
// budgets and timeouts to trip mid-evaluation.
func bigChain(n int) string {
	var b strings.Builder
	b.WriteString("t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\n")
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	return b.String()
}

// compositionQuery joins the materialized closure against itself — a
// view build whose probe count dwarfs any budget used in these tests. The
// goal is all-free: one bound by a constant would evaluate on demand and
// never build the view.
const compositionQuery = "v(X,Z) :- t(X,Y), t(Y,Z). ?(X,Z) :- v(X,Z)."

// getJSON fetches a URL and decodes its JSON body.
func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestAdmissionRejectsWhenSaturated: with the only evaluation slot held
// and no queue, every query fast-fails 429 with code "rejected", the
// rejection is counted in /stats, and releasing the slot restores
// service.
func TestAdmissionRejectsWhenSaturated(t *testing.T) {
	svc := service.New(service.Options{})
	if _, err := svc.Load(tcSource); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	adm := newAdmission(1, 0)
	adm.sem <- struct{}{} // hold the only slot
	ts := httptest.NewServer(buildHandler(svc, handlerOpts{adm: adm}))
	defer ts.Close()

	req := service.QueryRequest{Pred: "t", Args: []string{"_", "_"}}
	var eb errBody
	if resp := postJSON(t, ts.URL+"/query", req, &eb); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated query: status %d, want 429", resp.StatusCode)
	}
	if eb.Code != "rejected" {
		t.Fatalf("saturated query: code %q, want \"rejected\"", eb.Code)
	}

	var st daemonStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Rejected != 1 {
		t.Fatalf("queries_rejected = %d, want 1", st.Rejected)
	}

	adm.release() // free the slot; service resumes
	var qr service.QueryResponse
	if resp := postJSON(t, ts.URL+"/query", req, &qr); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after release: status %d, want 200", resp.StatusCode)
	}
	if len(qr.Tuples) == 0 {
		t.Fatal("query after release returned no tuples")
	}
}

// TestAdmissionQueueAdmitsWaiter: one waiter fits in the queue and is
// admitted once the slot frees; a second concurrent request overflows
// the queue and is rejected.
func TestAdmissionQueueAdmitsWaiter(t *testing.T) {
	svc := service.New(service.Options{})
	if _, err := svc.Load(tcSource); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	adm := newAdmission(1, 1)
	adm.sem <- struct{}{}
	ts := httptest.NewServer(buildHandler(svc, handlerOpts{adm: adm}))
	defer ts.Close()

	req := service.QueryRequest{Pred: "t", Args: []string{"_", "_"}}
	waiterDone := make(chan int, 1)
	go func() {
		resp := postJSON(t, ts.URL+"/query", req, nil)
		waiterDone <- resp.StatusCode
	}()
	// Wait for the waiter to be queued, then overflow the queue.
	for deadline := time.Now().Add(5 * time.Second); adm.waiting.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	var eb errBody
	if resp := postJSON(t, ts.URL+"/query", req, &eb); resp.StatusCode != http.StatusTooManyRequests || eb.Code != "rejected" {
		t.Fatalf("overflow query: status %d code %q, want 429 \"rejected\"", resp.StatusCode, eb.Code)
	}

	adm.release()
	if code := <-waiterDone; code != http.StatusOK {
		t.Fatalf("queued waiter: status %d, want 200", code)
	}
}

// TestTimeoutMiddleware: the per-request timeout aborts a heavy view
// build with 408 and code "timeout".
func TestTimeoutMiddleware(t *testing.T) {
	svc := service.New(service.Options{})
	if _, err := svc.Load(bigChain(448)); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(buildHandler(svc, handlerOpts{timeout: 30 * time.Millisecond}))
	defer ts.Close()

	var eb errBody
	start := time.Now()
	resp := postJSON(t, ts.URL+"/query", service.QueryRequest{Query: compositionQuery}, &eb)
	if resp.StatusCode != http.StatusRequestTimeout || eb.Code != "timeout" {
		t.Fatalf("timed-out query: status %d code %q, want 408 \"timeout\"", resp.StatusCode, eb.Code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout surfaced after %v", elapsed)
	}

	var st daemonStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.TimedOut == 0 {
		t.Fatal("queries_timeout not incremented")
	}
}

// TestOverBudgetRequest: per-request budget knobs surface as 422 with
// code "over_budget" and count into /stats.
func TestOverBudgetRequest(t *testing.T) {
	svc := service.New(service.Options{})
	if _, err := svc.Load(bigChain(96)); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()

	// Point the cap at the overlay build, which runs before the first
	// row; TestQueryBudgetTripMidStream covers trips during the
	// enumeration, before and after the first drain.
	var eb errBody
	req := service.QueryRequest{Query: compositionQuery, MaxProbes: plan.BudgetStride}
	if resp := postJSON(t, ts.URL+"/query", req, &eb); resp.StatusCode != http.StatusUnprocessableEntity || eb.Code != "over_budget" {
		t.Fatalf("probe-capped view build: status %d code %q, want 422 \"over_budget\"", resp.StatusCode, eb.Code)
	}

	var st daemonStats
	getJSON(t, ts.URL+"/stats", &st)
	if st.OverBudget != 1 {
		t.Fatalf("queries_over_budget = %d, want 1", st.OverBudget)
	}
}
