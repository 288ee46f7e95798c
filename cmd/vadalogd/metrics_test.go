package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// scrape fetches /metrics and returns the sample values keyed by the
// full series line prefix (name plus label set), and each family's type.
func scrape(t *testing.T, base string) (map[string]float64, map[string]string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out, types := map[string]float64{}, map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value: %q", line)
		}
		out[line[:sp]] = v
	}
	return out, types
}

// TestDaemonMetrics drives load → query → view reads → insert → delete
// against a DURABLE in-process daemon. It asserts that the request and
// query histograms moved, and that every series rendered from the
// served Service equals the /stats field it reads: a count kept in one
// place shows the same in both. This is the in-process twin of the CI
// smoke's /metrics scrape.
func TestDaemonMetrics(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	svc, err := service.Open(service.Options{DataDir: t.TempDir(), Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()

	before, _ := scrape(t, ts.URL)

	postJSON(t, ts.URL+"/load", map[string]string{"program": tcSource}, nil)
	var qresp struct {
		Tuples [][]string `json:"tuples"`
	}
	_, qbody := postRaw(t, ts.URL+"/query", map[string]any{"pred": "t", "args": []string{"a", "_"}})
	if err := json.Unmarshal(qbody, &qresp); err != nil || len(qresp.Tuples) != 3 {
		t.Fatalf("query returned %d tuples (err %v), want 3", len(qresp.Tuples), err)
	}
	qbytes := len(qbody)
	// A bound goal over a non-recursive view is unfolded, one over a
	// recursive view evaluates on demand; the all-free goal then builds
	// the full view and caches it on the epoch, and its repeat is a hit.
	for _, q := range []string{
		"back(X,Y) :- t(Y,X). ?(X) :- back(d,X).",
		"rev(X,Y) :- e(Y,X). rev(X,Z) :- rev(X,Y), rev(Y,Z). ?(X) :- rev(d,X).",
		"back(X,Y) :- t(Y,X). ?(X,Y) :- back(X,Y).",
		"back(X,Y) :- t(Y,X). ?(X,Y) :- back(X,Y).",
	} {
		_, vbody := postRaw(t, ts.URL+"/query", map[string]string{"query": q})
		qbytes += len(vbody)
	}
	postJSON(t, ts.URL+"/insert", map[string]string{"facts": "e(d,e). e(a,c)."}, nil)
	// a→b→c→d→e plus a→c: deleting e(b,c) reaches t(a,c), t(a,d), t(a,e)
	// through t(b,·), and the support search keeps all three; only the
	// three t(b,·) facts go.
	postJSON(t, ts.URL+"/delete", map[string]string{"facts": "e(b,c)."}, nil)

	after, types := scrape(t, ts.URL)
	moved := func(series string, by float64) {
		t.Helper()
		if delta := after[series] - before[series]; delta < by {
			t.Errorf("%s moved by %v, want >= %v", series, delta, by)
		}
	}
	moved(`vadalog_http_request_seconds_count{path="/query"}`, 1)
	moved(`vadalog_http_request_seconds_count{path="/load"}`, 1)
	moved(`vadalog_http_request_seconds_count{path="/insert"}`, 1)
	moved(`vadalog_queries_total`, 1)
	// The byte counter reproduces the ladder's http.bytes_per_op: it grew
	// by exactly the bodies the client read.
	const bytesSeries = `vadalog_http_response_bytes_total{path="/query"}`
	if delta := after[bytesSeries] - before[bytesSeries]; delta != float64(qbytes) {
		t.Errorf("%s moved by %v, client read %d bytes", bytesSeries, delta, qbytes)
	}
	moved(`vadalog_query_seconds_count{class="pattern"}`, 1)
	moved(`vadalog_query_rows_count{class="pattern"}`, 1)
	moved(`vadalog_fixpoints_total`, 1) // the load's materialization
	// The storage-bytes gauges read the current epoch: every relation is
	// binary, so each row holds 8 B of columns, and each run of insertion
	// indexes takes one 8-byte span.
	cols, global := after[`vadalog_storage_bytes{structure="cols"}`], after[`vadalog_storage_bytes{structure="global"}`]
	if cols == 0 || global <= 0 || int(global)%8 != 0 || after[`vadalog_storage_bytes{structure="dedup"}`] == 0 {
		t.Errorf("vadalog_storage_bytes cols %v, global %v, dedup %v: want cols > 0, global a positive multiple of 8 and dedup > 0",
			cols, global, after[`vadalog_storage_bytes{structure="dedup"}`])
	}
	// Neither GET is a query or a write, so the two reads agree exactly.
	var st service.Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Engine.Kept != 3 || st.Engine.Overdeleted != 3 || st.Engine.Rederived != 0 {
		t.Errorf("/stats engine = %+v, want Kept 3, Overdeleted 3, Rederived 0", st.Engine)
	}
	if st.Queries != 5 || st.ViewBuilds != 2 || st.ViewDemand != 1 || st.ViewHits != 1 || st.ViewUnfold != 1 || st.Epoch < 3 || st.Durability.Records != 2 {
		t.Errorf("/stats = %+v, want 5 queries, 2 view builds (1 on demand), 1 cache hit, 1 unfolded, epoch >= 3 and 2 WAL records", st)
	}
	for series, want := range map[string]uint64{
		`vadalog_queries_total`:                           st.Queries,
		`vadalog_view_cache_hits_total`:                   st.ViewHits,
		`vadalog_view_cache_misses_total`:                 st.ViewBuilds - st.ViewDemand,
		`vadalog_view_demand_total`:                       st.ViewDemand,
		`vadalog_view_unfold_total`:                       st.ViewUnfold,
		`vadalog_epoch_seq`:                               st.Epoch,
		`vadalog_incremental_overdeleted_total`:           uint64(st.Engine.Overdeleted),
		`vadalog_incremental_rederived_total`:             uint64(st.Engine.Rederived),
		`vadalog_incremental_kept_total`:                  uint64(st.Engine.Kept),
		`vadalog_storage_compaction_reclaimed_rows_total`: uint64(st.Engine.Compacted),
		`vadalog_wal_records_total`:                       st.Durability.Records,
		`vadalog_wal_bytes_total`:                         st.Durability.Bytes,
	} {
		if got, ok := after[series]; !ok {
			t.Errorf("%s not exposed", series)
		} else if got != float64(want) {
			t.Errorf("%s = %v, /stats says %d", series, got, want)
		}
		kind := "counter"
		if series == `vadalog_epoch_seq` {
			kind = "gauge"
		}
		if types[series] != kind {
			t.Errorf("%s has type %q, want %s", series, types[series], kind)
		}
	}
	// The scrape observes itself mid-flight: exactly one request (the
	// /metrics GET) is being served at exposition time.
	if after[`vadalog_http_inflight`] != 1 {
		t.Errorf("vadalog_http_inflight = %v at scrape time, want 1 (the scrape itself)", after[`vadalog_http_inflight`])
	}
}

// TestDaemonExplainAndRequestID: ?explain=1 attaches the trace to the
// streamed JSON response, and every response carries an X-Request-ID
// echoed into error bodies.
func TestDaemonExplainAndRequestID(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()

	postJSON(t, ts.URL+"/load", map[string]string{"program": tcSource}, nil)

	var qresp struct {
		Tuples  [][]string `json:"tuples"`
		Explain *struct {
			Class   string `json:"class"`
			Rows    int    `json:"rows"`
			Pattern *struct {
				Pred string `json:"pred"`
			} `json:"pattern"`
		} `json:"explain"`
	}
	resp := postJSON(t, ts.URL+"/query?explain=1", map[string]any{"pred": "t", "args": []string{"a", "_"}}, &qresp)
	if qresp.Explain == nil {
		t.Fatal("?explain=1 response has no explain object")
	}
	if qresp.Explain.Class != "pattern" || qresp.Explain.Rows != 3 || qresp.Explain.Pattern == nil {
		t.Fatalf("explain = %+v", qresp.Explain)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("response missing X-Request-ID")
	}
	if !regexp.MustCompile(`^[0-9a-f]+-[0-9a-f]+$`).MatchString(id) {
		t.Fatalf("request id %q not in prefix-counter form", id)
	}

	// Error responses echo the ID in the body.
	var eresp struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	r2 := postJSON(t, ts.URL+"/query", map[string]any{"pred": "nosuch", "args": []string{"_"}}, &eresp)
	if r2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad query status = %d", r2.StatusCode)
	}
	if eresp.RequestID == "" || eresp.RequestID != r2.Header.Get("X-Request-ID") {
		t.Fatalf("error body request_id %q does not echo header %q", eresp.RequestID, r2.Header.Get("X-Request-ID"))
	}

	// A client-supplied correlation ID is honored.
	req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(`{"pred":"t","args":["a","_"]}`))
	req.Header.Set("X-Request-ID", "client-7")
	r3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if got := r3.Header.Get("X-Request-ID"); got != "client-7" {
		t.Fatalf("client-supplied id not echoed: %q", got)
	}
}

// TestMetricsOneSnapshotPerScrape scrapes /metrics while a writer
// alternates deleting and re-inserting one edge. Every delete overdeletes
// the same facts and every write publishes one epoch, so within one
// scrape vadalog_epoch_seq fixes how many deletes the engine counters
// must show: the series come from one Stats snapshot, never from epochs
// on either side of a write. On a durable service every write also logs
// one WAL record, so vadalog_wal_records_total − vadalog_epoch_seq stays
// what it was at load.
func TestMetricsOneSnapshotPerScrape(t *testing.T) {
	for _, durable := range []bool{false, true} {
		var opt service.Options
		if durable {
			opt = service.Options{DataDir: t.TempDir(), Fsync: "never"}
		}
		svc, err := service.Open(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Recover(context.Background()); err != nil {
			t.Fatal(err)
		}
		scrapeBesideWriter(t, svc, durable)
	}
}

func scrapeBesideWriter(t *testing.T, svc *service.Service, durable bool) {
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	loaded, err := svc.Load(tcSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Delete("e(c,d)."); err != nil {
		t.Fatal(err)
	}
	perDelete := svc.Stats().Engine.Overdeleted
	if _, err := svc.Insert("e(c,d)."); err != nil {
		t.Fatal(err)
	}
	if perDelete == 0 {
		t.Fatal("the delete overdeleted nothing")
	}
	m, _ := scrape(t, ts.URL)
	offset := m["vadalog_wal_records_total"] - m["vadalog_epoch_seq"]
	if durable && m["vadalog_wal_records_total"] != 2 {
		t.Fatalf("durable service logged %v records for two writes", m["vadalog_wal_records_total"])
	}
	stop, done := make(chan struct{}), make(chan error)
	go func() {
		var err error
		for i := 0; err == nil; i++ {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if i%2 == 0 {
				_, err = svc.Delete("e(c,d).")
			} else {
				_, err = svc.Insert("e(c,d).")
			}
		}
		done <- err
	}()
	for i := 0; i < 200; i++ {
		m, _ := scrape(t, ts.URL)
		writes := int(m["vadalog_epoch_seq"]) - int(loaded)
		want := float64(perDelete * ((writes + 1) / 2))
		got := m["vadalog_wal_records_total"] - m["vadalog_epoch_seq"]
		if m["vadalog_incremental_overdeleted_total"] != want || durable && got != offset {
			close(stop)
			<-done
			t.Fatalf("durable %v: epoch %v (%d writes since load): %v overdeleted, want %v; WAL records − epoch %v, want %v",
				durable, m["vadalog_epoch_seq"], writes, m["vadalog_incremental_overdeleted_total"], want, got, offset)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestEpochLagReadsServedService: vadalog_epoch_lag_seconds renders the
// publish time of the served Service's epoch, so it reads 0 before that
// service's first Load even after another Service in the process has
// published, and the time since the publish once it has.
func TestEpochLagReadsServedService(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	other := service.New(service.Options{})
	defer other.Close()
	if _, err := other.Load(tcSource); err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	if m, _ := scrape(t, ts.URL); m["vadalog_epoch_lag_seconds"] != 0 {
		t.Fatalf("lag %v before the served service's first load, want 0", m["vadalog_epoch_lag_seconds"])
	}
	t0 := time.Now()
	if _, err := svc.Load(tcSource); err != nil {
		t.Fatal(err)
	}
	m, _ := scrape(t, ts.URL)
	if lag := m["vadalog_epoch_lag_seconds"]; lag <= 0 || lag > time.Since(t0).Seconds() {
		t.Fatalf("lag %v after the load, want in (0, %v]", lag, time.Since(t0).Seconds())
	}
}
