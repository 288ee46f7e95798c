package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/http_counts.golden.json from this run")

const httpCountsGolden = "testdata/http_counts.golden.json"

// bodyCount is what one query records: the size of its response body and
// the body's FNV-64a hash, so any byte of drift fails.
type bodyCount struct {
	Bytes int    `json:"bytes"`
	FNV64 string `json:"fnv64a"`
}

// TestHTTPCounts is the count gate's http slice: the exact /query
// response bodies of the tc.* workloads' shapes over the 60-block TC
// graph (the root TestWorkloadCounts loads the same text), compared with
// testdata/http_counts.golden.json. It records the two tc.bulk-scan
// queries, one keyed scan, one ground hit, and the view shapes of
// tc.point-read (hop2) and tc.churn-durable (back), answer order
// included. A change that moves one on
// purpose re-baselines with `go test ./cmd/vadalogd -run TestHTTPCounts
// -update` and says why; any other drift fails.
func TestHTTPCounts(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	text := workload.TCBlocksText(60)
	if resp, raw := postRaw(t, ts.URL+"/load", map[string]string{"program": text}); resp.StatusCode != http.StatusOK {
		t.Fatalf("/load status %d: %s", resp.StatusCode, raw)
	}
	// The first edge of the text is a ground hit of its closure.
	edge := text[strings.Index(text, "e(n")+2:]
	a, b, _ := strings.Cut(edge[:strings.IndexByte(edge, ')')], ",")
	got := map[string]bodyCount{}
	for name, req := range map[string]service.QueryRequest{
		"bulk.scan":  {Pred: "t", Args: []string{"_", "_"}, Limit: 50000},
		"bulk.cq":    {Query: "?(X,Z) :- e(X,Y), t(Y,Z).", Limit: 25000},
		"point.scan": {Pred: "t", Args: []string{"n0", "_"}},
		"ground.hit": {Pred: "t", Args: []string{a, b}},
		"point.view": {Query: "hop2(X,Z) :- e(X,Y), e(Y,Z). ?(Z) :- hop2(n0,Z)."},
		"churn.view": {Query: "back(Y,X) :- t(X,Y). ?(X) :- back(n5,X)."},
	} {
		resp, raw := postRaw(t, ts.URL+"/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, raw)
		}
		h := fnv.New64a()
		h.Write(raw)
		got[name] = bodyCount{Bytes: len(raw), FNV64: fmt.Sprintf("%016x", h.Sum64())}
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *update {
		if err := os.WriteFile(httpCountsGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(httpCountsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("http counts drifted from %s (re-baseline with -update only on purpose):\ngot:\n%s\nwant:\n%s", httpCountsGolden, out, want)
	}
}
