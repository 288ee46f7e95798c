package main

import (
	"bytes"
	"encoding/csv"
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

// postBody posts a body and returns the response body of a 200.
func postBody(t *testing.T, url, ctype string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("POST %s: status %d, err %v, body %.200q", url, resp.StatusCode, err, b)
		return nil
	}
	return b
}

// csvRows renders rows as CSV, quoting whatever needs it.
func csvRows(rows [][]string) []byte {
	var b bytes.Buffer
	w := csv.NewWriter(&b)
	w.WriteAll(rows)
	return b.Bytes()
}

// TestQueryEscapingEndToEnd: constants that need every class of JSON
// escape, loaded through /load/csv, stream through /query on the pattern
// path and the CQ path byte-identical to json.Marshal of the
// QueryResponse that Service.Query returns for the same request.
func TestQueryEscapingEndToEnd(t *testing.T) {
	svc := service.New(service.Options{})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	if _, err := svc.Load("t(X,Y) :- e(X,Y)."); err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, len(escapeCases))
	for i, c := range escapeCases {
		rows[i] = []string{c, escapeCases[(i+1)%len(escapeCases)]}
	}
	postBody(t, ts.URL+"/load/csv?pred=e", "text/csv", csvRows(rows))
	// Every constant arrived byte for byte, invalid UTF-8 included.
	scan, err := svc.Query(&service.QueryRequest{Pred: "e", Args: []string{"_", "_"}})
	if err != nil {
		t.Fatal(err)
	}
	loaded := map[string]bool{}
	for _, tup := range scan.Tuples {
		loaded[tup[0]] = true
	}
	for _, c := range escapeCases {
		if !loaded[c] {
			t.Errorf("constant %q did not survive the CSV load", c)
		}
	}

	for _, req := range []service.QueryRequest{
		{Pred: "e", Args: []string{"_", "_"}},
		{Pred: "t", Args: []string{`say "hi"`, "_"}},
		{Query: "?(X,Y) :- e(X,Y)."},
		{Query: "?(X,Z) :- e(X,Y), t(Y,Z)."},
	} {
		body, _ := json.Marshal(&req)
		got := postBody(t, ts.URL+"/query", "application/json", body)
		resp, err := svc.Query(&req)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Tuples) == 0 {
			t.Fatalf("%+v: no answers", req)
		}
		want, _ := json.Marshal(resp)
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%+v: /query body differs from json.Marshal:\n got %q\nwant %q", req, got, want)
		}
	}
}

// TestQueryEscapingUnderConcurrentLoad: constants interned by a CSV load
// while bulk queries stream render correctly — every streamed body is
// the canonical encoding of what it decodes to, and every row pairs a
// key with its own value. Run with -race.
func TestQueryEscapingUnderConcurrentLoad(t *testing.T) {
	svc := service.New(service.Options{CSVBatch: 32})
	ts := httptest.NewServer(newHandler(svc))
	defer ts.Close()
	defer svc.Close()
	if _, err := svc.Load("t(X,Y) :- e(X,Y)."); err != nil {
		t.Fatal(err)
	}
	// Past one arena chunk (1024 names) of fresh constants, each needing
	// quote, backslash, HTML, U+2028 and control-byte escapes.
	rows := make([][]string, 1500)
	for i := range rows {
		k := fmt.Sprintf("k%d \"q\" <&> \u2028 \\ \x01|", i)
		rows[i] = []string{k, k + "/v"}
	}
	postBody(t, ts.URL+"/load/csv?pred=e", "text/csv", csvRows(rows[:10]))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		postBody(t, ts.URL+"/load/csv?pred=e", "text/csv", csvRows(rows[10:]))
	}()
	for _, req := range []string{`{"pred":"e","args":["_","_"]}`, `{"query":"?(X,Y) :- t(X,Y)."}`} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					if n > 0 {
						return
					}
				default:
				}
				body := postBody(t, ts.URL+"/query", "application/json", []byte(req))
				var resp service.QueryResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Errorf("%s: body does not decode: %v", req, err)
					return
				}
				for _, tup := range resp.Tuples {
					if len(tup) != 2 || tup[1] != tup[0]+"/v" || !strings.HasPrefix(tup[0], "k") {
						t.Errorf("%s: misrendered row %q", req, tup)
						return
					}
				}
				want, _ := json.Marshal(&resp)
				if want = append(want, '\n'); !bytes.Equal(body, want) {
					t.Errorf("%s: body is not the canonical encoding:\n got %.300q\nwant %.300q", req, body, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := svc.Stats(); st.Facts == 0 {
		t.Fatal("nothing loaded")
	}
}
