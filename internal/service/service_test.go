package service

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datalog"
	"repro/internal/parser"
	"repro/internal/storage"
)

const tcProgram = `
t(X,Y) :- e(X,Y).
t(X,Z) :- e(X,Y), t(Y,Z).
`

func chainSource(n int) string {
	var b strings.Builder
	b.WriteString(tcProgram)
	for i := 0; i+1 < n; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", i, i+1)
	}
	return b.String()
}

// chainClosure is the number of t-facts of a 0→1→…→n-1 chain with the
// edge set cut at every index in cuts: reachability holds only within
// maximal uncut segments.
func chainClosure(n int, cuts map[int]bool) int {
	total, segment := 0, 1
	flush := func() { total += segment * (segment - 1) / 2; segment = 1 }
	for k := 0; k+1 < n; k++ {
		if cuts[k] {
			flush()
		} else {
			segment++
		}
	}
	flush()
	return total
}

func mustLoad(t *testing.T, svc *Service, src string) uint64 {
	t.Helper()
	seq, err := svc.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func mustQuery(t *testing.T, svc *Service, req *QueryRequest) *QueryResponse {
	t.Helper()
	resp, err := svc.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServiceLoadAndQuery(t *testing.T) {
	svc := New(Options{})
	if _, err := svc.Query(&QueryRequest{Pred: "t", Args: []string{"_", "_"}}); err != ErrNotLoaded {
		t.Fatalf("query before load: err = %v, want ErrNotLoaded", err)
	}
	seq := mustLoad(t, svc, chainSource(5))
	if seq != 1 {
		t.Fatalf("first epoch = %d, want 1", seq)
	}
	defer svc.Close()

	// Free pattern: the full closure, 4+3+2+1 tuples.
	resp := mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"_", "_"}})
	if len(resp.Tuples) != 10 || resp.Columns != 2 || resp.Epoch != 1 {
		t.Fatalf("t(_,_): %d tuples cols=%d epoch=%d", len(resp.Tuples), resp.Columns, resp.Epoch)
	}
	// Half-bound pattern.
	resp = mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"n0", "_"}})
	if len(resp.Tuples) != 4 {
		t.Fatalf("t(n0,_): %d tuples, want 4", len(resp.Tuples))
	}
	for _, tup := range resp.Tuples {
		if tup[0] != "n0" {
			t.Fatalf("t(n0,_) returned %v", tup)
		}
	}
	// Ground pattern (dedup-table fast path) hit and miss.
	if resp = mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"n0", "n4"}}); len(resp.Tuples) != 1 {
		t.Fatalf("ground hit: %d tuples", len(resp.Tuples))
	}
	if resp = mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"n4", "n0"}}); len(resp.Tuples) != 0 {
		t.Fatalf("ground miss: %d tuples", len(resp.Tuples))
	}
	// Unknown constant: empty, not an error.
	if resp = mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"zzz", "_"}}); len(resp.Tuples) != 0 {
		t.Fatalf("unknown constant: %d tuples", len(resp.Tuples))
	}
	// Unknown predicate and wrong arity are errors.
	if _, err := svc.Query(&QueryRequest{Pred: "nope", Args: []string{"_"}}); err == nil {
		t.Fatalf("unknown predicate accepted")
	}
	if _, err := svc.Query(&QueryRequest{Pred: "t", Args: []string{"_"}}); err == nil {
		t.Fatalf("wrong arity accepted")
	}

	// Conjunctive rule query.
	resp = mustQuery(t, svc, &QueryRequest{Query: `?(X) :- t(n0,X), t(X,n4).`})
	if len(resp.Tuples) != 3 {
		t.Fatalf("CQ: %d tuples, want 3 (n1,n2,n3)", len(resp.Tuples))
	}
	// Boolean rule query.
	resp = mustQuery(t, svc, &QueryRequest{Query: `? :- t(n0,n4).`})
	if resp.Bool == nil || !*resp.Bool {
		t.Fatalf("boolean query: %v", resp.Bool)
	}
	// Rule-defined view: symmetric closure on the fly.
	resp = mustQuery(t, svc, &QueryRequest{Query: `
		sym(X,Y) :- t(X,Y).
		sym(X,Y) :- t(Y,X).
		?(X) :- sym(n4,X).`})
	if len(resp.Tuples) != 4 {
		t.Fatalf("view query: %d tuples, want 4", len(resp.Tuples))
	}
	// Limits truncate.
	resp = mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"_", "_"}, Limit: 3})
	if len(resp.Tuples) != 3 || !resp.Truncated {
		t.Fatalf("limit: %d tuples truncated=%v", len(resp.Tuples), resp.Truncated)
	}

	st := svc.Stats()
	if !st.Loaded || st.Epoch != 1 || st.Facts != 4+10 || st.Queries == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestServiceUpdatesPublishEpochs(t *testing.T) {
	svc := New(Options{})
	mustLoad(t, svc, chainSource(6))
	defer svc.Close()
	count := func() (int, uint64) {
		resp := mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"_", "_"}})
		return len(resp.Tuples), resp.Epoch
	}
	if n, _ := count(); n != 15 {
		t.Fatalf("initial closure = %d, want 15", n)
	}
	seq, err := svc.Delete("e(n2,n3).")
	if err != nil {
		t.Fatal(err)
	}
	if n, ep := count(); n != chainClosure(6, map[int]bool{2: true}) || ep != seq {
		t.Fatalf("after delete: %d tuples at epoch %d (want %d at %d)",
			n, ep, chainClosure(6, map[int]bool{2: true}), seq)
	}
	seq2, err := svc.Insert("e(n2,n3).")
	if err != nil {
		t.Fatal(err)
	}
	if seq2 != seq+1 {
		t.Fatalf("epoch did not advance: %d -> %d", seq, seq2)
	}
	if n, _ := count(); n != 15 {
		t.Fatalf("after re-insert: %d tuples, want 15", n)
	}
	// Updating an intensional predicate is rejected.
	if _, err := svc.Insert("t(n0,n5)."); err == nil {
		t.Fatalf("intensional insert accepted")
	}
	// Rules or queries in an update payload are rejected.
	if _, err := svc.Insert("p(X) :- e(X,Y)."); err == nil {
		t.Fatalf("rule in update payload accepted")
	}
}

func TestServiceLoadCSVBulk(t *testing.T) {
	svc := New(Options{CSVBatch: 16})
	mustLoad(t, svc, tcProgram+"e(seed0,seed1).\n")
	defer svc.Close()
	var b strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&b, "m%d,m%d\n", i, i+1)
	}
	staged, seq, err := svc.LoadCSV("e", strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if staged != 100 || seq == 0 {
		t.Fatalf("staged %d rows at epoch %d", staged, seq)
	}
	resp := mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"m0", "m100"}})
	if len(resp.Tuples) != 1 {
		t.Fatalf("bulk-loaded chain closure missing m0->m100")
	}
	// Bulk load of an intensional predicate is rejected.
	if _, _, err := svc.LoadCSV("t", strings.NewReader("x,y\n")); err == nil {
		t.Fatalf("intensional bulk load accepted")
	}
}

// TestServiceQueryDuringCSVLoad: the pipelined bulk path must not block
// readers — queries issued while a /load/csv stream is mid-flight (some
// batches landed, the pipe still open) complete against a published
// epoch, and the stream's remaining batches land afterwards. With the
// old whole-stream naming lock this test would deadlock: the query's
// parse/render would wait on a lock held until the pipe closes.
func TestServiceQueryDuringCSVLoad(t *testing.T) {
	svc := New(Options{CSVBatch: 8})
	first := mustLoad(t, svc, tcProgram+"e(seed0,seed1).\n")
	defer svc.Close()

	pr, pw := io.Pipe()
	type loadResult struct {
		staged int
		seq    uint64
		err    error
	}
	done := make(chan loadResult, 1)
	go func() {
		staged, seq, err := svc.LoadCSV("e", pr)
		done <- loadResult{staged, seq, err}
	}()

	// First batches: enough rows to land at least one batch and publish.
	var b strings.Builder
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, "m%d,m%d\n", i, i+1)
	}
	if _, err := pw.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Epoch == first {
		if time.Now().After(deadline) {
			t.Fatal("no epoch published while the CSV stream is open")
		}
		time.Sleep(time.Millisecond)
	}

	// Mid-stream queries: pattern, ground fast path, and a rule query
	// that parses (interns) against the naming context the loader is
	// concurrently interning into.
	resp := mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"seed0", "_"}})
	if len(resp.Tuples) != 1 {
		t.Fatalf("mid-stream t(seed0,_): %d tuples, want 1", len(resp.Tuples))
	}
	resp = mustQuery(t, svc, &QueryRequest{Pred: "e", Args: []string{"m0", "m1"}})
	if len(resp.Tuples) != 1 {
		t.Fatalf("mid-stream ground e(m0,m1) not visible in published epoch")
	}
	resp = mustQuery(t, svc, &QueryRequest{Query: `? :- t(m0,m8).`})
	if resp.Bool == nil || !*resp.Bool {
		t.Fatalf("mid-stream rule query: %v", resp.Bool)
	}

	// Finish the stream and check the final state.
	b.Reset()
	for i := 24; i < 80; i++ {
		fmt.Fprintf(&b, "m%d,m%d\n", i, i+1)
	}
	if _, err := pw.Write([]byte(b.String())); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.staged != 80 || res.seq == 0 {
		t.Fatalf("staged %d rows at epoch %d", res.staged, res.seq)
	}
	resp = mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"m0", "m80"}})
	if len(resp.Tuples) != 1 {
		t.Fatalf("final closure missing m0->m80")
	}
}

// TestServiceQueryMatchesEval: after a randomized update stream, the
// service's answers agree with a from-scratch datalog.Eval over the same
// surviving base facts.
func TestServiceQueryMatchesEval(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	svc := New(Options{})
	mustLoad(t, svc, chainSource(n))
	defer svc.Close()
	present := make([]bool, n-1)
	for i := range present {
		present[i] = true
	}
	for step := 0; step < 60; step++ {
		k := rng.Intn(n - 1)
		var err error
		if present[k] {
			_, err = svc.Delete(fmt.Sprintf("e(n%d,n%d).", k, k+1))
		} else {
			_, err = svc.Insert(fmt.Sprintf("e(n%d,n%d).", k, k+1))
		}
		if err != nil {
			t.Fatal(err)
		}
		present[k] = !present[k]
	}
	var b strings.Builder
	b.WriteString(tcProgram)
	for k, p := range present {
		if p {
			fmt.Fprintf(&b, "e(n%d,n%d).\n", k, k+1)
		}
	}
	res, err := parser.Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	db.InsertAll(res.Facts)
	out, _, err := datalog.Eval(res.Program, db, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
	if err != nil {
		t.Fatal(err)
	}
	tID, _ := res.Program.Reg.Lookup("t")
	want := out.CountPred(tID)
	resp := mustQuery(t, svc, &QueryRequest{Pred: "t", Args: []string{"_", "_"}})
	if len(resp.Tuples) != want {
		t.Fatalf("service closure = %d tuples, from-scratch Eval says %d", len(resp.Tuples), want)
	}
}

// TestServiceEpochConsistency is the service-level snapshot-isolation
// property test: reader goroutines query the closure while the writer
// churns chain edges. Every response is tagged with its epoch; the
// writer records the exact expected closure size per epoch, and any
// reader observing a count that disagrees with its response's epoch has
// seen an in-flight state. Run under -race -cpu 1,2,4 in CI.
func TestServiceEpochConsistency(t *testing.T) {
	const (
		n       = 24
		updates = 150
		readers = 4
	)
	svc := New(Options{})
	first := mustLoad(t, svc, chainSource(n))
	defer svc.Close()

	var (
		mu     sync.Mutex
		expect = map[uint64]int{first: chainClosure(n, nil)}
		done   = make(chan struct{})
		errs   = make(chan error, readers)
	)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := svc.Query(&QueryRequest{Pred: "t", Args: []string{"_", "_"}})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				want, ok := expect[resp.Epoch]
				mu.Unlock()
				if !ok {
					// The writer publishes inside Insert/Delete and records
					// the expectation just after returning; an epoch ahead
					// of the bookkeeping is skipped, not wrong.
					continue
				}
				if len(resp.Tuples) != want {
					errs <- fmt.Errorf("epoch %d: %d tuples, want %d — reader saw in-flight state",
						resp.Epoch, len(resp.Tuples), want)
					return
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(13))
	cuts := make(map[int]bool)
	for u := 0; u < updates; u++ {
		k := rng.Intn(n - 1)
		var seq uint64
		var err error
		if cuts[k] {
			seq, err = svc.Insert(fmt.Sprintf("e(n%d,n%d).", k, k+1))
			delete(cuts, k)
		} else {
			seq, err = svc.Delete(fmt.Sprintf("e(n%d,n%d).", k, k+1))
			cuts[k] = true
		}
		if err != nil {
			close(done)
			wg.Wait()
			t.Fatal(err)
		}
		mu.Lock()
		expect[seq] = chainClosure(n, cuts)
		mu.Unlock()
		select {
		case err := <-errs:
			close(done)
			wg.Wait()
			t.Fatal(err)
		default:
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	st := svc.Stats()
	if st.Epoch != first+updates {
		t.Fatalf("final epoch = %d, want %d", st.Epoch, first+updates)
	}
	if st.EpochsDrained == 0 {
		t.Fatalf("no epoch ever drained")
	}
	// A chain closure has no alternative derivations, so nothing
	// rederives; deletion and overdeletion must both have run.
	if st.Engine.Deleted == 0 || st.Engine.Overdeleted == 0 {
		t.Fatalf("engine stats did not move: %+v", st.Engine)
	}
}

// TestReloadReleasesGeneration: a replaced generation — its compiled
// plans and through them its whole naming context — is garbage once its
// epochs drain, so heap does not grow by a term store and a registry per
// /load.
func TestReloadReleasesGeneration(t *testing.T) {
	svc := New(Options{})
	defer svc.Close()
	src := chainSource(30)
	heapAfter := func(loads int) uint64 {
		for i := 0; i < loads; i++ {
			mustLoad(t, svc, src)
			// A view query per generation: its rewriting and its rules
			// compile against the generation's context too.
			mustQuery(t, svc, &QueryRequest{Query: "back(X,Y) :- t(Y,X). ?(X) :- back(n5,X)."})
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	early := heapAfter(10)
	late := heapAfter(290)
	if late > 2*early {
		t.Fatalf("HeapInuse %d B after 300 loads, %d B after 10: loaded generations stay reachable", late, early)
	}
}
