package prooftree

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/term"
)

// AnswersParallel is the multi-core certain-answer enumerator sketched in
// Section 7 (future work 1): NLogSpace ⊆ NC², so reasoning under
// piece-wise linear warded TGDs is principally parallelizable. Candidate
// tuples are independent decision problems; this fans them out over a
// worker pool. Each worker owns a private copy of the naming context
// (interning during canonicalization is the only mutable shared state;
// the database is read-only throughout).
//
// workers ≤ 0 selects GOMAXPROCS. The aggregated Stats sum the workers'
// effort; per-state maxima are the max across workers.
func AnswersParallel(prog *logic.Program, db *storage.DB, q *logic.CQ, opt Options, workers int) ([][]term.Term, *Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	consts := db.Constants()
	k := len(q.Output)
	if k == 0 || len(consts) == 0 || workers == 1 {
		return Answers(prog, db, q, opt)
	}
	// Enumerate all candidate tuples up front (the odometer of Answers).
	total := 1
	for i := 0; i < k; i++ {
		total *= len(consts)
		if total > 1_000_000 {
			break
		}
	}
	candidates := make([][]term.Term, 0, total)
	// Workers share the instance, and a probe of a writer-owned store may
	// build an index: they read a frozen view of it.
	snap := db.Snapshot()
	defer snap.Release()
	db = snap.DB()
	idx := make([]int, k)
	for {
		c := make([]term.Term, k)
		for i, j := range idx {
			c[i] = consts[j]
		}
		candidates = append(candidates, c)
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(consts) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}

	type result struct {
		tuple []term.Term
		pos   int
		ok    bool
		stats *Stats
		err   error
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
	)
	next := make(chan int, len(candidates))
	for i := range candidates {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := prog.CloneContext()
			for i := range next {
				ok, st, err := Decide(local, db, q, candidates[i], opt)
				mu.Lock()
				results = append(results, result{tuple: candidates[i], pos: i, ok: ok, stats: st, err: err})
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()

	agg := &Stats{}
	var out [][]term.Term
	sort.Slice(results, func(i, j int) bool { return results[i].pos < results[j].pos })
	for _, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		mergeStats(agg, r.stats)
		if r.ok {
			out = append(out, r.tuple)
		}
	}
	return out, agg, nil
}
