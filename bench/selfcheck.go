package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactCounts are the per-layer counts a single-client traced run must
// reproduce exactly on the same build and seed: what the program did,
// not how long it took. (wal.syncs_per_write is absent: the interval
// policy syncs on a timer.)
var exactCounts = []string{
	"http.bytes_per_op", "service.rows_per_op", "plan.probes_per_row",
	"service.view_builds_per_read", "incremental.overdeleted_per_delete",
	"incremental.rederived_frac", "incremental.derived_per_insert",
	"storage.compacted_per_write", "datalog.rounds_per_load",
	"datalog.derived_per_load", "wal.bytes_per_write",
}

// allocSlack is how far a layer's allocs_per_op may move between two
// runs of the same build: eight objects or 1%, whichever is more. The
// counts come out the same to within that — not exactly, as the issue
// hoped: hash-seeded map growth, sync.Pool reuse and timer reuse decide
// the last object or two of every rung, and a layer's self count is a
// difference of rungs (a service rung of 18 000 allocations minus
// children of 17 995 was seen to read 5 and 8).
func allocSlack(a float64) float64 { return max(8, 0.01*math.Abs(a)) }

// selfCheck runs the full set twice on the same build and reports every
// end-to-end metric that differs between the two by more than its
// bound, every exact count that differs at all, and every allocs_per_op
// that differs by more than allocSlack.
func (r *runner) selfCheck(manifestPath string) (bool, error) {
	b, err := os.ReadFile(manifestPath)
	if err != nil {
		return false, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return false, fmt.Errorf("%s: %w", manifestPath, err)
	}
	var sets [2]*resultSet
	for i := range sets {
		fmt.Printf("#### self-check: set %d of 2 ####\n", i+1)
		if sets[i], err = r.runAll(); err != nil {
			return false, err
		}
		if err := sets[i].write(filepath.Join(r.cfg.outDir, fmt.Sprintf("result-set%d.json", i+1))); err != nil {
			return false, err
		}
	}
	ok := sets[0].ok() && sets[1].ok()
	if !ok {
		fmt.Println("self-check: operations failed; see ops_failed above")
	}
	for i, w0 := range sets[0].Workloads {
		w1 := sets[1].Workloads[i]
		e0, e1 := w0.Untraced.metrics(), w1.Untraced.metrics()
		for _, em := range m.EndToEnd {
			a, b := e0[em.Name].Value, e1[em.Name].Value
			// The second set is judged against the first, as a later commit
			// would be against its parent.
			worse := (b - a) / a
			if em.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > em.Bound {
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Printf("self-check %-20s %-16s %14.4f → %14.4f  %+7.2f%% worse (bound %.0f%%)  %s\n",
				w0.Name, em.Name, a, b, 100*worse, 100*em.Bound, verdict)
		}
		for _, name := range exactCounts {
			if a, b := w0.Traced.Values[name], w1.Traced.Values[name]; a != b {
				ok = false
				fmt.Printf("self-check %-20s %-36s %v != %v  NOT EXACT\n", w0.Name, name, a, b)
			}
		}
		for name, a := range w0.Traced.Values {
			if b := w1.Traced.Values[name]; strings.HasSuffix(name, ".allocs_per_op") && math.Abs(a-b) > allocSlack(a) {
				ok = false
				fmt.Printf("self-check %-20s %-36s %v vs %v  MORE THAN %v APART\n", w0.Name, name, a, b, allocSlack(a))
			}
		}
	}
	if ok {
		fmt.Println("self-check: passed")
	}
	return ok, nil
}
