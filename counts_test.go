package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/incremental"
	"repro/internal/parser"
	"repro/internal/prooftree"
	"repro/internal/relio"
	"repro/internal/service"
	"repro/internal/storage"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden.json from this run")

const countsGolden = "testdata/counts.golden.json"

// shapeCounts is what one workload shape records: the load's fixpoint
// counts, the materialized instance's bytes by storage structure, the
// checkpoint a durable service writes for it and, for the churned shape,
// the maintenance counts of a seeded update stream.
type shapeCounts struct {
	Facts           int                `json:"facts"`
	Derived         int                `json:"derived_per_load"`
	Rounds          int                `json:"rounds_per_load,omitempty"`
	Bytes           map[string]int     `json:"footprint_bytes"`
	BytesPerFact    map[string]float64 `json:"footprint_bytes_per_fact"`
	CheckpointBytes int64              `json:"checkpoint_bytes,omitempty"`
	Stream          *streamCounts      `json:"update_stream,omitempty"`
}

// streamCounts is what a delete/re-insert stream records: the engine's
// maintenance totals and the live fact count after each phase.
type streamCounts struct {
	Deletes           int `json:"deletes"`
	Overdeleted       int `json:"overdeleted"`
	Kept              int `json:"kept"`
	Rederived         int `json:"rederived"`
	DerivedNew        int `json:"derived_new"`
	LiveAfterDeletes  int `json:"live_after_deletes"`
	LiveAfterReinsert int `json:"live_after_reinserts"`
}

// searchCounts is what one scenario of the seed-17 engine suite records:
// the chase's fact count and, on a PWL scenario, the linear proof-tree
// search's Stats summed over every candidate tuple; on
// iwarded_005_linearizable, the alternating search's Stats for each of the
// first two chase answers.
type searchCounts struct {
	ChaseFacts  int               `json:"chase_facts"`
	Linear      *prooftree.Stats  `json:"linear,omitempty"`
	Alternating []prooftree.Stats `json:"alternating,omitempty"`
}

// TestWorkloadCounts is the count gate: exact, run-to-run repeatable
// numbers of the benchmark's workload shapes, computed in process and
// compared with testdata/counts.golden.json. Each shape records its load
// counts, footprint and checkpoint bytes; tc.blocks also records a seeded
// stream of 200 edge deletes and their re-inserts. tc.blocks.csv loads the
// same graph's edges as one CSV bulk batch, at GOMAXPROCS 1 and 4, which
// must record the same numbers. prooftree.suite17 records the chase and
// proof-tree searches of TestSuiteEnginesAgree's scenarios. A change that
// moves one on purpose re-baselines with
// `go test -run TestWorkloadCounts -update .` and says why; any other
// drift fails.
func TestWorkloadCounts(t *testing.T) {
	got := map[string]shapeCounts{}
	for name, text := range map[string]string{
		"iwarded.materialize": iwardedLoadText(t, 5),
		"tc.blocks":           workload.TCBlocksText(60),
	} {
		c := loadCounts(t, text)
		c.CheckpointBytes = checkpointBytes(t, text)
		if name == "tc.blocks" {
			c.Stream = streamCountsOf(t, text, 200)
		}
		got[name] = c
	}
	csv := csvLoadCounts(t, workload.TCBlocksText(60), 1)
	if again := csvLoadCounts(t, workload.TCBlocksText(60), 4); !reflect.DeepEqual(csv, again) {
		t.Errorf("tc.blocks.csv: GOMAXPROCS 1 records %+v, GOMAXPROCS 4 records %+v", csv, again)
	}
	if csv.Facts != got["tc.blocks"].Facts {
		t.Errorf("tc.blocks.csv: %d live facts, tc.blocks has %d", csv.Facts, got["tc.blocks"].Facts)
	}
	got["tc.blocks.csv"] = csv
	all := map[string]any{"prooftree.suite17": suiteSearchCounts(t)}
	for name, c := range got {
		all[name] = c
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if *update {
		if err := os.WriteFile(countsGolden, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("workload counts drifted from %s (re-baseline with -update only on purpose):\ngot:\n%s\nwant:\n%s", countsGolden, out, want)
	}
	// The ladder's traced iwarded.materialize reads these at seed 5.
	if iw := got["iwarded.materialize"]; iw.Derived != 58829 || iw.Rounds != 56 {
		t.Errorf("iwarded.materialize: %d derived in %d rounds, the ladder reads 58829 in 56", iw.Derived, iw.Rounds)
	}
}

// suiteSearchCounts runs the chase on every scenario of the seed-17 engine
// suite, the linear proof-tree search on its PWL scenarios and the
// alternating search on iwarded_005_linearizable's first two chase
// answers, with TestSuiteEnginesAgree's options.
func suiteSearchCounts(t *testing.T) map[string]searchCounts {
	t.Helper()
	out := map[string]searchCounts{}
	for _, sc := range engineSuite(t) {
		ans, cres, err := chase.CertainAnswers(sc.Program, sc.DB, sc.Query, chase.Default())
		if err != nil {
			t.Fatal(err)
		}
		c := searchCounts{ChaseFacts: cres.DB.Len()}
		switch {
		case sc.Shape == workload.ShapePWL:
			_, st, err := prooftree.Answers(sc.Program, sc.DB, sc.Query,
				prooftree.Options{Mode: prooftree.Linear, MaxVisited: 3_000_000})
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			c.Linear = st
		case sc.Name == "iwarded_005_linearizable":
			for _, tup := range ans[:min(2, len(ans))] {
				_, st, err := prooftree.Decide(sc.Program, sc.DB, sc.Query, tup,
					prooftree.Options{Mode: prooftree.Alternating, MaxVisited: spotBudget})
				if err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				c.Alternating = append(c.Alternating, *st)
			}
		}
		out[sc.Name] = c
	}
	return out
}

// loadCounts parses and materializes one program text with the options
// the service loads with.
func loadCounts(t *testing.T, text string) shapeCounts {
	t.Helper()
	res, err := parser.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	base := storage.NewDB()
	base.InsertAll(res.Facts)
	db, stats, err := datalog.Eval(res.Program, base, datalog.Options{Stratify: true, BiasRecursiveAtom: true})
	if err != nil {
		t.Fatal(err)
	}
	c := shapeCounts{Facts: db.Len(), Derived: stats.Derived, Rounds: stats.Rounds}
	c.footprint(db)
	return c
}

// footprint records the instance's bytes by structure, in total and per
// fact.
func (c *shapeCounts) footprint(db *storage.DB) {
	c.Bytes, c.BytesPerFact = db.Footprint(), map[string]float64{}
	for k, v := range c.Bytes {
		c.BytesPerFact[k] = math.Round(100*float64(v)/float64(c.Facts)) / 100
	}
}

// csvLoadCounts loads the TC text's rules into an incremental engine, then
// its edges as CSV through relio.LoadBuffered at the default batch into
// InsertBulk — the path Service.LoadCSV takes — with GOMAXPROCS set to
// procs for the load.
func csvLoadCounts(t *testing.T, text string, procs int) shapeCounts {
	t.Helper()
	var rules, rows strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if edge, ok := strings.CutPrefix(line, "e("); ok {
			rows.WriteString(strings.Replace(edge, ").", "", 1))
		} else {
			rules.WriteString(line)
		}
	}
	res, err := parser.Parse(rules.String())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := incremental.New(res.Program, storage.NewDB())
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	if _, err := relio.LoadBuffered(res.Program, strings.NewReader(rows.String()), "e", 0, func(b *storage.TupleBuffer) error {
		_, err := eng.InsertBulk([]*storage.TupleBuffer{b})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	c := shapeCounts{Facts: eng.DB().Len(), Derived: eng.Stats().DerivedNew}
	c.footprint(eng.DB())
	return c
}

// checkpointBytes is the size of the checkpoint file a durable service
// writes when it loads the text.
func checkpointBytes(t *testing.T, text string) int64 {
	t.Helper()
	dir := t.TempDir()
	svc, err := service.Open(service.Options{DataDir: dir, Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Load(text); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints after load: %v %v", ckpts, err)
	}
	fi, err := os.Stat(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// streamCountsOf materializes the text in an incremental engine, deletes
// n of its base facts one at a time in a seeded order, then re-inserts
// them in the same order.
func streamCountsOf(t *testing.T, text string, n int) *streamCounts {
	t.Helper()
	res, err := parser.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	base := storage.NewDB()
	base.InsertAll(res.Facts)
	eng, err := incremental.New(res.Program, base)
	if err != nil {
		t.Fatal(err)
	}
	victims := make([]atom.Atom, n)
	for i, j := range rand.New(rand.NewSource(7)).Perm(len(res.Facts))[:n] {
		victims[i] = res.Facts[j]
	}
	c, loaded := &streamCounts{Deletes: n}, eng.DB().Len()
	for _, f := range victims {
		if err := eng.Delete(f); err != nil {
			t.Fatal(err)
		}
	}
	c.LiveAfterDeletes = eng.DB().Len()
	for _, f := range victims {
		if err := eng.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	c.LiveAfterReinsert = eng.DB().Len()
	st := eng.Stats()
	c.Overdeleted, c.Kept, c.Rederived, c.DerivedNew = st.Overdeleted, st.Kept, st.Rederived, st.DerivedNew
	// Re-inserting every deleted fact restores the loaded closure.
	if st.Deleted != n || st.Inserted != n || c.LiveAfterReinsert != loaded {
		t.Fatalf("stream: %+v, %d live after re-inserts, %d loaded", st, c.LiveAfterReinsert, loaded)
	}
	return c
}

// iwardedLoadText is the text iwarded.materialize loads at a run seed:
// the first full-Datalog piece-wise linear workload.GenScenario (scenario
// seeds from 1, DataSize 1400), over uniform random pairs drawn from the
// benchmark's structure seed, constants relabeled and rows shuffled by
// the run seed.
func iwardedLoadText(t *testing.T, seed int64) string {
	t.Helper()
	const dataSize = 1400
	p := workload.DefaultSuiteParams(1, 0)
	p.DataSize = dataSize
	var sc *workload.Scenario
	for s := int64(1); sc == nil && s < 1000; s++ {
		c, err := workload.GenScenario(workload.ShapePWL, s, p)
		if err != nil {
			t.Fatal(err)
		}
		full := true
		for _, tgd := range c.Program.TGDs {
			full = full && tgd.IsFull() && len(tgd.Head) == 1
		}
		if full {
			sc = c
		}
	}
	if sc == nil {
		t.Fatal("no full-Datalog PWL scenario among seeds 1..999")
	}
	prog := sc.Program
	var preds []string
	for pid := range prog.EDB() {
		preds = append(preds, prog.Reg.Name(pid))
	}
	sort.Strings(preds)
	consts := max(4, dataSize/8)
	perm := subSeed(seed, "labels").Perm(consts)
	draw := rand.New(rand.NewSource(20190625))
	var b strings.Builder
	b.WriteString(prog.String())
	for _, pred := range preds {
		var rows [][2]int
		seen := map[[2]int]bool{}
		for i := 0; i < max(1, dataSize/len(preds)); i++ {
			f := [2]int{draw.Intn(consts), draw.Intn(consts)}
			if !seen[f] {
				seen[f] = true
				rows = append(rows, [2]int{perm[f[0]], perm[f[1]]})
			}
		}
		subSeed(seed, "rows/"+pred).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		for _, f := range rows {
			fmt.Fprintf(&b, "%s(d%d,d%d).\n", pred, f[0], f[1])
		}
	}
	return b.String()
}

// subSeed is the benchmark generator's named random stream of a seed.
func subSeed(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}
