package repro

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/parser"
	"repro/internal/storage"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden.json from this run")

const countsGolden = "testdata/counts.golden.json"

// shapeCounts is what one workload shape records: the load's fixpoint
// counts and the materialized instance's bytes by storage structure.
type shapeCounts struct {
	Facts        int                `json:"facts"`
	Derived      int                `json:"derived_per_load"`
	Rounds       int                `json:"rounds_per_load"`
	Bytes        map[string]int     `json:"footprint_bytes"`
	BytesPerFact map[string]float64 `json:"footprint_bytes_per_fact"`
}

// TestWorkloadCounts is the count gate: exact, run-to-run repeatable
// numbers of the benchmark's workload shapes, computed in process and
// compared with testdata/counts.golden.json. A change that moves one on
// purpose re-baselines with `go test -run TestWorkloadCounts -update .`
// and says why; any other drift fails.
func TestWorkloadCounts(t *testing.T) {
	got := map[string]shapeCounts{}
	for name, text := range map[string]string{
		"iwarded.materialize": iwardedLoadText(t, 5),
		"tc.blocks":           tcBlocksLoadText(60),
	} {
		got[name] = loadCounts(t, text)
	}
	out, err := json.MarshalIndent(got, "", "  ")
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
	c := shapeCounts{Facts: db.Len(), Derived: stats.Derived, Rounds: stats.Rounds, Bytes: db.Footprint(), BytesPerFact: map[string]float64{}}
	for k, v := range c.Bytes {
		c.BytesPerFact[k] = math.Round(100*float64(v)/float64(c.Facts)) / 100
	}
	return c
}

// tcBlocksLoadText is the tc.* workloads' program over their block graph:
// blocks of 150 nodes in which node i has an edge to each of i+1..i+5
// with probability 0.3, drawn from the benchmark's structure seed.
func tcBlocksLoadText(blocks int) string {
	const blockSize = 150
	rng := rand.New(rand.NewSource(20190625))
	g := &workload.Graph{N: blocks * blockSize}
	for b := 0; b < blocks; b++ {
		base := b * blockSize
		for i := 0; i < blockSize; i++ {
			for d := 1; d <= 5 && i+d < blockSize; d++ {
				if rng.Float64() < 0.3 {
					g.Edges = append(g.Edges, [2]int{base + i, base + i + d})
				}
			}
		}
	}
	var b strings.Builder
	b.WriteString("t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\n")
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", e[0], e[1])
	}
	return b.String()
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
