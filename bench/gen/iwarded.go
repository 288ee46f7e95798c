package gen

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/workload"
)

// scenario picks the iWarded scenario iwarded.materialize loads: the
// first piece-wise linear scenario of workload.GenScenario, scanning
// scenario seeds from 1, that is full Datalog — the class the service
// maintains (a third of the generator's PWL modules use existentials).
// The scenario seed is fixed, not derived from the run seed: rules and
// instance size are the same on every run, and the run seed relabels
// constants and reorders facts.
func scenario(dataSize int) (*workload.Scenario, int64, error) {
	p := workload.DefaultSuiteParams(1, 0)
	p.DataSize = dataSize
	for s := int64(1); s < 1000; s++ {
		sc, err := workload.GenScenario(workload.ShapePWL, s, p)
		if err != nil {
			return nil, 0, err
		}
		full := true
		for _, t := range sc.Program.TGDs {
			full = full && t.IsFull() && len(t.Head) == 1
		}
		if full {
			return sc, s, nil
		}
	}
	return nil, 0, fmt.Errorf("gen: no full-Datalog PWL scenario among seeds 1..999")
}

// materialize: one client re-loading one iWarded scenario, rules and
// facts inline, so every op is a from-scratch materialization.
func materialize(seed int64, sz Size) (*Workload, error) {
	sc, _, err := scenario(sz.IWardedData)
	if err != nil {
		return nil, err
	}
	prog := sc.Program
	rules := prog.String()

	// The instance is drawn here, not taken from sc.DB: GenScenario draws
	// its facts while ranging over a map, so the same scenario seed gives
	// a different instance (and a ~2% different closure) in every process.
	// Same distribution — DataSize/8 constants, DataSize/#relations
	// uniform random pairs per relation — from a fixed seed over the
	// relations in name order; the run seed only relabels the constants.
	var preds []string
	for pid := range prog.EDB() {
		if prog.Reg.Arity(pid) != 2 {
			return nil, fmt.Errorf("gen: iwarded: %s has arity %d, want 2", prog.Reg.Name(pid), prog.Reg.Arity(pid))
		}
		preds = append(preds, prog.Reg.Name(pid))
	}
	sort.Strings(preds)
	consts := max(4, sz.IWardedData/8)
	perm := subSeed(seed, "labels").Perm(consts)
	draw := rand.New(rand.NewSource(structureSeed))
	rows := map[string][][2]string{}
	for _, p := range preds {
		seen := map[[2]int]bool{}
		for i := 0; i < max(1, sz.IWardedData/len(preds)); i++ {
			f := [2]int{draw.Intn(consts), draw.Intn(consts)}
			if !seen[f] {
				seen[f] = true
				rows[p] = append(rows[p], [2]string{fmt.Sprintf("d%d", perm[f[0]]), fmt.Sprintf("d%d", perm[f[1]])})
			}
		}
	}

	o, err := NewOracle(rules, rows)
	if err != nil {
		return nil, err
	}
	w := &Workload{Name: "iwarded.materialize", Rules: rules, Facts: o.Facts()}
	var inline strings.Builder
	inline.WriteString(rules)
	for _, p := range preds {
		r := rows[p]
		rng := subSeed(seed, "rows/"+p)
		rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		var csv bytes.Buffer
		for _, f := range r {
			fmt.Fprintf(&csv, "%s,%s\n", f[0], f[1])
			fmt.Fprintf(&inline, "%s(%s,%s).\n", p, f[0], f[1])
		}
		w.Relations = append(w.Relations, Relation{Pred: p, CSV: csv.Bytes(), Rows: len(r)})
	}

	// The scenario's own query — everything the last module derives — is
	// the probe: it is only right once every module has reached its
	// fixpoint.
	// (Rendered by hand: the generator names the query's variables in
	// lower case, which the surface syntax reads back as constants.)
	w.Probe = Op{Kind: "probe", Query: fmt.Sprintf("?(X,Y) :- %s(X,Y).", prog.Reg.Name(sc.Query.Atoms[0].Pred)), Limit: 100000}
	queryBody(&w.Probe)
	if err := o.want(&w.Probe); err != nil {
		return nil, err
	}

	load := Op{Kind: "load", Write: true, Path: "/load", Text: inline.String(), Want: Want{Rows: o.Facts()}}
	textBody(&load, "program")
	// A second writer would only queue on the service's writer mutex.
	w.Clients = []Client{{Name: "loader", Ops: []Op{load}}}
	w.Primary = func(op *Op) bool { return op.Kind == "load" }
	return w, nil
}
