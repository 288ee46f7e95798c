package prooftree

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/resolution"
	"repro/internal/storage"
	"repro/internal/term"
)

// traceRec accumulates parent pointers while the linear search runs.
type traceRec struct {
	parent   map[string]string
	op       map[string]string
	states   map[string]resolution.State
	finalKey string
	found    bool
}

// TraceStep is one level of the accepting run: the CQ state p of the §4.3
// algorithm after applying Op to the previous level. The first step has an
// empty Op (the initial state q(c̄)); the last state embeds into D.
type TraceStep struct {
	// Op is the transition that produced this state: "resolve <rule>" or
	// "discharge <atom>" (the specialization+decomposition composite).
	Op string
	// State renders the CQ state's atoms.
	State string
	// Atoms is the state width |λ(v)| — always ≤ the node-width bound.
	Atoms int
}

// Trace is an accepting run of the linear proof-tree search: the level
// sequence of a linear proof tree of q w.r.t. Σ whose induced CQ matches
// the database (Theorem 4.8's witness object, in the §4.3 algorithm's
// level-by-level presentation).
type Trace struct {
	Steps []TraceStep
	// Bound is the node-width bound the run respected.
	Bound int
}

// Format renders the run, one level per line.
func (t *Trace) Format() string {
	var b strings.Builder
	for i, s := range t.Steps {
		if s.Op == "" {
			fmt.Fprintf(&b, "%2d. %s\n", i, s.State)
		} else {
			fmt.Fprintf(&b, "%2d. —[%s]→ %s\n", i, s.Op, s.State)
		}
	}
	b.WriteString("    —[embed into D]→ accept\n")
	return b.String()
}

// MaxWidth returns the largest state width along the run.
func (t *Trace) MaxWidth() int {
	m := 0
	for _, s := range t.Steps {
		if s.Atoms > m {
			m = s.Atoms
		}
	}
	return m
}

// DecideWithTrace is Decide restricted to the Linear mode that, on a
// positive answer, also returns the accepting run — the witness linear
// proof tree. The trace costs memory proportional to the visited state
// space (parent pointers), so prefer Decide when no witness is needed;
// the NLogSpace profile of experiment E1 applies to Decide, not to this.
func DecideWithTrace(prog *logic.Program, db *storage.DB, q *logic.CQ, c []term.Term, opt Options) (bool, *Trace, *Stats, error) {
	if opt.Mode != Linear {
		return false, nil, nil, fmt.Errorf("prooftree: traces are only defined for the linear search")
	}
	tr := &traceRec{
		parent: make(map[string]string),
		op:     make(map[string]string),
		states: make(map[string]resolution.State),
	}
	ok, stats, err := decideImpl(prog, db, q, c, opt, tr)
	if err != nil || !ok {
		return ok, nil, stats, err
	}
	if !tr.found {
		// Accepted before the search started recording (e.g. a conflicting
		// candidate short-circuit cannot accept, so this means the initial
		// state itself embedded into D and bfs accepted it on first pop).
		return ok, nil, stats, fmt.Errorf("prooftree: accepting run not recorded")
	}
	// Walk parent pointers from the accepting state back to the root.
	sh := prog // rendering uses the shared naming context
	var rev []TraceStep
	key := tr.finalKey
	for {
		st := tr.states[key]
		rev = append(rev, TraceStep{
			Op:    tr.op[key],
			State: renderState(st, sh),
			Atoms: st.Size(),
		})
		p, okp := tr.parent[key]
		if !okp {
			break
		}
		key = p
	}
	t := &Trace{Bound: stats.Bound}
	for i := len(rev) - 1; i >= 0; i-- {
		t.Steps = append(t.Steps, rev[i])
	}
	return ok, t, stats, nil
}

// ProofNode is one node of a (generally non-linear) proof tree extracted
// from the alternating search — the witness object of Theorem 4.9. A node
// is justified either by embedding into D (leaf), by a decomposition into
// AND-children (Definition 4.4), or by one OR-transition (resolution /
// discharge) to a single child.
type ProofNode struct {
	// State renders the node's CQ state λ(v).
	State string
	// Atoms is the node width |λ(v)|.
	Atoms int
	// Op explains the edge to the children: "" for a leaf that embeds into
	// D, "decompose" for AND-children, or the OR-transition label.
	Op string
	// Children holds the justifying subtrees.
	Children []*ProofNode
}

// Depth is the height of the proof tree.
func (n *ProofNode) Depth() int {
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth() + 1; cd > d {
			d = cd
		}
	}
	return d
}

// Width is the maximum node width |λ(v)| in the tree — bounded by f_WARD.
func (n *ProofNode) Width() int {
	w := n.Atoms
	for _, c := range n.Children {
		if cw := c.Width(); cw > w {
			w = cw
		}
	}
	return w
}

// Format renders the tree with indentation.
func (n *ProofNode) Format() string {
	var b strings.Builder
	n.format(&b, 0)
	return b.String()
}

func (n *ProofNode) format(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.State)
	switch {
	case len(n.Children) == 0:
		b.WriteString("   [embeds into D]\n")
	case n.Op == "decompose":
		b.WriteString("   [decompose]\n")
	default:
		fmt.Fprintf(b, "   [%s]\n", n.Op)
	}
	for _, c := range n.Children {
		c.format(b, depth+1)
	}
}

// DecideWithProofTree is Decide in Alternating mode that, on a positive
// answer, also reconstructs a witness proof tree from the AND-OR graph:
// each node is justified by nodes proved at strictly earlier fixpoint
// iterations, so the extracted tree is finite and well-founded.
func DecideWithProofTree(prog *logic.Program, db *storage.DB, q *logic.CQ, c []term.Term, opt Options) (bool, *ProofNode, *Stats, error) {
	if opt.Mode != Alternating {
		return false, nil, nil, fmt.Errorf("prooftree: proof-tree extraction is defined for the alternating search; use DecideWithTrace for the linear one")
	}
	if prog.HasNegation() {
		return false, nil, nil, fmt.Errorf("prooftree: negated body atoms are not supported by resolution; use the stratified chase")
	}
	if len(c) != len(q.Output) {
		return false, nil, nil, fmt.Errorf("prooftree: candidate tuple arity %d, query arity %d", len(c), len(q.Output))
	}
	sh := analysis.SingleHead(prog)
	an := analysis.Analyze(sh)
	bound := opt.Bound
	if bound == 0 {
		bound = FWard(q, an)
	}
	bind := atom.NewSubst()
	for i, v := range q.Output {
		if !bind.Bind(v, c[i]) {
			return false, nil, &Stats{Bound: bound}, nil
		}
	}
	init := resolution.NewState(bind.ApplyAtoms(q.Atoms))
	s := &searcher{
		prog:  sh,
		db:    db,
		bound: bound,
		opt:   opt,
		stats: &Stats{Bound: bound},
		edb:   sh.EDB(),
		canon: atom.NewCanonicalizer(sh.Store, nil),
	}
	ok, nodes, rootKey, err := s.alternatingGraph(init)
	if err != nil || !ok {
		return ok, nil, s.stats, err
	}
	return ok, extractProof(nodes, rootKey, sh), s.stats, nil
}

// extractProof rebuilds a proof tree for a proved node, justifying it
// with strictly earlier-proved nodes (well-founded by provedAt ranks).
func extractProof(nodes map[string]*altNode, key string, prog *logic.Program) *ProofNode {
	n := nodes[key]
	out := &ProofNode{State: renderState(n.state, prog), Atoms: n.state.Size()}
	if n.accept {
		return out
	}
	// Prefer the decomposition when it is the justification.
	if len(n.andGroup) > 0 {
		all := true
		for _, k := range n.andGroup {
			if !nodes[k].proved || nodes[k].provedAt >= n.provedAt {
				all = false
				break
			}
		}
		if all {
			out.Op = "decompose"
			for _, k := range n.andGroup {
				out.Children = append(out.Children, extractProof(nodes, k, prog))
			}
			return out
		}
	}
	for i, k := range n.orSucc {
		if nodes[k].proved && nodes[k].provedAt < n.provedAt {
			out.Op = n.orOps[i]
			out.Children = append(out.Children, extractProof(nodes, k, prog))
			return out
		}
	}
	// Unreachable for a proved node; render as a leaf defensively.
	return out
}

func renderState(st resolution.State, prog *logic.Program) string {
	if st.Empty() {
		return "⊤ (empty state)"
	}
	parts := make([]string, len(st.Atoms))
	for i, a := range st.Atoms {
		parts[i] = a.String(prog.Store, prog.Reg)
	}
	return strings.Join(parts, ", ")
}
