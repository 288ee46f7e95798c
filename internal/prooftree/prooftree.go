// Package prooftree implements the space-bounded query-answering
// algorithms of Section 4: the nondeterministic linear proof-tree search
// for piece-wise linear warded sets of TGDs (Theorem 4.8 + the §4.3
// algorithm), and the alternating proof-tree search for arbitrary warded
// sets (Theorem 4.9).
//
// The nondeterministic machines are determinized in the standard way — a
// reachability search over canonicalized CQ states with memoization. Each
// individual state respects the paper's node-width bound (f_WARD∩PWL or
// f_WARD atoms), so the per-state footprint is O(bound · log |dom(D)|)
// bits: the logarithmic-space claim of Theorem 4.2 is about exactly this
// per-state size, which the Stats expose for experiment E1.
//
// The §4.3 operations map to transitions as follows:
//
//   - resolution  → resolution.MGCUs + resolution.Resolve (guessing σ and
//     the MGCU becomes branching);
//   - specialization + decomposition → a database-driven "discharge" step:
//     match one atom into D (binding its variables to constants — the
//     specialization γ : V → dom(D)) and drop it (the leaf child of the
//     decomposition). Atom-merging specializations are kept as an explicit
//     transition;
//   - the termination test atoms(p) ⊆ D → accepting when a homomorphism
//     embeds the whole remaining state into D.
package prooftree

import (
	"container/heap"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/plan"
	"repro/internal/resolution"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/term"
)

// Mode selects the proof-tree search shape.
type Mode int

const (
	// Linear searches for a linear proof tree (WARD ∩ PWL, Theorem 4.8).
	Linear Mode = iota
	// Alternating searches for a general proof tree (WARD, Theorem 4.9)
	// with AND-branching at decompositions.
	Alternating
)

// Options configures a proof search.
type Options struct {
	Mode Mode
	// Bound overrides the node-width bound (0 = compute from the paper's
	// polynomial for the mode).
	Bound int
	// MaxVisited aborts the search after this many distinct states
	// (0 = unlimited). An aborted search returns an error.
	MaxVisited int
	// Oracle, when non-nil, is a termination-controlled chase of the same
	// database under the same program (chase.Run with guide structures).
	// States containing an atom with no homomorphic image in the oracle
	// are pruned: an atom that holds in no chase extension is unprovable.
	// This hybridizes the space-efficient search with one materialization,
	// amortized across many Decide calls; it changes performance, never
	// answers. Build it from a chase.Run result (core.Reasoner.HybridOracle
	// does this automatically).
	Oracle *storage.DB
}

// Stats instruments the search; the E1/E11 experiments report these.
type Stats struct {
	// Bound is the node-width bound used (max atoms per state).
	Bound int
	// Visited is the number of distinct canonical states explored.
	Visited int
	// Resolutions, Discharges, Specializations, Decompositions count
	// transitions taken.
	Resolutions     int
	Discharges      int
	Specializations int
	Decompositions  int
	// MaxStateAtoms is the largest state encountered (must be ≤ Bound).
	MaxStateAtoms int
	// MaxStateBytes is the largest canonical state key in bytes — the
	// per-state space usage, the quantity NLogSpace bounds. The key is
	// 4 B per predicate and per argument (atom.Canonicalizer), so it
	// follows the state's shape only.
	MaxStateBytes int
	// PeakFrontier is the largest BFS frontier (linear mode only).
	PeakFrontier int
}

// FWardPWL computes f_WARD∩PWL(q, Σ) = (|q|+1) · max level · max body size
// (§4.2). |q| counts atoms of q.
func FWardPWL(q *logic.CQ, an *analysis.Analysis) int {
	ml := an.MaxLevel()
	if ml == 0 {
		ml = 1
	}
	mb := an.Prog.MaxBodySize()
	if mb == 0 {
		mb = 1
	}
	return (len(q.Atoms) + 1) * ml * mb
}

// FWard computes f_WARD(q, Σ) = 2 · max(|q|, max body size) (§4.2).
func FWard(q *logic.CQ, an *analysis.Analysis) int {
	m := len(q.Atoms)
	if mb := an.Prog.MaxBodySize(); mb > m {
		m = mb
	}
	if m == 0 {
		m = 1
	}
	return 2 * m
}

// Decide answers the decision problem CQAns: is c̄ ∈ cert(q, D, Σ)?
// The program is normalized to single-atom heads first (§4.2, w.l.o.g.).
func Decide(prog *logic.Program, db *storage.DB, q *logic.CQ, c []term.Term, opt Options) (bool, *Stats, error) {
	return decideImpl(prog, db, q, c, opt, nil)
}

func decideImpl(prog *logic.Program, db *storage.DB, q *logic.CQ, c []term.Term, opt Options, tr *traceRec) (bool, *Stats, error) {
	if prog.HasNegation() {
		return false, nil, fmt.Errorf("prooftree: negated body atoms are not supported by resolution; use the stratified chase")
	}
	if len(c) != len(q.Output) {
		return false, nil, fmt.Errorf("prooftree: candidate tuple arity %d, query arity %d", len(c), len(q.Output))
	}
	for _, t := range c {
		if !t.IsConst() {
			return false, nil, fmt.Errorf("prooftree: candidate tuple must hold constants")
		}
	}
	sh := analysis.SingleHead(prog)
	an := analysis.Analyze(sh)
	bound := opt.Bound
	if bound == 0 {
		switch opt.Mode {
		case Linear:
			bound = FWardPWL(q, an)
		default:
			bound = FWard(q, an)
		}
	}
	// Instantiate the output variables with c̄ (the first step of the §4.3
	// algorithm: p := Q ← α1,...,αn with atoms(q(c̄))).
	bind := atom.NewSubst()
	for i, v := range q.Output {
		if !bind.Bind(v, c[i]) {
			return false, &Stats{Bound: bound}, nil // conflicting constants
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
		trace: tr,
		canon: atom.NewCanonicalizer(sh.Store, nil),
	}
	var ok bool
	var err error
	switch opt.Mode {
	case Linear:
		ok, err = s.bfs(init)
	default:
		ok, err = s.alternating(init)
	}
	return ok, s.stats, err
}

type searcher struct {
	prog  *logic.Program
	db    *storage.DB
	bound int
	opt   Options
	stats *Stats
	// renamed holds one variable-disjoint copy of each TGD. States handed
	// to successors are always canonical (variables from the v0, v1, ...
	// pool), so a single renaming into a disjoint pool suffices — the
	// per-step renaming σ_v of §4.1 collapses to this cache.
	renamed []*logic.TGD
	// edb marks predicates that occur in no TGD head: atoms over them can
	// only ever be discharged against D, never resolved.
	edb map[schema.PredID]bool
	// Atom-wise refutation cache: canonical single-atom state key →
	// provable. A state containing an atom whose single-atom
	// generalization is unprovable is dead, because a proof of the joint
	// state restricts to a proof of each atom's existential closure.
	atomCache      map[string]bool
	atomInProgress map[string]bool
	abortErr       error
	// canon names states up to renaming for the visited sets and the
	// atom-wise cache; nested searches share it.
	canon *atom.Canonicalizer
	// trace, when non-nil, records parent pointers and transition labels of
	// the linear search so an accepting run can be reconstructed (the
	// level sequence of the linear proof tree). Only the outermost search
	// records; nested atom-provability probes suspend it.
	trace *traceRec
	// patterns are the compiled joins every match of state atoms into D
	// and into the oracle runs through — discharges, dead-atom and
	// acceptance checks — keyed by shape, so one plan serves every state
	// of the same shape for the length of this Decide call.
	patterns plan.Patterns
}

// atomProvable decides (with caching) whether the single-atom state {a}
// is provable. Atoms currently being decided higher up the stack are
// optimistically treated as provable — the pruning stays sound, it just
// does not fire.
func (s *searcher) atomProvable(a atom.Atom) bool {
	if s.atomCache == nil {
		s.atomCache = make(map[string]bool)
		s.atomInProgress = make(map[string]bool)
	}
	st := resolution.NewState([]atom.Atom{a.Clone()})
	_, key := resolution.Canonical(st, s.canon)
	if v, ok := s.atomCache[key]; ok {
		return v
	}
	if s.atomInProgress[key] {
		return true
	}
	s.atomInProgress[key] = true
	defer delete(s.atomInProgress, key)
	// Nested probes must not pollute the outer accepting-run trace.
	saved := s.trace
	s.trace = nil
	defer func() { s.trace = saved }()
	var ok bool
	var err error
	if s.opt.Mode == Linear {
		ok, err = s.bfs(st)
	} else {
		ok, err = s.alternating(st)
	}
	if err != nil {
		if s.abortErr == nil {
			s.abortErr = err
		}
		return true
	}
	s.atomCache[key] = ok
	return ok
}

// simplify removes atoms that are ground and present in D (a no-binding
// discharge) and detects dead states: an atom over an EDB predicate that
// matches no database fact can never be discharged, and EDB atoms cannot be
// resolved, so the whole state is unprovable.
func (s *searcher) simplify(st resolution.State) (resolution.State, bool) {
	// kept stays nil until the first dropped atom: until then the kept
	// atoms are a prefix of st.Atoms.
	var kept []atom.Atom
	for i, a := range st.Atoms {
		one := st.Atoms[i : i+1]
		ground := a.IsGround()
		if ground && s.db.Contains(a) {
			if kept == nil {
				kept = append(make([]atom.Atom, 0, len(st.Atoms)-1), st.Atoms[:i]...)
			}
			continue
		}
		if s.edb[a.Pred] && (ground || !s.patterns.Exists(s.db, one)) {
			return st, true
		}
		// Variables bind anything in the oracle; constants are rigid, so a
		// null never counts as a specific constant — facts over nulls
		// witness only existentials.
		if !ground && s.opt.Oracle != nil && !s.patterns.Exists(s.opt.Oracle, one) {
			return st, true
		}
		if !ground && !s.edb[a.Pred] && !s.atomProvable(a) {
			return st, true
		}
		if kept != nil {
			kept = append(kept, a)
		}
	}
	out := st
	if kept != nil {
		out = resolution.State{Atoms: kept}
	}
	// Whole-state oracle check: a proof-tree state must embed
	// homomorphically into chase(D, Σ) (its atoms are jointly witnessed
	// there — the Θ-image of §4.2); states that do not embed are dead.
	// This is the strong version of the per-atom check above.
	if s.opt.Oracle != nil && len(out.Atoms) > 1 && !s.patterns.Exists(s.opt.Oracle, out.Atoms) {
		return st, true
	}
	return out, false
}

func (s *searcher) renamedTGDs() []*logic.TGD {
	if s.renamed == nil {
		s.renamed = make([]*logic.TGD, len(s.prog.TGDs))
		for i, t := range s.prog.TGDs {
			s.renamed[i] = t.Rename(s.prog.Store, "u")
		}
	}
	return s.renamed
}

func (s *searcher) note(st resolution.State, key string) {
	if n := st.Size(); n > s.stats.MaxStateAtoms {
		s.stats.MaxStateAtoms = n
	}
	if len(key) > s.stats.MaxStateBytes {
		s.stats.MaxStateBytes = len(key)
	}
}

// successors enumerates the OR-successors of a state: resolvents,
// single-atom discharges, and merge specializations. fn receives each
// successor; returning false stops enumeration.
//
// Pruning: when the state contains an atom over an EDB predicate, the only
// successors explored are the discharges of ONE such atom (the most
// anchored). This is complete: EDB atoms can never be resolved, discharges
// commute with each other (they jointly form one homomorphism into D), and
// a discharge can be moved before any resolution step — the resolvent of
// the instantiated state is an instance of the resolvent of the general
// state, and instantiation can only shrink states. It turns the search
// into rule expansion interleaved with index-driven joins, which is what
// makes negative instances terminate quickly.
func (s *searcher) successors(st resolution.State, fn func(resolution.State, string) bool) {
	if i := s.pickEDBAtom(st); i >= 0 {
		s.dischargeAtom(st, i, fn)
		return
	}
	// Resolution with every TGD. Full TGDs use size-1 chunks (single-atom
	// resolution subsumes merged resolution when no existential is
	// involved); TGDs with existential heads need multi-atom chunks for
	// the condition-(2) merges, and keep the full enumeration.
	for ti, rt := range s.renamedTGDs() {
		maxChunk := 1
		if len(rt.Existentials()) > 0 {
			maxChunk = 0
		}
		for _, ch := range resolution.MGCUs(st, rt, maxChunk) {
			child := resolution.Resolve(st, rt, ch)
			if child.Size() > s.bound {
				continue // node-width bound: reject oversized resolvents
			}
			s.stats.Resolutions++
			if !fn(child, s.opLabel("resolve", ti)) {
				return
			}
		}
	}
	// Discharge one (intensional) atom against the database.
	for i := range st.Atoms {
		stop := false
		s.dischargeAtom(st, i, func(child resolution.State, op string) bool {
			if !fn(child, op) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
	// NOTE on specialization (Definition 4.5): explicit variable-merging
	// or variable-to-constant successors are deliberately absent. Variable
	// bindings to dom(D) happen inside discharges; merging two atoms and
	// then resolving the merged atom produces exactly the resolvent of the
	// multi-atom chunk that resolves the pair together (same size), which
	// MGCUs already enumerates; and an instance state never admits a chunk
	// unifier its generalization rejects (constants only tighten the chunk
	// conditions), so every proof from a specialized state lifts to one
	// from the general state. Dropping these successors keeps the
	// reachable state space polynomial on chain-shaped data.
}

// pickEDBAtom returns the index of the EDB atom with the most constant
// arguments (the most selective discharge), or -1 if none exists.
func (s *searcher) pickEDBAtom(st resolution.State) int {
	best, bestScore := -1, -1
	for i, a := range st.Atoms {
		if !s.edb[a.Pred] {
			continue
		}
		score := 0
		for _, t := range a.Args {
			if !t.IsVar() {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// dischargeAtom enumerates the discharges of atom i: every match of the
// atom into D yields a successor with the atom removed and the bindings
// propagated to the rest (the specialization+decomposition composite of
// the §4.3 algorithm).
func (s *searcher) dischargeAtom(st resolution.State, i int, fn func(resolution.State, string) bool) {
	pa := st.Atoms[i]
	rest := make([]atom.Atom, 0, len(st.Atoms)-1)
	rest = append(rest, st.Atoms[:i]...)
	rest = append(rest, st.Atoms[i+1:]...)
	var op string
	s.patterns.Each(s.db, st.Atoms[i:i+1], func(vars, vals []term.Term) bool {
		s.stats.Discharges++
		if op == "" {
			op = "discharge " + pa.String(s.prog.Store, s.prog.Reg)
		}
		h := make(atom.Subst, len(vars))
		for n, v := range vars {
			h[v] = vals[n]
		}
		return fn(resolution.NewState(h.ApplyAtoms(rest)), op)
	})
}

// opLabel renders a transition label for traces ("resolve r3@12").
func (s *searcher) opLabel(kind string, tgdIdx int) string {
	label := s.prog.TGDs[tgdIdx].Label
	if label == "" {
		label = fmt.Sprintf("tgd %d", tgdIdx)
	}
	return kind + " " + label
}

// accepts reports whether the state is terminal: every remaining atom
// embeds into D simultaneously (the final run of specialization +
// decomposition steps of the §4.3 algorithm).
func (s *searcher) accepts(st resolution.State) bool {
	return st.Empty() || s.patterns.Exists(s.db, st.Atoms)
}

// stateItem is a prioritized search state.
type stateItem struct {
	st   resolution.State
	key  string
	prio int
	seq  int
}

// stateHeap orders states by priority (lower = explored first), breaking
// ties by insertion order.
type stateHeap []stateItem

func (h stateHeap) Len() int { return len(h) }
func (h stateHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h stateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *stateHeap) Push(x any)   { *h = append(*h, x.(stateItem)) }
func (h *stateHeap) Pop() any {
	old := *h
	n := len(old)
	out := old[n-1]
	*h = old[:n-1]
	return out
}

// priority scores a state for best-first exploration: fewer atoms and
// fewer distinct variables first. Small, ground states are the ones about
// to discharge completely, so accepting states surface quickly on positive
// instances; negative instances still exhaust the same reachable space.
func priority(st resolution.State) int {
	vars := make(map[term.Term]bool)
	for _, a := range st.Atoms {
		for _, t := range a.Args {
			if t.IsVar() {
				vars[t] = true
			}
		}
	}
	return st.Size()*8 + len(vars)
}

// bfs is the determinized linear search: best-first reachability from the
// initial state to an accepting state over canonical states. (The name
// stays historical; the visited-set makes any exploration order complete.)
func (s *searcher) bfs(init resolution.State) (bool, error) {
	visited := make(map[string]bool)
	init, dead := s.simplify(init)
	if dead {
		return false, nil
	}
	canon, key := resolution.Canonical(init, s.canon)
	s.note(canon, key)
	if canon.Size() > s.bound {
		// The initial query can exceed the bound only if the caller forced
		// a smaller bound; the paper's polynomial is ≥ |q| by construction.
		return false, fmt.Errorf("prooftree: initial state (%d atoms) exceeds bound %d", canon.Size(), s.bound)
	}
	h := &stateHeap{{st: canon, key: key, prio: priority(canon)}}
	seq := 0
	visited[key] = true
	s.stats.Visited++ // nested searches share the counter; never reset it
	if s.trace != nil {
		s.trace.states[key] = canon
	}
	for h.Len() > 0 {
		if h.Len() > s.stats.PeakFrontier {
			s.stats.PeakFrontier = h.Len()
		}
		item := heap.Pop(h).(stateItem)
		cur := item.st
		if s.accepts(cur) {
			if s.trace != nil {
				s.trace.finalKey = item.key
				s.trace.found = true
			}
			return true, nil
		}
		var aborted error
		s.successors(cur, func(child resolution.State, op string) bool {
			child, dead := s.simplify(child)
			if dead {
				return true
			}
			cc, ck := resolution.Canonical(child, s.canon)
			if visited[ck] {
				return true
			}
			visited[ck] = true
			s.stats.Visited++
			s.note(cc, ck)
			if s.trace != nil {
				s.trace.parent[ck] = item.key
				s.trace.op[ck] = op
				s.trace.states[ck] = cc
			}
			if s.opt.MaxVisited > 0 && s.stats.Visited > s.opt.MaxVisited {
				aborted = fmt.Errorf("prooftree: state budget %d exhausted", s.opt.MaxVisited)
				return false
			}
			seq++
			heap.Push(h, stateItem{st: cc, key: ck, prio: priority(cc), seq: seq})
			return true
		})
		if aborted != nil {
			return false, aborted
		}
		if s.abortErr != nil {
			return false, s.abortErr
		}
	}
	return false, nil
}

// altNode is one state of the alternating search's AND-OR graph.
type altNode struct {
	accept bool
	// orSucc holds keys of OR-successors (resolution/discharge children);
	// orOps the transition labels, parallel to orSucc.
	orSucc []string
	orOps  []string
	// andGroup holds the decomposition's component keys (empty = none):
	// the node is provable if ALL components are provable.
	andGroup []string
	proved   bool
	// provedAt is the fixpoint iteration that proved the node (0 for
	// accepting nodes); used to reconstruct well-founded proof trees.
	provedAt int
	// state is kept for witness rendering when tracing is on.
	state resolution.State
}

// alternating is the search for general warded programs (Theorem 4.9):
// a state is provable if it embeds into D, or decomposes into components
// that are all provable, or some resolvent/discharge is provable. The
// provable set is the least fixpoint of a monotone operator over the
// finite space of canonical bounded states, so the search (1) explores
// the reachable AND-OR graph once, then (2) propagates provability to a
// fixpoint — the determinization of the paper's alternating algorithm.
func (s *searcher) alternating(init resolution.State) (bool, error) {
	ok, _, _, err := s.alternatingGraph(init)
	return ok, err
}

// alternatingGraph runs the alternating search and returns the explored
// AND-OR graph so callers can reconstruct a proof tree.
func (s *searcher) alternatingGraph(init resolution.State) (bool, map[string]*altNode, string, error) {
	nodes := make(map[string]*altNode)
	const deadKey = "\x00dead"
	var build func(st resolution.State) (string, error)
	build = func(st resolution.State) (string, error) {
		st, dead := s.simplify(st)
		if dead {
			return deadKey, nil
		}
		canon, key := resolution.Canonical(st, s.canon)
		if _, ok := nodes[key]; ok {
			return key, nil
		}
		s.note(canon, key)
		n := &altNode{state: canon}
		nodes[key] = n // register before recursing: cycles close on the key
		s.stats.Visited++
		if s.opt.MaxVisited > 0 && s.stats.Visited > s.opt.MaxVisited {
			return "", fmt.Errorf("prooftree: state budget %d exhausted", s.opt.MaxVisited)
		}
		if s.accepts(canon) {
			n.accept = true
			n.proved = true
			return key, nil // no expansion needed; already provable
		}
		comps := resolution.Decompose(canon)
		if len(comps) > 1 {
			s.stats.Decompositions++
			group := make([]string, 0, len(comps))
			ok := true
			for _, comp := range comps {
				ck, err := build(comp)
				if err != nil {
					return "", err
				}
				if ck == deadKey {
					ok = false
					break
				}
				group = append(group, ck)
			}
			if ok {
				n.andGroup = group
			}
		}
		var serr error
		s.successors(canon, func(child resolution.State, op string) bool {
			ck, err := build(child)
			if err != nil {
				serr = err
				return false
			}
			if ck != deadKey {
				n.orSucc = append(n.orSucc, ck)
				n.orOps = append(n.orOps, op)
			}
			return true
		})
		if serr != nil {
			return "", serr
		}
		return key, nil
	}
	rootKey, err := build(init)
	if err != nil {
		return false, nil, "", err
	}
	if s.abortErr != nil {
		return false, nil, "", s.abortErr
	}
	if rootKey == deadKey {
		return false, nodes, rootKey, nil
	}
	// Least-fixpoint propagation; provedAt ranks justify a well-founded
	// proof-tree reconstruction (every node proved at iteration i is
	// justified by nodes proved strictly earlier).
	for iter := 1; ; iter++ {
		changed := false
		for _, n := range nodes {
			if n.proved {
				continue
			}
			ok := false
			for _, k := range n.orSucc {
				if nodes[k].proved && nodes[k].provedAt < iter {
					ok = true
					break
				}
			}
			if !ok && len(n.andGroup) > 0 {
				all := true
				for _, k := range n.andGroup {
					if !nodes[k].proved || nodes[k].provedAt >= iter {
						all = false
						break
					}
				}
				ok = all
			}
			if ok {
				n.proved = true
				n.provedAt = iter
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nodes[rootKey].proved, nodes, rootKey, nil
}

// Answers enumerates the certain answers of q over D under Σ by deciding
// every candidate tuple of database constants (the decision-problem loop;
// §2 notes answers range over dom(D)). Intended for small output arities.
func Answers(prog *logic.Program, db *storage.DB, q *logic.CQ, opt Options) ([][]term.Term, *Stats, error) {
	consts := db.Constants()
	agg := &Stats{}
	var out [][]term.Term
	k := len(q.Output)
	if k > 0 && len(consts) == 0 {
		return nil, agg, nil // no candidate tuples over an empty domain
	}
	idx := make([]int, k)
	for {
		c := make([]term.Term, k)
		for i, j := range idx {
			c[i] = consts[j]
		}
		ok, st, err := Decide(prog, db, q, c, opt)
		if err != nil {
			return nil, nil, err
		}
		mergeStats(agg, st)
		if ok {
			out = append(out, c)
		}
		// Advance the odometer.
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(consts) {
				break
			}
			idx[i] = 0
		}
		if i < 0 || k == 0 {
			break
		}
	}
	return out, agg, nil
}

func mergeStats(dst, src *Stats) {
	if src == nil {
		return
	}
	if src.Bound > dst.Bound {
		dst.Bound = src.Bound
	}
	dst.Visited += src.Visited
	dst.Resolutions += src.Resolutions
	dst.Discharges += src.Discharges
	dst.Specializations += src.Specializations
	dst.Decompositions += src.Decompositions
	if src.MaxStateAtoms > dst.MaxStateAtoms {
		dst.MaxStateAtoms = src.MaxStateAtoms
	}
	if src.MaxStateBytes > dst.MaxStateBytes {
		dst.MaxStateBytes = src.MaxStateBytes
	}
	if src.PeakFrontier > dst.PeakFrontier {
		dst.PeakFrontier = src.PeakFrontier
	}
}
