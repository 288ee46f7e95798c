// Package analysis implements the syntactic analyses of the paper: the
// predicate graph and mutual recursion (§4), affected positions and the
// harmless/harmful/dangerous variable classification (§3), wardedness
// (Definition 3.1), piece-wise linearity (Definition 4.1), intensional
// linearity (§5), predicate levels ℓΣ (§4.2), and the program-level
// classification report used by the E3 experiment. It also provides the
// single-head normal form (§4.2) and the elimination of unnecessary
// non-linear recursion (§1.2).
package analysis

import (
	"sort"

	"repro/internal/schema"
)

// PredGraph is pg(Σ): nodes are the predicates of sch(Σ); there is an edge
// P → R iff some TGD has P in its body and R in its head (§4).
type PredGraph struct {
	nodes []schema.PredID
	adj   map[schema.PredID][]schema.PredID
	// SCC data (Tarjan condensation):
	sccOf    map[schema.PredID]int
	sccCycle []bool // scc contains a cycle (size > 1, or a self-loop)
	sccOrder [][]schema.PredID
}

// newPredGraph builds the graph from an edge set.
func newPredGraph(nodes map[schema.PredID]bool, edges map[schema.PredID]map[schema.PredID]bool) *PredGraph {
	g := &PredGraph{adj: make(map[schema.PredID][]schema.PredID), sccOf: make(map[schema.PredID]int)}
	for n := range nodes {
		g.nodes = append(g.nodes, n)
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	for src, dsts := range edges {
		var out []schema.PredID
		for d := range dsts {
			out = append(out, d)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		g.adj[src] = out
	}
	g.computeSCCs()
	return g
}

// Nodes returns all predicates in deterministic order.
func (g *PredGraph) Nodes() []schema.PredID { return g.nodes }

// HasEdge reports whether P → R is an edge.
func (g *PredGraph) HasEdge(p, r schema.PredID) bool {
	for _, d := range g.adj[p] {
		if d == r {
			return true
		}
	}
	return false
}

// computeSCCs runs Tarjan's algorithm iteratively (warded programs from the
// generators can have thousands of predicates; avoid deep Go stacks).
func (g *PredGraph) computeSCCs() {
	index := make(map[schema.PredID]int)
	low := make(map[schema.PredID]int)
	onStack := make(map[schema.PredID]bool)
	var stack []schema.PredID
	next := 0

	type frame struct {
		node schema.PredID
		ei   int
	}
	for _, start := range g.nodes {
		if _, seen := index[start]; seen {
			continue
		}
		var call []frame
		call = append(call, frame{node: start})
		index[start] = next
		low[start] = next
		next++
		stack = append(stack, start)
		onStack[start] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < len(g.adj[f.node]) {
				w := g.adj[f.node][f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{node: w})
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
				continue
			}
			// Pop.
			v := f.node
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				id := len(g.sccOrder)
				var comp []schema.PredID
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					g.sccOf[w] = id
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				hasCycle := len(comp) > 1
				if !hasCycle {
					hasCycle = g.HasEdge(comp[0], comp[0])
				}
				g.sccCycle = append(g.sccCycle, hasCycle)
				g.sccOrder = append(g.sccOrder, comp)
			}
		}
	}
}

// SCC returns the component id of a predicate.
func (g *PredGraph) SCC(p schema.PredID) int { return g.sccOf[p] }

// MutuallyRecursive reports whether P and R lie on a common cycle of pg(Σ)
// (§4: "R is reachable from P, and vice versa"). A predicate is mutually
// recursive with itself iff it lies on a cycle.
func (g *PredGraph) MutuallyRecursive(p, r schema.PredID) bool {
	sp, okp := g.sccOf[p]
	sr, okr := g.sccOf[r]
	if !okp || !okr || sp != sr {
		return false
	}
	return g.sccCycle[sp]
}

// Levels computes the level function ℓΣ of §4.2:
//
//	ℓΣ(P) = max{ ℓΣ(R) | (R,P) ∈ E, R ∉ rec(P) } + 1.
//
// Equivalently: all predicates of one SCC share a level, and an SCC's level
// is one more than the maximum level over strictly earlier SCCs feeding it.
// Tarjan emits components in reverse topological order, so a single forward
// pass over sccOrder reversed computes the fixpoint.
func (g *PredGraph) Levels() map[schema.PredID]int {
	n := len(g.sccOrder)
	sccLevel := make([]int, n)
	// Build reverse adjacency between SCCs once.
	incoming := make([]map[int]bool, n)
	for i := range incoming {
		incoming[i] = make(map[int]bool)
	}
	for _, src := range g.nodes {
		for _, dst := range g.adj[src] {
			s, d := g.sccOf[src], g.sccOf[dst]
			if s != d {
				incoming[d][s] = true
			}
		}
	}
	for i := n - 1; i >= 0; i-- { // reverse emission order = topological
		lvl := 0
		for s := range incoming[i] {
			if sccLevel[s] > lvl {
				lvl = sccLevel[s]
			}
		}
		sccLevel[i] = lvl + 1
	}
	out := make(map[schema.PredID]int, len(g.nodes))
	for _, p := range g.nodes {
		out[p] = sccLevel[g.sccOf[p]]
	}
	return out
}
