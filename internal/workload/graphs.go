// Package workload generates the synthetic inputs of the experiments:
// graph families for the reachability/TC workloads (E1, E2, E10), OWL 2 QL
// ontologies in the shape of Example 3.3 (E1, E7), and iWarded-style TGD
// scenario suites reproducing the Section 1.2 recursion-shape statistics
// (E3, E11). Everything is seeded and deterministic.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/atom"
	"repro/internal/logic"
	"repro/internal/storage"
)

// Graph is a directed graph over nodes 0..N-1.
type Graph struct {
	N     int
	Edges [][2]int
}

// Chain returns the path 0 → 1 → ... → n-1.
func Chain(n int) *Graph {
	g := &Graph{N: n}
	for i := 0; i+1 < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, i + 1})
	}
	return g
}

// Cycle returns the directed cycle over n nodes.
func Cycle(n int) *Graph {
	g := Chain(n)
	if n > 1 {
		g.Edges = append(g.Edges, [2]int{n - 1, 0})
	}
	return g
}

// Grid returns a w×h grid with right and down edges (node y*w+x).
func Grid(w, h int) *Graph {
	g := &Graph{N: w * h}
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.Edges = append(g.Edges, [2]int{id(x, y), id(x+1, y)})
			}
			if y+1 < h {
				g.Edges = append(g.Edges, [2]int{id(x, y), id(x, y+1)})
			}
		}
	}
	return g
}

// BinaryTree returns a complete binary tree of the given depth (root 0,
// children of i at 2i+1, 2i+2), edges parent → child.
func BinaryTree(depth int) *Graph {
	n := 1<<uint(depth+1) - 1
	g := &Graph{N: n}
	for i := 0; 2*i+2 < n; i++ {
		g.Edges = append(g.Edges, [2]int{i, 2*i + 1}, [2]int{i, 2*i + 2})
	}
	return g
}

// RandomDigraph returns a digraph with n nodes and m distinct random edges.
func RandomDigraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{N: n}
	seen := make(map[[2]int]bool)
	for len(g.Edges) < m && len(seen) < n*n {
		e := [2]int{rng.Intn(n), rng.Intn(n)}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		g.Edges = append(g.Edges, e)
	}
	return g
}

// Facts materializes the graph as facts pred(prefix<i>, prefix<j>) in the
// program's naming context.
func (g *Graph) Facts(prog *logic.Program, pred, prefix string) []atom.Atom {
	p := prog.Reg.Intern(pred, 2)
	out := make([]atom.Atom, 0, len(g.Edges))
	for _, e := range g.Edges {
		out = append(out, atom.New(p,
			prog.Store.Const(fmt.Sprintf("%s%d", prefix, e[0])),
			prog.Store.Const(fmt.Sprintf("%s%d", prefix, e[1]))))
	}
	return out
}

// DB materializes the graph as a fresh database.
func (g *Graph) DB(prog *logic.Program, pred, prefix string) *storage.DB {
	db := storage.NewDB()
	db.InsertAll(g.Facts(prog, pred, prefix))
	return db
}

// TCBlocksText is the tc.* benchmark workloads' program over their block
// graph, as program text: blocks of 150 nodes n<i> in which node i has an
// edge to each of i+1..i+5 with probability 0.3, drawn from the
// benchmark's structure seed.
func TCBlocksText(blocks int) string {
	const blockSize = 150
	rng := rand.New(rand.NewSource(20190625))
	g := &Graph{N: blocks * blockSize}
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
