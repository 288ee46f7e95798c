package gen

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
)

// tcRules is the transitive-closure program every tc.* workload serves:
// the linear (piece-wise linear) form.
const tcRules = "t(X,Y) :- e(X,Y).\nt(X,Z) :- e(X,Y), t(Y,Z).\n"

// structureSeed fixes the graph's shape for every run seed, so closure
// size — and with it set-up time, scan cost and memory — is the same
// amount of work on every seed. The run seed relabels nodes and
// reorders rows.
const structureSeed = 20190625

// graph is a sparse forward random digraph cut into independent blocks:
// inside a block node i has an edge to each of i+1..i+5 with probability
// 0.3 (~1.4 edges per node). Blocks bound every node's reach, so closure
// size per node and DRed fan-out per edge stay constant as blocks are
// added; at 150 nodes per block a node reaches ~30 others.
type graph struct {
	nodes int
	edges [][2]int
	// out[i] are i's successors; reach[i] the nodes i reaches.
	out   [][]int
	reach [][]int
	label []string
}

func newGraph(blocks, blockSize int, seed int64) *graph {
	rng := rand.New(rand.NewSource(structureSeed))
	g := &graph{nodes: blocks * blockSize}
	g.out = make([][]int, g.nodes)
	for b := 0; b < blocks; b++ {
		base := b * blockSize
		for i := 0; i < blockSize; i++ {
			for d := 1; d <= 5 && i+d < blockSize; d++ {
				if rng.Float64() < 0.3 {
					g.edges = append(g.edges, [2]int{base + i, base + i + d})
					g.out[base+i] = append(g.out[base+i], base+i+d)
				}
			}
		}
	}
	// Edges only go forward, so one backward sweep closes the graph.
	g.reach = make([][]int, g.nodes)
	seen := make([]int, g.nodes)
	for i := range seen {
		seen[i] = -1
	}
	for i := g.nodes - 1; i >= 0; i-- {
		for _, j := range g.out[i] {
			if seen[j] != i {
				seen[j] = i
				g.reach[i] = append(g.reach[i], j)
			}
			for _, k := range g.reach[j] {
				if seen[k] != i {
					seen[k] = i
					g.reach[i] = append(g.reach[i], k)
				}
			}
		}
	}
	perm := subSeed(seed, "labels").Perm(g.nodes)
	g.label = make([]string, g.nodes)
	for i, p := range perm {
		g.label[i] = fmt.Sprintf("n%d", p)
	}
	return g
}

// relation renders the edge list as the CSV /load/csv takes, rows in a
// seed-determined order.
func (g *graph) relation(seed int64) Relation {
	order := subSeed(seed, "rows").Perm(len(g.edges))
	var b bytes.Buffer
	for _, i := range order {
		e := g.edges[i]
		fmt.Fprintf(&b, "%s,%s\n", g.label[e[0]], g.label[e[1]])
	}
	return Relation{Pred: "e", CSV: b.Bytes(), Rows: len(g.edges)}
}

// rows lists the edges as constant-name pairs, minus the skipped ones.
func (g *graph) rows(skip map[int]bool) [][2]string {
	out := make([][2]string, 0, len(g.edges))
	for i, e := range g.edges {
		if !skip[i] {
			out = append(out, [2]string{g.label[e[0]], g.label[e[1]]})
		}
	}
	return out
}

func (g *graph) oracle(skip map[int]bool) (*Oracle, error) {
	return NewOracle(tcRules, map[string][][2]string{"e": g.rows(skip)})
}

// tcBase assembles what the three tc.* workloads share: the graph, its
// oracle, the rules and relation to load, the probe and the dump.
func tcBase(name string, blocks int, seed int64, sz Size) (*Workload, *graph, *Oracle, error) {
	g := newGraph(blocks, sz.BlockSize, seed)
	o, err := g.oracle(nil)
	if err != nil {
		return nil, nil, nil, err
	}
	w := &Workload{Name: name, Rules: tcRules, Relations: []Relation{g.relation(seed)}, Facts: o.Facts()}
	// The probe asks for the reach of the node with the widest one: a
	// wrong or half-loaded closure cannot answer it.
	widest := 0
	for i := range g.reach {
		if len(g.reach[i]) > len(g.reach[widest]) {
			widest = i
		}
	}
	w.Probe = Op{Kind: "probe", Pred: "t", Args: []string{g.label[widest], "_"}}
	queryBody(&w.Probe)
	if err := o.want(&w.Probe); err != nil {
		return nil, nil, nil, err
	}
	return w, g, o, nil
}

func isRead(op *Op) bool { return !op.Write }

// view2hop is tc.point-read's fixed-shape view: its rules never change,
// so the daemon builds the overlay once per epoch and every later query
// — whatever constant it asks about — hits the overlay cache.
const view2hop = "hop2(X,Z) :- e(X,Y), e(Y,Z). "

// pointRead: read-only point queries, four kinds at fixed shares.
func pointRead(seed int64, sz Size) (*Workload, error) {
	w, g, o, err := tcBase("tc.point-read", sz.ReadBlocks, seed, sz)
	if err != nil {
		return nil, err
	}
	rng := subSeed(seed, "point-read")
	node := func() int { return rng.Intn(g.nodes) }
	mix := []struct {
		kind  string
		share int // per 10
		make  func() Op
	}{
		// Ground lookups alternate hit and miss: both are one dedup-table
		// probe, and a stream of uniform random pairs would almost never
		// hit.
		{"ground", 4, func() Op {
			a := node()
			for len(g.reach[a]) == 0 {
				a = node()
			}
			b := g.reach[a][rng.Intn(len(g.reach[a]))]
			if rng.Intn(2) == 0 {
				b = node()
			}
			return Op{Pred: "t", Args: []string{g.label[a], g.label[b]}}
		}},
		{"scan", 3, func() Op {
			return Op{Pred: "t", Args: []string{g.label[node()], "_"}}
		}},
		{"cq", 2, func() Op {
			return Op{Query: fmt.Sprintf("?(Z) :- e(%s,Y), t(Y,Z).", g.label[node()])}
		}},
		{"view", 1, func() Op {
			return Op{Query: fmt.Sprintf("%s?(Z) :- hop2(%s,Z).", view2hop, g.label[node()])}
		}},
	}
	pool := make([]Op, 0, sz.Pool)
	for _, m := range mix {
		for i := 0; i < sz.Pool*m.share/10; i++ {
			op := m.make()
			op.Kind = m.kind
			queryBody(&op)
			if err := o.want(&op); err != nil {
				return nil, err
			}
			pool = append(pool, op)
		}
	}
	for c := 0; c < 2; c++ {
		name := fmt.Sprintf("reader%d", c)
		w.Clients = append(w.Clients, Client{Name: name, Ops: shuffled(pool, subSeed(seed, name))})
	}
	w.Primary = isRead
	return w, nil
}

// bulkScan: the same read path as pointRead in the opposite regime —
// two queries, each returning tens of thousands of rows.
func bulkScan(seed int64, sz Size) (*Workload, error) {
	w, _, o, err := tcBase("tc.bulk-scan", sz.ReadBlocks, seed, sz)
	if err != nil {
		return nil, err
	}
	pool := []Op{
		{Kind: "scan", Pred: "t", Args: []string{"_", "_"}, Limit: sz.BulkLimit},
		{Kind: "cq", Query: "?(X,Z) :- e(X,Y), t(Y,Z).", Limit: sz.BulkJoinLimit},
	}
	for i := range pool {
		queryBody(&pool[i])
		if err := o.want(&pool[i]); err != nil {
			return nil, err
		}
		if !pool[i].Want.Truncated {
			return nil, fmt.Errorf("gen: %s: %s returns %d rows, under its limit %d: grow the graph",
				w.Name, pool[i].Kind, pool[i].Want.Rows, pool[i].Limit)
		}
	}
	// The two clients start on different queries and alternate, so the
	// daemon always serves one of each.
	w.Clients = []Client{
		{Name: "reader0", Ops: []Op{pool[0], pool[1]}},
		{Name: "reader1", Ops: []Op{pool[1], pool[0]}},
	}
	w.Primary = isRead
	return w, nil
}

// viewBack is tc.churn-durable's view: it inverts the whole closure, so
// a cold build touches every t fact. Every epoch the writer publishes
// drops the overlay cache, so each read pays that build.
const viewBack = "back(Y,X) :- t(X,Y). "

// churnDurable: a paced writer deleting and re-inserting edge batches
// beside a reader of cold views, on a durable daemon.
func churnDurable(seed int64, sz Size) (*Workload, error) {
	w, g, o, err := tcBase("tc.churn-durable", sz.ChurnBlocks, seed, sz)
	if err != nil {
		return nil, err
	}
	w.Durable = true
	w.DaemonFlags = []string{"-fsync", "interval", "-fsync-interval", "100ms",
		"-checkpoint-every", fmt.Sprint(sz.CheckpointEvery)}

	// Batches partition a seed-shuffled edge list; batch i is deleted,
	// stays out for Lag batches, then comes back. The instance is
	// stationary: at most Lag+1 batches are ever missing.
	order := subSeed(seed, "churn").Perm(len(g.edges))
	batches := len(order) / sz.BatchEdges
	if batches < 2*sz.Lag+2 {
		return nil, fmt.Errorf("gen: %s: %d batches cannot hold a lag of %d", w.Name, batches, sz.Lag)
	}
	facts := func(batch int) string {
		var b strings.Builder
		for _, i := range order[batch*sz.BatchEdges : (batch+1)*sz.BatchEdges] {
			e := g.edges[i]
			fmt.Fprintf(&b, "e(%s,%s). ", g.label[e[0]], g.label[e[1]])
		}
		return b.String()
	}
	write := func(kind string, batch int) Op {
		op := Op{Kind: kind, Write: true, Path: "/" + kind, Text: facts(batch % batches)}
		textBody(&op, "facts")
		return op
	}
	var (
		stream []Op
		// missing[k] is the set of batches deleted and not yet re-inserted
		// once the first k ops are applied.
		missing = [][]int{nil}
		out     []int
	)
	total := int(sz.WriteRate) * sz.WriteSeconds
	for i := 0; len(stream) < total; i++ {
		stream = append(stream, write("delete", i))
		out = append(out, i%batches)
		missing = append(missing, append([]int(nil), out...))
		if i >= sz.Lag {
			stream = append(stream, write("insert", i-sz.Lag))
			out = out[1:]
			missing = append(missing, append([]int(nil), out...))
		}
	}
	w.Clients = append(w.Clients, Client{Name: "writer", Ops: stream, Rate: sz.WriteRate})
	// A delete runs DRed's overestimate and rederivation and costs about
	// twice an insert's delta fixpoint: timing the two as one class would
	// put the median between two modes. The deletes are what this
	// workload is for.
	w.Primary = func(op *Op) bool { return op.Kind == "delete" }

	// Reads cannot be pinned to one answer — it depends on which epoch
	// serves them — so Want.Rows is -1 and the driver checks status,
	// shape and per-client epoch monotonicity; the dump after quiescence
	// and after recovery pins the final state exactly.
	rng := subSeed(seed, "churn-reads")
	reads := make([]Op, sz.Pool)
	for i := range reads {
		reads[i] = Op{Kind: "view", Query: fmt.Sprintf("%s?(X) :- back(%s,X).", viewBack, g.label[rng.Intn(g.nodes)]),
			Want: Want{Rows: -1}}
		queryBody(&reads[i])
	}
	w.Clients = append(w.Clients, Client{Name: "reader", Ops: reads})

	dump := Op{Kind: "dump", Pred: "t", Args: []string{"_", "_"}, Limit: 100000}
	queryBody(&dump)
	if err := o.want(&dump); err != nil {
		return nil, err
	}
	if dump.Want.Truncated {
		return nil, fmt.Errorf("gen: %s: closure exceeds the daemon's 100000-row answer cap", w.Name)
	}
	w.Dump = []Op{dump}
	w.Final = func(applied int) ([]Want, error) {
		if applied < 0 || applied >= len(missing) {
			return nil, fmt.Errorf("gen: %s: %d ops applied, stream has %d", w.Name, applied, len(stream))
		}
		skip := map[int]bool{}
		for _, b := range missing[applied] {
			for _, i := range order[b*sz.BatchEdges : (b+1)*sz.BatchEdges] {
				skip[i] = true
			}
		}
		fo, err := g.oracle(skip)
		if err != nil {
			return nil, err
		}
		d := dump
		if err := fo.want(&d); err != nil {
			return nil, err
		}
		return []Want{d.Want}, nil
	}
	return w, nil
}
