package main

import "testing"

// One read op and one write op, rungs replayed one after another (so
// children do not nest in time) with a side span in between.
func testSpans() []span {
	mk := func(id, op, parent int, layer string, start, end, allocs int64) span {
		return span{ID: id, Name: layer, OpID: op, Parent: parent, Start: start, End: end, Allocs: allocs, Bytes: allocs * 10}
	}
	return []span{
		mk(0, 1, noParent, "http", 0, 1000, 0),
		mk(1, 1, 0, "service", 2000, 2400, 50),
		mk(2, 1, 1, "parser", 3000, 3100, 20),
		mk(3, 1, 1, "plan", 4000, 4250, 25),
		mk(4, 1, sideSpan, "wal", 5000, 9000, 7),
		mk(5, 2, noParent, "http", 10000, 12000, 0),
		mk(6, 2, 5, "service", 13000, 14500, 100),
		mk(7, 2, 6, "incremental", 15000, 16600, 90), // slower than its parent this time
		mk(8, 2, 7, "storage", 17000, 17100, 5),
		mk(9, 2, 6, "storage", 18000, 18050, 6),
	}
}

func TestSelfCostsSumToHTTPRung(t *testing.T) {
	spans := testSpans()
	self := selfCosts(spans)
	want := map[int]map[string]int64{
		1: {"http": 600, "service": 50, "parser": 100, "plan": 250},
		2: {"http": 500, "service": -150, "incremental": 1500, "storage": 150},
	}
	roots := map[int]int64{1: 1000, 2: 2000}
	for op, layers := range want {
		var sum int64
		for layer, ns := range layers {
			if got := self[op][layer].ns; got != ns {
				t.Errorf("op %d %s self = %d ns, want %d", op, layer, got, ns)
			}
			sum += self[op][layer].ns
		}
		if len(self[op]) != len(layers) {
			t.Errorf("op %d has layers %v, want %v", op, self[op], layers)
		}
		if sum != roots[op] {
			t.Errorf("op %d self times sum to %d ns, http rung took %d", op, sum, roots[op])
		}
	}
}

func TestSelfCostsAllocations(t *testing.T) {
	self := selfCosts(testSpans())
	// The http rung runs in the daemon: it has no allocation count, and
	// its child's allocations are not charged against it.
	if c := self[1]["http"]; c.allocs != 0 || c.bytes != 0 {
		t.Errorf("http allocations = %+v, want none", c)
	}
	if c := self[1]["service"]; c.allocs != 50-20-25 || c.bytes != 500-200-250 {
		t.Errorf("service self allocations = %+v", c)
	}
	if c := self[2]["storage"]; c.allocs != 11 {
		t.Errorf("two storage spans of one op sum to %d allocs, want 11", c.allocs)
	}
}

func TestSideSpansStayOffThePath(t *testing.T) {
	for op, layers := range selfCosts(testSpans()) {
		if _, ok := layers["wal"]; ok {
			t.Errorf("op %d is charged for a side span", op)
		}
	}
}
