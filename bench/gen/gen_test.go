package gen

import (
	"bytes"
	"reflect"
	"testing"
)

// fingerprint flattens everything a run sends and expects into bytes.
func fingerprint(t *testing.T, w *Workload) []byte {
	t.Helper()
	var b bytes.Buffer
	b.WriteString(w.Rules)
	for _, r := range w.Relations {
		b.WriteString(r.Pred)
		b.Write(r.CSV)
	}
	ops := []Op{w.Probe}
	ops = append(ops, w.Dump...)
	for _, c := range w.Clients {
		ops = append(ops, c.Ops...)
	}
	for _, op := range ops {
		b.WriteString(op.Kind + op.Path)
		b.Write(op.Body)
		b.WriteString(op.Text)
		var within uint64 // order-free digest of the membership set
		for h := range op.Want.Within {
			within += h
		}
		b.WriteString(string(rune(op.Want.Rows)))
		for _, v := range []uint64{op.Want.Hash, within} {
			for i := 0; i < 8; i++ {
				b.WriteByte(byte(v >> (8 * i)))
			}
		}
	}
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range Names {
		a, err := New(name, 7, Tiny())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := New(name, 7, Tiny())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		if a.Final != nil {
			wa, err1 := a.Final(9)
			wb, err2 := b.Final(9)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(wa, wb) {
				t.Errorf("%s: final state after 9 writes differs between generations (%v, %v)", name, err1, err2)
			}
		}
	}
}

// shape is what a seed must not change: how much data, how many ops of
// each kind, how many rows the probe returns.
type shape struct {
	Facts, TraceOps int
	Rows            []int
	Kinds           map[string]int
	Flags           []string
}

func shapeOf(w *Workload) shape {
	s := shape{Facts: w.Facts, TraceOps: w.TraceOps, Kinds: map[string]int{}, Flags: w.DaemonFlags}
	for _, r := range w.Relations {
		s.Rows = append(s.Rows, r.Rows)
	}
	for _, c := range w.Clients {
		for _, op := range c.Ops {
			s.Kinds[c.Name+"/"+op.Kind]++
		}
	}
	return s
}

func TestOtherSeedSameShape(t *testing.T) {
	for _, name := range Names {
		a, err := New(name, 1, Tiny())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := New(name, 2, Tiny())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sa, sb := shapeOf(a), shapeOf(b); !reflect.DeepEqual(sa, sb) {
			t.Errorf("%s: seeds 1 and 2 differ in shape:\n%+v\n%+v", name, sa, sb)
		}
		if bytes.Equal(fingerprint(t, a), fingerprint(t, b)) {
			t.Errorf("%s: seeds 1 and 2 generate identical inputs", name)
		}
	}
}

func TestPointReadMixShares(t *testing.T) {
	w, err := New("tc.point-read", 3, Reference())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, op := range w.Clients[0].Ops {
		got[op.Kind]++
	}
	pool := Reference().Pool
	want := map[string]int{"ground": pool * 4 / 10, "scan": pool * 3 / 10, "cq": pool * 2 / 10, "view": pool / 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mix = %v, want %v", got, want)
	}
}

// The churn stream must leave the instance stationary: never more than
// Lag+1 batches missing, and none once every delete has been answered by
// its insert.
func TestChurnStreamIsStationary(t *testing.T) {
	sz := Tiny()
	w, err := New("tc.churn-durable", 5, sz)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for i, op := range w.Clients[0].Ops {
		switch op.Kind {
		case "delete":
			if out[op.Text] {
				t.Fatalf("op %d deletes a batch that is already out", i)
			}
			out[op.Text] = true
		case "insert":
			if !out[op.Text] {
				t.Fatalf("op %d inserts a batch that was not deleted", i)
			}
			delete(out, op.Text)
		}
		if len(out) > sz.Lag+1 {
			t.Fatalf("after op %d, %d batches are out; lag is %d", i, len(out), sz.Lag)
		}
	}
	all, err := w.Final(0)
	if err != nil {
		t.Fatal(err)
	}
	if all[0].Rows != w.Dump[0].Want.Rows || all[0].Hash != w.Dump[0].Want.Hash {
		t.Errorf("final state after 0 writes is not the loaded state")
	}
	some, err := w.Final(1)
	if err != nil {
		t.Fatal(err)
	}
	if some[0].Rows >= all[0].Rows {
		t.Errorf("deleting a batch left the closure at %d rows (was %d)", some[0].Rows, all[0].Rows)
	}
}

func TestAnswerHashIgnoresOrder(t *testing.T) {
	a := [][]string{{"n1", "n2"}, {"n3", "n4"}, {"n5", "n6"}}
	b := [][]string{{"n5", "n6"}, {"n1", "n2"}, {"n3", "n4"}}
	if AnswerHash(a) != AnswerHash(b) {
		t.Error("hash depends on answer order")
	}
	if AnswerHash(a) == AnswerHash(a[:2]) {
		t.Error("hash misses a dropped answer")
	}
	if TupleHash([]string{"ab", "c"}) == TupleHash([]string{"a", "bc"}) {
		t.Error("tuple hash ignores column boundaries")
	}
}
