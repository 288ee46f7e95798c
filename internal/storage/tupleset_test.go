package storage

import (
	"testing"
	"testing/quick"

	"repro/internal/term"
)

// Property: compareTerms orders terms of all three kinds lexicographically
// by (kind, ID) — the order sorted answers have always had.
func TestCompareTermsIsKindIDOrder(t *testing.T) {
	mk := [...]func(uint32) term.Term{term.MkConst, term.MkVar, term.MkNull}
	sign := func(a, b uint32) int {
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	f := func(k1, k2 uint8, id1, id2 uint32, sameKind bool) bool {
		if sameKind {
			k2 = k1
		}
		a, b := mk[k1%3](id1&term.MaxID), mk[k2%3](id2&term.MaxID)
		want := sign(uint32(k1%3), uint32(k2%3))
		if want == 0 {
			want = sign(id1&term.MaxID, id2&term.MaxID)
		}
		return compareTerms(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}
