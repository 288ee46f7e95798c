package term

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{Const, "const"},
		{Var, "var"},
		{Null, "null"},
		{Kind(9), "kind(9)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("Kind(%d).String() = %q, want %q", c.k, got, c.want)
		}
	}
}

func TestConstInterning(t *testing.T) {
	s := NewStore()
	a := s.Const("alice")
	b := s.Const("bob")
	a2 := s.Const("alice")
	if a != a2 {
		t.Errorf("interning not stable: %v vs %v", a, a2)
	}
	if a == b {
		t.Errorf("distinct names interned to same term: %v", a)
	}
	if !a.IsConst() || a.IsVar() || a.IsNull() {
		t.Errorf("kind predicates wrong for %v", a)
	}
	if s.NumConsts() != 2 {
		t.Errorf("NumConsts = %d, want 2", s.NumConsts())
	}
}

func TestVarInterning(t *testing.T) {
	s := NewStore()
	x := s.Var("X")
	y := s.Var("Y")
	x2 := s.Var("X")
	if x != x2 || x == y {
		t.Errorf("var interning broken: %v %v %v", x, y, x2)
	}
	if !x.IsVar() {
		t.Errorf("IsVar false for %v", x)
	}
	if s.NumVars() != 2 {
		t.Errorf("NumVars = %d, want 2", s.NumVars())
	}
}

func TestConstVarDisjoint(t *testing.T) {
	s := NewStore()
	c := s.Const("x")
	v := s.Var("x")
	if c == v {
		t.Fatalf("constant and variable with same name must be distinct terms")
	}
	if c.Key() == v.Key() {
		t.Fatalf("Key must separate kinds: %d", c.Key())
	}
}

func TestFreshNull(t *testing.T) {
	s := NewStore()
	n1, err1 := s.FreshNull()
	n2, err2 := s.FreshNull()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if n1 == n2 {
		t.Fatalf("FreshNull returned duplicate %v", n1)
	}
	if !n1.IsNull() {
		t.Fatalf("FreshNull kind = %v", n1.Kind())
	}
	if s.NullCount() != 2 {
		t.Fatalf("NullCount = %d, want 2", s.NullCount())
	}
}

// TestFreshNullIDSpace: the last label is MaxID; past it FreshNull is
// ErrIDSpace, every time, and the counter does not wrap back to labels it
// already issued.
func TestFreshNullIDSpace(t *testing.T) {
	s := NewStore()
	s.nextNull.Store(MaxID - 1)
	for _, want := range []uint32{MaxID - 1, MaxID} {
		if n, err := s.FreshNull(); err != nil || n != MkNull(want) {
			t.Fatalf("FreshNull = %v, %v; want null %d", n, err, want)
		}
	}
	for i := 0; i < 3; i++ {
		if n, err := s.FreshNull(); !errors.Is(err, ErrIDSpace) {
			t.Fatalf("FreshNull past MaxID = %v (ID %d), %v; want ErrIDSpace", n, n.ID(), err)
		}
	}
	if s.NullCount() != MaxID+1 {
		t.Fatalf("NullCount = %d, want %d", s.NullCount(), MaxID+1)
	}
}

// TestTermIsFourBytes: a term is one uint32 — what storage columns,
// posting keys and join frames pay per term.
func TestTermIsFourBytes(t *testing.T) {
	if n := unsafe.Sizeof(Term(0)); n != 4 {
		t.Fatalf("unsafe.Sizeof(Term) = %d, want 4", n)
	}
}

// mkTerm builds the term of kind k (one of the three sorts) and ID id.
func mkTerm(k Kind, id uint32) Term {
	return [...]func(uint32) Term{MkConst, MkVar, MkNull}[k](id)
}

// Property: packing keeps kind and ID, and a constant is its ID.
func TestPackRoundTrip(t *testing.T) {
	f := func(k uint8, id uint32) bool {
		kind, id := Kind(k%3), id&MaxID
		tm := mkTerm(kind, id)
		return tm.Kind() == kind && tm.ID() == id && tm.IsConst() == (kind == Const) &&
			tm.IsVar() == (kind == Var) && tm.IsNull() == (kind == Null) &&
			(kind != Const || tm.Key() == id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	for _, tm := range []Term{MkConst(MaxID), MkVar(MaxID), MkNull(MaxID), MkNull(0)} {
		if tm.ID() > MaxID || mkTerm(tm.Kind(), tm.ID()) != tm {
			t.Fatalf("%#x does not round-trip", uint32(tm))
		}
	}
}

func TestFreshVarAvoidsClash(t *testing.T) {
	s := NewStore()
	s.Var("v0")
	s.Var("v1")
	f, err := s.FreshVar("v")
	if err != nil {
		t.Fatal(err)
	}
	if name := s.Name(f); name == "v0" || name == "v1" {
		t.Fatalf("FreshVar returned clashing name %q", name)
	}
	f2, err := s.FreshVar("v")
	if err != nil || f == f2 {
		t.Fatalf("consecutive FreshVar calls returned same var")
	}
}

func TestName(t *testing.T) {
	s := NewStore()
	a := s.Const("alice")
	x := s.Var("X")
	n, _ := s.FreshNull()
	if got := s.Name(a); got != "alice" {
		t.Errorf("Name(const) = %q", got)
	}
	if got := s.Name(x); got != "X" {
		t.Errorf("Name(var) = %q", got)
	}
	if got := s.Name(n); got != "_:n0" {
		t.Errorf("Name(null) = %q", got)
	}
	// Foreign IDs must not panic.
	if got := s.Name(MkConst(999)); got == "" {
		t.Errorf("Name(foreign const) empty")
	}
	if got := s.Name(MkVar(999)); got == "" {
		t.Errorf("Name(foreign var) empty")
	}
	if got := s.Name(^Term(0)); got == "" {
		t.Errorf("Name(bad kind) empty")
	}
}

func TestNames(t *testing.T) {
	s := NewStore()
	ts := []Term{s.Const("a"), s.Var("X")}
	got := s.Names(ts)
	if len(got) != 2 || got[0] != "a" || got[1] != "X" {
		t.Fatalf("Names = %v", got)
	}
}

func TestHasConst(t *testing.T) {
	s := NewStore()
	a := s.Const("a")
	got, ok := s.HasConst("a")
	if !ok || got != a {
		t.Fatalf("HasConst(a) = %v,%v", got, ok)
	}
	if _, ok := s.HasConst("zzz"); ok {
		t.Fatalf("HasConst(zzz) should be false")
	}
}

// Property: interning is injective — distinct names yield distinct IDs, and
// Name is a left inverse of Const/Var.
func TestInterningRoundTrip(t *testing.T) {
	s := NewStore()
	f := func(name string) bool {
		c := s.Const(name)
		v := s.Var(name)
		return s.Name(c) == name && s.Name(v) == name && c.Kind() == Const && v.Kind() == Var
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Key is injective over kind+ID.
func TestKeyInjective(t *testing.T) {
	f := func(k1, k2 uint8, id1, id2 uint32) bool {
		a := mkTerm(Kind(k1%3), id1&MaxID)
		b := mkTerm(Kind(k2%3), id2&MaxID)
		if a == b {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
