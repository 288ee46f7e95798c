package plan

import (
	"slices"
	"testing"
)

// TestUnionRuleCompile: a rule compiles to a union rule — the head column
// each position reads — exactly when its one positive body atom holds
// distinct variables, it has no negated atom, and its one head atom over
// another predicate holds exactly those variables.
func TestUnionRuleCompile(t *testing.T) {
	for _, tc := range []struct {
		rule string
		want []int
	}{
		{"p1(X,Y) :- p0(X,Y).", []int{0, 1}},
		{"back(X,Y) :- t(Y,X).", []int{1, 0}},
		{"w(Z,X,Y) :- v(X,Y,Z).", []int{2, 0, 1}},
		{"h(X) :- g(X).", []int{0}},
		{"q(Y,X) :- q(X,Y).", nil},       // same predicate
		{"p(X) :- q(X,Y).", nil},         // projection
		{"p(X,X) :- q(X,Y).", nil},       // repeated head variable
		{"p(X,Z) :- q(X,Y).", nil},       // existential
		{"p(X,Y) :- q(X,X,Y).", nil},     // repeated body variable
		{"p(X,Y) :- q(X,Y), s(Y).", nil}, // join
		{"p(X,Y) :- q(X,Y), not s(Y).", nil},
	} {
		prog, _ := compile(t, tc.rule, Options{DeltaFirst: true})
		if got := prog.Rules[0].Union; !slices.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("%s: Union = %v, want %v", tc.rule, got, tc.want)
		}
	}
}
