package incremental

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/atom"
	"repro/internal/chase"
	"repro/internal/datalog"
	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/workload"
)

// TestFixpointScheduleGolden pins the round schedule of every engine that
// runs semi-naive rounds — Eval, incremental insert propagation and the
// chase — to exact counts. A change to the round driver that moves them
// re-baselines this table on purpose, under one rule:
//   - derived, facts, apps, memo, depth, patterns, maxdepth, strata and
//     prov never move;
//   - probes and the chase's restricted count may only fall;
//   - rounds and peak may move only on non-stratified non-linear lines.
//
// It lives here because this package's tests reach all three engines and
// the incremental engine's executors.
func TestFixpointScheduleGolden(t *testing.T) {
	var got []string
	add := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }

	for _, w := range goldenPrograms(t) {
		for _, opt := range []datalog.Options{
			{Stratify: true, BiasRecursiveAtom: true},
			{},
		} {
			label := fmt.Sprintf("%s strat=%v bias=%v", w.name, opt.Stratify, opt.BiasRecursiveAtom)
			_, s, err := datalog.Eval(w.prog, w.db, opt)
			if err != nil {
				t.Fatalf("%s: eval: %v", label, err)
			}
			add("eval %s: rounds=%d derived=%d probes=%d peak=%d strata=%d",
				label, s.Rounds, s.Derived, s.Probes, s.PeakDelta, s.Strata)
		}
	}

	for _, src := range []struct{ name, rules string }{
		{"tc-linear", tcSrc},
		{"tc-nonlinear", "t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), t(Y,Z).\n"},
	} {
		derived, probes := goldenInsertStream(t, src.rules)
		add("insert %s: derived=%d probes=%d", src.name, derived, probes)
	}

	for _, c := range goldenChases(t) {
		res, err := c.run(c.prog, c.db, c.opt)
		if err != nil {
			t.Fatalf("chase %s: %v", c.name, err)
		}
		add("chase %s: facts=%d rounds=%d apps=%d memo=%d restricted=%d depth=%d patterns=%d maxdepth=%d truncated=%v prov=%d",
			c.name, res.DB.Len(), res.Rounds, res.Applications, res.SuppressedByMemo,
			res.SuppressedRestricted, res.SuppressedDepth, res.MemoPatterns, res.MaxNullDepth,
			res.Truncated, len(res.Prov))
	}

	if strings.Join(got, "\n") != strings.Join(scheduleGolden, "\n") {
		for i := 0; i < len(got) || i < len(scheduleGolden); i++ {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(scheduleGolden) {
				w = scheduleGolden[i]
			}
			if g != w {
				t.Errorf("line %d:\n got %s\nwant %s", i, g, w)
			}
		}
	}
}

type goldenWorkload struct {
	name string
	prog *logic.Program
	db   *storage.DB
}

func goldenParse(t *testing.T, src string) (*logic.Program, *storage.DB) {
	t.Helper()
	r, db := load(t, src)
	return r.Program, db
}

// goldenPrograms is the Datalog battery: a linear chain closure (deep,
// shallow rounds), a dense non-linear closure (few, wide rounds), one
// generated iWarded scenario, and a stratified-negation program.
func goldenPrograms(t *testing.T) []goldenWorkload {
	var out []goldenWorkload

	prog, _ := goldenParse(t, tcSrc)
	out = append(out, goldenWorkload{"tc256", prog, workload.Chain(256).DB(prog, "e", "n")})

	var b strings.Builder
	b.WriteString("t(X,Y) :- e(X,Y).\nt(X,Z) :- t(X,Y), t(Y,Z).\n")
	for i := 0; i < 60; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\ne(n%d,n%d).\n", i, (i+1)%60, i, (i+7)%60)
	}
	prog, db := goldenParse(t, b.String())
	out = append(out, goldenWorkload{"dense60", prog, db})

	p := workload.DefaultSuiteParams(1, 0)
	p.DataSize = 600
	sc, err := workload.GenScenario(workload.ShapePWL, goldenIWardedSeed, p)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenWorkload{"iwarded", sc.Program, sc.DB})

	b.Reset()
	b.WriteString(`
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), t(Y,Z).
tri(X,Z) :- e(X,Y), e(Y,Z).
src(X) :- e(X,Y).
snk(Y) :- e(X,Y).
mid(X) :- src(X), snk(X).
edge2(X,Z) :- e(X,Y), e(Y,Z), not e(X,Z).
pureSrc(X) :- src(X), not snk(X).
unreach(X,Y) :- src(X), snk(Y), not t(X,Y).
`)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "e(n%d,n%d).\n", rng.Intn(40), rng.Intn(40))
	}
	prog, db = goldenParse(t, b.String())
	out = append(out, goldenWorkload{"negation", prog, db})
	return out
}

// goldenIWardedSeed is a ShapePWL seed (DataSize 600) whose scenario is
// full Datalog.
const goldenIWardedSeed = 1

// goldenInsertStream materializes the rules over a 40-node random graph and
// feeds 50 single-edge inserts, returning the facts the inserts derived and
// the probes every executor spent (materialization excluded: New's
// evaluation runs on its own executors).
func goldenInsertStream(t *testing.T, rules string) (int, int) {
	r, _ := load(t, rules)
	e, err := New(r.Program, workload.RandomDigraph(40, 30, 5).DB(r.Program, "e", "n"))
	if err != nil {
		t.Fatal(err)
	}
	ep := r.Program.Reg.Intern("e", 2)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		a := r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(40)))
		b := r.Program.Store.Const(fmt.Sprintf("n%d", rng.Intn(40)))
		if err := e.Insert(atom.New(ep, a, b)); err != nil {
			t.Fatal(err)
		}
	}
	probes := 0
	for _, ex := range e.execs {
		probes += ex.Probes
	}
	return e.Stats().DerivedNew, probes
}

type goldenChase struct {
	name string
	prog *logic.Program
	db   *storage.DB
	opt  chase.Options
	run  func(*logic.Program, *storage.DB, chase.Options) (*chase.Result, error)
}

// goldenChases covers the chase under its default controls: the linear
// chain closure, a warded iWarded scenario with existentials, and a
// stratified program whose existential stratum closes before negation.
func goldenChases(t *testing.T) []goldenChase {
	var out []goldenChase
	prog, _ := goldenParse(t, tcSrc)
	out = append(out, goldenChase{"tc256", prog, workload.Chain(256).DB(prog, "e", "n"), chase.Default(), chase.Run})

	p := workload.DefaultSuiteParams(1, 0)
	p.DataSize = 120
	sc, err := workload.GenScenario(workload.ShapePWL, goldenWardedSeed, p)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, goldenChase{"warded", sc.Program, sc.DB, chase.Default(), chase.Run})

	prog, db := goldenParse(t, `
hasDept(E,D) :- emp(E).
assigned(E) :- hasDept(E,D).
mgr(D,M) :- hasDept(E,D), boss(E,M).
floating(E) :- person(E), not assigned(E).
lonely(P) :- person(P), not floating(P), not emp(P).
emp(alice). emp(carol). person(alice). person(bob). person(dave). boss(alice,carol).
`)
	opt := chase.Default()
	opt.Provenance = true
	out = append(out, goldenChase{"stratified", prog, db, opt, chase.Run})
	return out
}

// goldenWardedSeed is a ShapePWL seed (DataSize 120) whose scenario has
// existential rules.
const goldenWardedSeed = 2

// scheduleGolden holds the driver's exact counts. A re-baseline follows
// the rule on TestFixpointScheduleGolden: derived facts and the chase's
// instance counters never move, probes and restricted only fall, and
// rounds and peak move only on non-stratified non-linear lines (dense60
// without strata, two recursive atoms in one body), where the round a
// fact lands in depends on when its newer body fact is consumed.
var scheduleGolden = []string{
	"eval tc256 strat=true bias=true: rounds=255 derived=32640 probes=65280 peak=509 strata=1",
	"eval tc256 strat=false bias=false: rounds=255 derived=32640 probes=97665 peak=509 strata=0",
	"eval dense60 strat=true bias=true: rounds=3 derived=3600 probes=412388 peak=3278 strata=1",
	"eval dense60 strat=false bias=false: rounds=4 derived=3600 probes=406766 peak=3245 strata=0",
	"eval iwarded strat=true bias=true: rounds=38 derived=8972 probes=26871 peak=3955 strata=3",
	"eval iwarded strat=false bias=false: rounds=14 derived=8972 probes=100020 peak=4081 strata=0",
	"eval negation strat=true bias=true: rounds=5 derived=1445 probes=27127 peak=621 strata=2",
	"eval negation strat=false bias=false: rounds=5 derived=1445 probes=28359 peak=621 strata=2",
	"insert tc-linear: derived=1095 probes=3385",
	"insert tc-nonlinear: derived=1095 probes=38968",
	"chase tc256: facts=32895 rounds=255 apps=32640 memo=0 restricted=0 depth=0 patterns=0 maxdepth=0 truncated=false prov=0",
	"chase warded: facts=892 rounds=9 apps=783 memo=0 restricted=1860 depth=0 patterns=49 maxdepth=1 truncated=false prov=0",
	"chase stratified: facts=13 rounds=7 apps=7 memo=0 restricted=0 depth=0 patterns=2 maxdepth=1 truncated=false prov=7",
}
