package relio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/logic"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/storage"
)

func TestLoadBasic(t *testing.T) {
	prog := logic.NewProgram()
	db := storage.NewDB()
	n, err := Load(prog, db, strings.NewReader("a,b\nb,c\na,b\n# comment\nc,d\n"), "edge")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if n != 3 { // a,b duplicated
		t.Fatalf("new facts = %d, want 3", n)
	}
	id, ok := prog.Reg.Lookup("edge")
	if !ok || prog.Reg.Arity(id) != 2 {
		t.Fatalf("edge not interned with arity 2")
	}
	if db.CountPred(id) != 3 {
		t.Fatalf("stored = %d", db.CountPred(id))
	}
}

func TestLoadErrors(t *testing.T) {
	prog := logic.NewProgram()
	db := storage.NewDB()
	// Ragged rows.
	if _, err := Load(prog, db, strings.NewReader("a,b\nc\n"), "r"); err == nil {
		t.Fatalf("ragged csv accepted")
	}
	// Arity conflict with an existing predicate.
	res, err := parser.ParseInto(logic.NewProgram(), `p(a,b,c).`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db2 := storage.NewDB()
	db2.InsertAll(res.Facts)
	if _, err := Load(res.Program, db2, strings.NewReader("x,y\n"), "p"); err == nil {
		t.Fatalf("arity conflict accepted")
	}
}

func TestLoadDirAndDumpDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "edge.csv"), []byte("a,b\nb,c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "node.csv"), []byte("a\nb\nc\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("ignored"), 0o644); err != nil {
		t.Fatal(err)
	}
	prog := logic.NewProgram()
	db := storage.NewDB()
	n, err := LoadDir(prog, db, dir)
	if err != nil {
		t.Fatalf("loaddir: %v", err)
	}
	if n != 5 {
		t.Fatalf("loaded = %d, want 5", n)
	}
	out := t.TempDir()
	if err := DumpDir(prog, db, out); err != nil {
		t.Fatalf("dumpdir: %v", err)
	}
	prog2 := logic.NewProgram()
	db2 := storage.NewDB()
	n2, err := LoadDir(prog2, db2, out)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if n2 != 5 {
		t.Fatalf("round trip = %d facts, want 5", n2)
	}
}

func TestDumpRendersNullsAsBlankNodes(t *testing.T) {
	res, err := parser.Parse(`
hasDept(E,D) :- emp(E).
emp(alice).
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := storage.NewDB()
	db.InsertAll(res.Facts)
	cres, err := chase.Run(res.Program, db, chase.Default())
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	var buf bytes.Buffer
	if err := Dump(res.Program, cres.DB, "hasDept", &buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	line := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(line, "alice,_:n") {
		t.Fatalf("dump = %q, want alice,_:n<id>", line)
	}
}

func TestDumpUnknownPredicate(t *testing.T) {
	prog := logic.NewProgram()
	if err := Dump(prog, storage.NewDB(), "nope", &bytes.Buffer{}); err == nil {
		t.Fatalf("unknown predicate accepted")
	}
}

// TestLoadedDataDrivesReasoning: end-to-end — CSV data + rule file =
// certain answers, the CLI's -data path.
func TestLoadedDataDrivesReasoning(t *testing.T) {
	res, err := parser.Parse(`
t(X,Y) :- edge(X,Y).
t(X,Z) :- edge(X,Y), t(Y,Z).
?(X) :- t(a, X).
`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	db := storage.NewDB()
	if _, err := Load(res.Program, db, strings.NewReader("a,b\nb,c\n"), "edge"); err != nil {
		t.Fatalf("load: %v", err)
	}
	cres, err := chase.Run(res.Program, db, chase.Default())
	if err != nil {
		t.Fatalf("chase: %v", err)
	}
	ans := plan.EvalCQ(cres.DB, res.Queries[0])
	if len(ans) != 2 {
		t.Fatalf("answers = %d, want 2 (b and c)", len(ans))
	}
}

func TestLoadBufferedEquivalence(t *testing.T) {
	// LoadBuffered over tiny batches lands exactly the facts Load inserts
	// row by row, in the same order, regardless of duplicates spanning
	// batch boundaries.
	src := "a,b\nb,c\na,b\nc,d\nb,c\nd,e\n"
	ref := logic.NewProgram()
	refDB := storage.NewDB()
	if _, err := Load(ref, refDB, strings.NewReader(src), "edge"); err != nil {
		t.Fatalf("reference load: %v", err)
	}
	for _, batch := range []int{1, 2, 3, 100} {
		prog := logic.NewProgram()
		db := storage.NewDB()
		lands, added := 0, 0
		staged, err := LoadBuffered(prog, strings.NewReader(src), "edge", batch, func(b *storage.TupleBuffer) error {
			lands++
			added += db.MergeBuffers([]*storage.TupleBuffer{b}, 1)
			return nil
		})
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if staged != 6 {
			t.Fatalf("batch %d: staged %d rows, want 6", batch, staged)
		}
		if batch < 6 && lands < 2 {
			t.Fatalf("batch %d: land called %d times, want multiple flushes", batch, lands)
		}
		if added != refDB.Len() || db.Len() != refDB.Len() {
			t.Fatalf("batch %d: merged %d facts (db %d), want %d", batch, added, db.Len(), refDB.Len())
		}
		want := refDB.All()
		got := db.All()
		for i := range want {
			if prog.Store.Name(got[i].Args[0]) != ref.Store.Name(want[i].Args[0]) ||
				prog.Store.Name(got[i].Args[1]) != ref.Store.Name(want[i].Args[1]) {
				t.Fatalf("batch %d: row %d differs", batch, i)
			}
		}
	}
}

func TestLoadBufferedErrors(t *testing.T) {
	prog := logic.NewProgram()
	// Ragged rows abort.
	if _, err := LoadBuffered(prog, strings.NewReader("a,b\nc\n"), "r", 10, func(*storage.TupleBuffer) error { return nil }); err == nil {
		t.Fatalf("ragged csv accepted")
	}
	// A land error aborts the stream.
	wantErr := strings.NewReader("a,b\nc,d\n")
	if _, err := LoadBuffered(prog, wantErr, "s", 1, func(*storage.TupleBuffer) error {
		return os.ErrClosed
	}); err == nil {
		t.Fatalf("land error swallowed")
	}
}
