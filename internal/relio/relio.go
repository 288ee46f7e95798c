// Package relio loads and dumps relations as CSV files — the bulk data
// path of the reproduction. Each file <predicate>.csv holds one relation:
// one row per fact, one column per argument position. This mirrors how the
// ChaseBench/iBench scenario distributions ship their source instances,
// and lets the CLI run the engines over externally produced data instead
// of facts embedded in the program text.
//
// Values are constants. On export, labeled nulls (chase-invented) are
// rendered as "_:n<id>" in the RDF blank-node style; importing such a
// value re-creates a constant with that literal name, not a null — the
// paper's semantics never requires parsing nulls back in, and keeping
// imports null-free preserves the invariant that a database is a set of
// facts over constants (§2).
package relio

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/term"
)

// LoadFile reads one CSV file into the database as facts of the named
// predicate, interning names in the program's context. All rows must have
// the same number of columns, which must match any previously known arity
// for the predicate. It returns the number of new facts.
func LoadFile(prog *logic.Program, db *storage.DB, path, pred string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return Load(prog, db, f, pred)
}

// Load is LoadFile over an arbitrary reader: the streaming path of
// LoadBuffered with every batch merged straight into the database.
func Load(prog *logic.Program, db *storage.DB, r io.Reader, pred string) (int, error) {
	added := 0
	_, err := LoadBuffered(prog, r, pred, 0, func(b *storage.TupleBuffer) error {
		added += db.MergeBuffers([]*storage.TupleBuffer{b}, 1)
		return nil
	})
	return added, err
}

// LoadBuffered streams one CSV relation into columnar staging buffers —
// the bulk-load path of the reasoning service. Rows are appended to a
// storage.TupleBuffer (hashed once at append, no per-fact atom or
// argument slice); every batch rows, land is invoked with the filled
// buffer and the buffer is Reset for reuse, so arbitrarily large
// instances stream through constant memory. land typically merges via
// storage.DB.MergeBuffers or incremental.Engine-style bulk insertion; a
// land error aborts the load. Returns the number of rows staged
// (duplicates included — the merge dedups).
func LoadBuffered(prog *logic.Program, r io.Reader, pred string, batch int, land func(*storage.TupleBuffer) error) (int, error) {
	return LoadBufferedSwap(prog, r, pred, batch, func(b *storage.TupleBuffer) (*storage.TupleBuffer, error) {
		if err := land(b); err != nil {
			return nil, err
		}
		b.Reset()
		return b, nil
	})
}

// LoadBufferedSwap is LoadBuffered with buffer EXCHANGE instead of reuse:
// swap receives each filled buffer and returns the (reset) buffer to fill
// next. Handing ownership back and forth is what lets a pipelined caller
// overlap parsing and interning of the next batch with merging the
// previous one — the parser keeps filling the swapped-in buffer while a
// merger goroutine owns the swapped-out one. A swap error aborts the load.
func LoadBufferedSwap(prog *logic.Program, r io.Reader, pred string, batch int, swap func(*storage.TupleBuffer) (*storage.TupleBuffer, error)) (int, error) {
	if batch <= 0 {
		batch = 1 << 14
	}
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	buf := storage.NewTupleBuffer()
	staged := 0
	arity := -1
	var pid schema.PredID
	var args []term.Term
	for line := 1; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return staged, fmt.Errorf("%s: %w", pred, err)
		}
		if arity == -1 {
			arity = len(rec)
			if arity == 0 {
				return staged, fmt.Errorf("%s: empty row", pred)
			}
			if !prog.Reg.CheckArity(pred, arity) {
				id, _ := prog.Reg.Lookup(pred)
				return staged, fmt.Errorf("%s: csv has %d columns but predicate is already used with arity %d",
					pred, arity, prog.Reg.Arity(id))
			}
			pid = prog.Reg.Intern(pred, arity)
			args = make([]term.Term, arity)
		} else if len(rec) != arity {
			return staged, fmt.Errorf("%s: row %d has %d columns, want %d", pred, line, len(rec), arity)
		}
		for i, v := range rec {
			if args[i], err = prog.Store.InternConst(strings.TrimSpace(v)); err != nil {
				return staged, fmt.Errorf("%s: row %d: %w", pred, line, err)
			}
		}
		buf.Append(pid, args)
		staged++
		if buf.Len() >= batch {
			next, err := swap(buf)
			if err != nil {
				return staged, err
			}
			buf = next
		}
	}
	if buf.Len() > 0 {
		if _, err := swap(buf); err != nil {
			return staged, err
		}
	}
	return staged, nil
}

// LoadDir loads every *.csv file of a directory; the file's base name is
// the predicate name. Returns the total number of new facts.
func LoadDir(prog *logic.Program, db *storage.DB, dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	total := 0
	// Deterministic load order.
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".csv") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		pred := strings.TrimSuffix(name, ".csv")
		n, err := LoadFile(prog, db, filepath.Join(dir, name), pred)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// Dump writes the facts of one predicate as CSV rows in insertion order.
func Dump(prog *logic.Program, db *storage.DB, pred string, w io.Writer) error {
	id, ok := prog.Reg.Lookup(pred)
	if !ok {
		return fmt.Errorf("relio: unknown predicate %q", pred)
	}
	cw := csv.NewWriter(w)
	for _, f := range db.Facts(id) {
		rec := make([]string, len(f.Args))
		for i, t := range f.Args {
			if t.IsNull() {
				rec[i] = fmt.Sprintf("_:n%d", t.ID())
			} else {
				rec[i] = prog.Store.Name(t)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DumpDir writes every predicate of the database to <dir>/<pred>.csv,
// creating the directory if needed.
func DumpDir(prog *logic.Program, db *storage.DB, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	preds := make(map[string]bool)
	for _, f := range db.All() {
		preds[prog.Reg.Name(f.Pred)] = true
	}
	names := make([]string, 0, len(preds))
	for p := range preds {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		f, err := os.Create(filepath.Join(dir, p+".csv"))
		if err != nil {
			return err
		}
		if err := Dump(prog, db, p, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
