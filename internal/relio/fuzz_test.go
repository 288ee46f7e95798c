package relio

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"

	"repro/internal/logic"
	"repro/internal/storage"
	"repro/internal/term"
)

// FuzzLoadCSV: arbitrary bytes, in batches of 1 to 8 rows, through
// LoadBuffered into DB.MergeBuffers, never panic. A load that succeeds
// holds exactly what per-row InsertArgs of the records encoding/csv reads
// with the loader's settings holds, in the same order; a load that fails
// leaves an instance Verify accepts.
func FuzzLoadCSV(f *testing.F) {
	f.Add([]byte("a,b\nc\n"), uint8(1))                   // ragged row
	f.Add([]byte("# header\na,b\n#c,d\nb,c\n"), uint8(2)) // comment
	f.Add([]byte("\"a\nb\",c\nd,\"e\n\"\n"), uint8(3))    // quoted newline
	f.Add([]byte("a,,b\n,c,\n"), uint8(4))                // empty field
	f.Add([]byte("a,b\nc,d\na,b\n"), uint8(1))            // duplicate split across batches
	f.Fuzz(func(t *testing.T, data []byte, batch uint8) {
		prog := logic.NewProgram()
		db := storage.NewDB()
		staged, err := LoadBuffered(prog, bytes.NewReader(data), "r", 1+int(batch%8), func(b *storage.TupleBuffer) error {
			db.MergeBuffers([]*storage.TupleBuffer{b}, 1)
			return nil
		})
		if verr := db.Verify(); verr != nil {
			t.Fatalf("load (err %v) left a broken instance: %v", err, verr)
		}
		if err != nil {
			return
		}
		cr := csv.NewReader(bytes.NewReader(data))
		cr.Comment = '#'
		cr.TrimLeadingSpace = true
		ref := storage.NewDB()
		records := 0
		for {
			rec, rerr := cr.Read()
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				t.Fatalf("load succeeded where encoding/csv fails: %v", rerr)
			}
			args := make([]term.Term, len(rec))
			for i, v := range rec {
				if args[i], rerr = prog.Store.InternConst(strings.TrimSpace(v)); rerr != nil {
					t.Fatal(rerr)
				}
			}
			ref.InsertArgs(prog.Reg.Intern("r", len(rec)), args)
			records++
		}
		if staged != records {
			t.Fatalf("staged %d rows, encoding/csv reads %d records", staged, records)
		}
		got, want := db.All(), ref.All()
		if len(got) != len(want) {
			t.Fatalf("loaded %d facts, per-row insertion holds %d", len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("fact %d = %v, want %v", i, got[i], want[i])
			}
		}
	})
}
