package service

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The crash-recovery property suite: drive a durable service with a
// randomized op stream, kill it at each deterministic crash point of the
// durability protocol (wal.SetCrash), "restart" by recovering a fresh
// service over the same directory, and assert the recovered state equals
// a from-scratch materialization of exactly the ACKNOWLEDGED prefix
// (plus, for the durable-but-unacknowledged point, the crashed op).
//
// The oracle is an in-memory service Load of the same rules over the
// mirrored base facts — a full datalog.Eval materialization sharing no
// code with the recovery path under test.

// durableOpts is the test configuration: no fsync (in-process crashes
// keep the page cache) and a tiny checkpoint interval so the
// checkpoint-time crash points fire from the normal update path.
func durableOpts(dir string, every int) Options {
	return Options{DataDir: dir, Fsync: "never", CheckpointEvery: every}
}

func openRecovered(t *testing.T, dir string, every int) *Service {
	t.Helper()
	svc, err := Open(durableOpts(dir, every))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := svc.Recover(context.Background()); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return svc
}

// baseMirror tracks the base facts the oracle materializes from.
type baseMirror map[string]bool // "e(n1,n2)" -> present

func (m baseMirror) oracle(t *testing.T) (e, tc []string) {
	t.Helper()
	ref := m.service(t)
	defer ref.Close()
	return queryAll(t, ref, "e"), queryAll(t, ref, "t")
}

// service is the oracle itself: an in-memory service over the mirror.
func (m baseMirror) service(t *testing.T) *Service {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(tcProgram)
	for f := range m {
		sb.WriteString(f)
		sb.WriteString(".\n")
	}
	ref := New(Options{})
	if _, err := ref.Load(sb.String()); err != nil {
		t.Fatalf("oracle load: %v", err)
	}
	return ref
}

func queryAll(t *testing.T, svc *Service, pred string) []string {
	t.Helper()
	return queryPattern(t, svc, pred, "_", "_")
}

func queryPattern(t *testing.T, svc *Service, pred string, args ...string) []string {
	t.Helper()
	resp, err := svc.Query(&QueryRequest{Pred: pred, Args: args})
	if err != nil {
		t.Fatalf("query %s%v: %v", pred, args, err)
	}
	out := make([]string, len(resp.Tuples))
	for i, tu := range resp.Tuples {
		out[i] = strings.Join(tu, ",")
	}
	sort.Strings(out)
	return out
}

func assertMatchesOracle(t *testing.T, svc *Service, mirror baseMirror, label string) {
	t.Helper()
	wantE, wantT := mirror.oracle(t)
	gotE, gotT := queryAll(t, svc, "e"), queryAll(t, svc, "t")
	if !equalStr(gotE, wantE) {
		t.Fatalf("%s: base facts diverged: got %d, want %d\ngot:  %v\nwant: %v",
			label, len(gotE), len(wantE), gotE, wantE)
	}
	if !equalStr(gotT, wantT) {
		t.Fatalf("%s: closure diverged: got %d, want %d", label, len(gotT), len(wantT))
	}
}

// assertKeyedReadsMatchOracle compares every read that resolves through a
// posting index — each position of e and t bound to each node — between
// the service and a from-scratch oracle, and holds the service's
// materialization to storage.Verify. A checkpoint carries the positions somebody probed and
// nothing of the others: after recovery the first kind must answer from
// what was decoded, the second from an index built on the spot.
func assertKeyedReadsMatchOracle(t *testing.T, svc *Service, mirror baseMirror, label string) {
	t.Helper()
	ref := mirror.service(t)
	defer ref.Close()
	for _, pred := range []string{"e", "t"} {
		for pos := 0; pos < 2; pos++ {
			for node := 0; node < 8; node++ {
				args := []string{"_", "_"}
				args[pos] = fmt.Sprintf("n%d", node)
				if got, want := queryPattern(t, svc, pred, args...), queryPattern(t, ref, pred, args...); !equalStr(got, want) {
					t.Fatalf("%s: %s%v: got %v, want %v", label, pred, args, got, want)
				}
			}
		}
	}
	if err := svc.eng.DB().Verify(); err != nil {
		t.Fatalf("%s: materialization: %v", label, err)
	}
}

func equalStr(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyRandomOp performs one random acknowledged-or-failed update and,
// on success, applies the same change to the mirror.
func applyRandomOp(t *testing.T, rng *rand.Rand, svc *Service, mirror baseMirror) error {
	t.Helper()
	edge := func() (string, string) {
		return fmt.Sprintf("n%d", rng.Intn(8)), fmt.Sprintf("n%d", rng.Intn(8))
	}
	switch rng.Intn(4) {
	case 0, 1: // insert 1-3 edges as fact text
		n := 1 + rng.Intn(3)
		var facts []string
		for i := 0; i < n; i++ {
			x, y := edge()
			facts = append(facts, fmt.Sprintf("e(%s,%s)", x, y))
		}
		if _, err := svc.Insert(strings.Join(facts, ". ") + "."); err != nil {
			return err
		}
		for _, f := range facts {
			mirror[f] = true
		}
	case 2: // delete one present base fact, if any
		var present []string
		for f := range mirror {
			present = append(present, f)
		}
		if len(present) == 0 {
			return nil
		}
		sort.Strings(present)
		victim := present[rng.Intn(len(present))]
		if _, err := svc.Delete(victim + "."); err != nil {
			return err
		}
		delete(mirror, victim)
	default: // bulk-load a small CSV batch
		n := 1 + rng.Intn(3)
		var rows, facts []string
		for i := 0; i < n; i++ {
			x, y := edge()
			rows = append(rows, x+","+y)
			facts = append(facts, fmt.Sprintf("e(%s,%s)", x, y))
		}
		if _, _, err := svc.LoadCSV("e", strings.NewReader(strings.Join(rows, "\n")+"\n")); err != nil {
			return err
		}
		for _, f := range facts {
			mirror[f] = true
		}
	}
	if err := svc.eng.DB().Verify(); err != nil {
		t.Fatalf("after an acknowledged update: materialization: %v", err)
	}
	return nil
}

// TestDurableRoundTrip is the no-crash baseline: load + random updates,
// clean Close, recover in a fresh service, state matches the oracle and
// every post-checkpoint record replayed.
func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	svc := openRecovered(t, dir, 1<<20) // no automatic checkpoint: pure WAL tail
	if _, err := svc.Load(chainSource(4)); err != nil {
		t.Fatal(err)
	}
	mirror := baseMirror{}
	for i := 0; i+1 < 4; i++ {
		mirror[fmt.Sprintf("e(n%d,n%d)", i, i+1)] = true
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 25; i++ {
		if err := applyRandomOp(t, rng, svc, mirror); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	st := svc.Stats()
	if st.Durability == nil || !st.Durability.Enabled || st.Durability.Checkpoints != 1 {
		t.Fatalf("durability stats: %+v", st.Durability)
	}
	svc.Close()

	svc2 := openRecovered(t, dir, 1<<20)
	defer svc2.Close()
	if h := svc2.Health(); h != HealthOK {
		t.Fatalf("health after recovery = %q", h)
	}
	assertMatchesOracle(t, svc2, mirror, "clean restart")
	// The recovered generation serves every query class, the unfolded and
	// the demand view paths with their per-generation caches included.
	_, tc := mirror.oracle(t)
	want := 0
	for _, f := range tc {
		if strings.HasSuffix(f, ",n3") {
			want++
		}
	}
	back := mustQuery(t, svc2, &QueryRequest{Query: "back(Y,X) :- t(X,Y). ?(X) :- back(n3,X).", Explain: true})
	if !back.Explain.View.Unfold || len(back.Tuples) != want {
		t.Fatalf("view query after recovery: %d answers (unfold %v), oracle %d", len(back.Tuples), back.Explain.View.Unfold, want)
	}
	rec := mustQuery(t, svc2, &QueryRequest{Query: "back(Y,X) :- t(X,Y). back(X,Z) :- back(X,Y), back(Y,Z). ?(X) :- back(n3,X).", Explain: true})
	if !rec.Explain.View.Demand || len(rec.Tuples) != want {
		t.Fatalf("recursive view query after recovery: %d answers (demand %v), oracle %d", len(rec.Tuples), rec.Explain.View.Demand, want)
	}
	d := svc2.Stats().Durability
	if d.ReplayedRecords == 0 {
		t.Fatal("no records replayed despite WAL tail")
	}
	// The recovered service keeps accepting updates durably.
	if err := applyRandomOp(t, rng, svc2, mirror); err != nil {
		t.Fatalf("post-recovery op: %v", err)
	}
	assertMatchesOracle(t, svc2, mirror, "post-recovery update")
}

// TestCrashRecoveryProperty is the randomized crash-point suite: for
// every deterministic crash point and several seeds, run a random op
// stream, arm the point, drive ops until the crash fires, model the
// point's durability outcome, recover, and compare against the oracle
// over the acknowledged prefix.
func TestCrashRecoveryProperty(t *testing.T) {
	points := []struct {
		name  string
		point wal.CrashPoint
		// tornTail models power loss of the unsynced final record by
		// truncating it before recovery.
		tornTail bool
		// crashedOpDurable: the op that observed the crash is expected to
		// survive (durable-but-unacknowledged).
		crashedOpDurable bool
	}{
		{"after-append", wal.CrashAfterAppend, false, true},
		{"before-sync-survives", wal.CrashBeforeSync, false, true},
		{"before-sync-power-loss", wal.CrashBeforeSync, true, false},
		{"mid-checkpoint", wal.CrashMidCheckpoint, false, false},
		{"before-truncate", wal.CrashBeforeTruncate, false, false},
	}
	for _, tc := range points {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*37 + 5))
				dir := t.TempDir()
				// CheckpointEvery 3: checkpoints fire mid-stream from the
				// normal update path, so every crash point sits on a code
				// path production actually runs.
				svc := openRecovered(t, dir, 3)
				if _, err := svc.Load(chainSource(4)); err != nil {
					t.Fatal(err)
				}
				mirror := baseMirror{}
				for i := 0; i+1 < 4; i++ {
					mirror[fmt.Sprintf("e(n%d,n%d)", i, i+1)] = true
				}
				warm := 3 + rng.Intn(8)
				for i := 0; i < warm; i++ {
					if err := applyRandomOp(t, rng, svc, mirror); err != nil {
						t.Fatalf("warm op %d: %v", i, err)
					}
				}

				svc.wal.SetCrash(tc.point)
				// Drive inserts until the crash fires; the one that observes
				// it is the CRASHED op — never acknowledged.
				crashed := ""
				for i := 0; i < 20 && crashed == ""; i++ {
					x, y := rng.Intn(8), rng.Intn(8)
					fact := fmt.Sprintf("e(n%d,n%d)", x, y)
					if _, err := svc.Insert(fact + "."); err != nil {
						crashed = fact
					} else {
						mirror[fact] = true
					}
				}
				if crashed == "" {
					t.Fatal("crash point never fired")
				}
				if h := svc.Health(); h != HealthBroken {
					t.Fatalf("health after crash = %q, want broken", h)
				}
				// (A fact the stream never asserts: an insert that changes
				// nothing has nothing to log and is answered as served.)
				if _, err := svc.Insert("e(n8,n9)."); err == nil {
					t.Fatal("dead WAL acknowledged an update")
				}
				svc.Close()

				if tc.tornTail {
					// Power loss: the unsynced final record does not survive.
					logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
					sort.Strings(logs)
					last := logs[len(logs)-1]
					fi, err := os.Stat(last)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.Truncate(last, fi.Size()-3); err != nil {
						t.Fatal(err)
					}
				}
				if tc.crashedOpDurable {
					mirror[crashed] = true
				}

				svc2 := openRecovered(t, dir, 3)
				defer svc2.Close()
				if h := svc2.Health(); h != HealthOK {
					t.Fatalf("health after recovery = %q", h)
				}
				assertMatchesOracle(t, svc2, mirror, "recovered state")
				assertKeyedReadsMatchOracle(t, svc2, mirror, "recovered state")
				// And the recovered node is a fully working writer.
				for i := 0; i < 3; i++ {
					if err := applyRandomOp(t, rng, svc2, mirror); err != nil {
						t.Fatalf("post-recovery op: %v", err)
					}
				}
				assertMatchesOracle(t, svc2, mirror, "post-recovery updates")
				assertKeyedReadsMatchOracle(t, svc2, mirror, "post-recovery updates")
			})
		}
	}
}

// TestRecoveringFailsFast asserts the ErrRecovering fast-fail contract
// without racing actual replay: the flag alone must gate every entry
// point.
func TestRecoveringFailsFast(t *testing.T) {
	svc := New(Options{})
	mustLoad(t, svc, chainSource(3))
	defer svc.Close()
	svc.recovering.Store(true)
	if _, err := svc.Query(&QueryRequest{Pred: "t", Args: []string{"_", "_"}}); err != ErrRecovering {
		t.Fatalf("query: %v", err)
	}
	if _, err := svc.Insert("e(a,b)."); err != ErrRecovering {
		t.Fatalf("insert: %v", err)
	}
	if _, err := svc.Delete("e(a,b)."); err != ErrRecovering {
		t.Fatalf("delete: %v", err)
	}
	if _, _, err := svc.LoadCSV("e", strings.NewReader("a,b\n")); err != ErrRecovering {
		t.Fatalf("loadcsv: %v", err)
	}
	if _, err := svc.Load(chainSource(3)); err != ErrRecovering {
		t.Fatalf("load: %v", err)
	}
	if h := svc.Health(); h != HealthRecovering {
		t.Fatalf("health = %q", h)
	}
	svc.recovering.Store(false)
	if h := svc.Health(); h != HealthOK {
		t.Fatalf("health = %q", h)
	}
}

// TestNoOpUpdateChangesNothing: an insert of facts already asserted and a
// delete of facts not present leave the served epoch in place — no WAL
// record, no count toward the next checkpoint, no publish, so the epoch's
// cached overlays survive — and acknowledge under the next epoch number
// (an acknowledged write never repeats a number a client has seen), while
// an update that changes something still logs and publishes. Logs written
// before this rule hold records for such updates; replaying them is a
// no-op too.
func TestNoOpUpdateChangesNothing(t *testing.T) {
	dir := t.TempDir()
	svc := openRecovered(t, dir, 1<<20)
	if _, err := svc.Load(chainSource(4)); err != nil {
		t.Fatal(err)
	}
	mirror := baseMirror{}
	for i := 0; i+1 < 4; i++ {
		mirror[fmt.Sprintf("e(n%d,n%d)", i, i+1)] = true
	}
	const view = "back(Y,X) :- t(X,Y). ?(X,Y) :- back(X,Y)."
	mustQuery(t, svc, &QueryRequest{Query: view})
	state := func() (e *epoch, overlays int, w wal.Stats, since int) {
		e = svc.cur.Load()
		e.ovMu.Lock()
		defer e.ovMu.Unlock()
		return e, len(e.overlays), svc.wal.Stats(), svc.sinceCkpt
	}
	e0, ov0, w0, since0 := state()
	last := e0.seq.Load()
	if ov0 == 0 {
		t.Fatal("the view query cached no overlay")
	}
	for _, op := range []struct {
		name string
		do   func() (uint64, error)
	}{
		{"insert of asserted facts", func() (uint64, error) { return svc.Insert("e(n0,n1). e(n2,n3).") }},
		{"delete of absent facts", func() (uint64, error) { return svc.Delete("e(n3,n0). e(n7,n7).") }},
	} {
		seq, err := op.do()
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		e, ov, w, since := state()
		if e != e0 || ov != ov0 || w.Records != w0.Records || w.Bytes != w0.Bytes || since != since0 {
			t.Fatalf("%s: same publish %v, %d overlays (was %d), WAL %d records / %d bytes (was %d / %d), %d since checkpoint (was %d)",
				op.name, e == e0, ov, ov0, w.Records, w.Bytes, w0.Records, w0.Bytes, since, since0)
		}
		if seq != last+1 || e.seq.Load() != seq {
			t.Fatalf("%s: acknowledged under epoch %d, served as %d, want both %d", op.name, seq, e.seq.Load(), last+1)
		}
		last = seq
	}
	if resp := mustQuery(t, svc, &QueryRequest{Query: view, Explain: true}); !resp.Explain.View.CacheHit || resp.Epoch != last {
		t.Fatalf("after the no-op updates: overlay cache hit %v at epoch %d, want a hit at %d", resp.Explain.View.CacheHit, resp.Epoch, last)
	}
	// One fact new, one asserted: the update changes something.
	seq, err := svc.Insert("e(n3,n4). e(n0,n1).")
	if err != nil {
		t.Fatal(err)
	}
	mirror["e(n3,n4)"] = true
	if e, _, w, since := state(); seq != last+1 || e == e0 || w.Records != w0.Records+1 || since != since0+1 {
		t.Fatalf("changing insert: epoch %d (was %d), new publish %v, WAL %d records (was %d), %d since checkpoint (was %d)",
			seq, last, e != e0, w.Records, w0.Records, since, since0)
	}
	// What an older daemon logged for updates that changed nothing.
	for kind, data := range map[byte]string{wal.KindInsert: "e(n0,n1).", wal.KindDelete: "e(n7,n7)."} {
		if _, err := svc.wal.Append(kind, []byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Delete("e(n1,n2)."); err != nil {
		t.Fatal(err)
	}
	delete(mirror, "e(n1,n2)")
	svc.Close()

	svc2 := openRecovered(t, dir, 1<<20)
	defer svc2.Close()
	if got := svc2.Stats().Durability.ReplayedRecords; got != 4 {
		t.Fatalf("replayed %d records, want 4 (two of them no-ops)", got)
	}
	assertMatchesOracle(t, svc2, mirror, "restart over a log with no-op records")
	assertKeyedReadsMatchOracle(t, svc2, mirror, "restart over a log with no-op records")
}

// legacyCheckpointDir is a data directory written by the five-section
// checkpoint layout, which stored the base instance beside the
// materialization: tcProgram over e(a,b), e(b,c), e(c,d) loaded (the
// checkpoint), then e(d,e) inserted and e(b,c) deleted (the WAL tail).
const legacyCheckpointDir = "testdata/ckpt_five_sections"

// copyDataDir copies a committed data directory to where recovery may
// rotate and truncate it.
func copyDataDir(t *testing.T, from string) string {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestRecoverLegacyCheckpoint: a data directory whose checkpoint holds
// the base instance as a section of its own recovers to the oracle's
// state, and the recovered service keeps writing durably. A base section
// whose bytes are damaged under a valid checksum is a typed error.
func TestRecoverLegacyCheckpoint(t *testing.T) {
	t.Run("recover", func(t *testing.T) {
		dir := copyDataDir(t, legacyCheckpointDir)
		svc := openRecovered(t, dir, 1<<20)
		mirror := baseMirror{"e(a,b)": true, "e(c,d)": true, "e(d,e)": true}
		assertMatchesOracle(t, svc, mirror, "legacy checkpoint")
		if err := svc.eng.DB().Verify(); err != nil {
			t.Fatalf("recovered materialization: %v", err)
		}
		if n := svc.Stats().Durability.ReplayedRecords; n != 2 {
			t.Fatalf("replayed %d records, want 2", n)
		}
		if _, err := svc.Insert("e(e,f)."); err != nil {
			t.Fatal(err)
		}
		mirror["e(e,f)"] = true
		assertMatchesOracle(t, svc, mirror, "write after legacy recovery")
		svc.Close()
		svc2 := openRecovered(t, dir, 1<<20)
		defer svc2.Close()
		assertMatchesOracle(t, svc2, mirror, "restart after the write")
	})
	t.Run("damaged base section", func(t *testing.T) {
		dir := copyDataDir(t, legacyCheckpointDir)
		path := filepath.Join(dir, "ckpt-0000000000000000.ckpt")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// "VDCKPT01" | u64 seq | u32 nSections, then per section u32 len |
		// u32 CRC32-C | bytes; the base instance is the fourth section.
		off := 20
		for i := 0; i < 3; i++ {
			off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		}
		sec := raw[off+8 : off+8+int(binary.LittleEndian.Uint32(raw[off:]))]
		// Past the segment's u32 nRels | u32 next, skip absent relation
		// slots; the first present one's body opens with u32 pred | u32
		// arity | u32 nRows, then its first term's kind byte.
		p := 8
		for sec[p] == 0 {
			p++
		}
		sec[p+13] = 0xff
		binary.LittleEndian.PutUint32(raw[off+4:], crc32.Checksum(sec, crc32.MakeTable(crc32.Castagnoli)))
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		svc, err := Open(durableOpts(dir, 1<<20))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if err := svc.Recover(context.Background()); !errors.Is(err, storage.ErrSegmentTerm) {
			t.Fatalf("Recover over a damaged base section: %v, want %v", err, storage.ErrSegmentTerm)
		}
		if h := svc.Health(); h != HealthBroken {
			t.Fatalf("health = %q, want %q", h, HealthBroken)
		}
	})
}

// TestCSVBatchReplaysUnderBudget: a bulk-load batch lands under the same
// write budget its WAL record replays under. A 30-edge chain loaded in
// 5-row batches under MaxDerived 50 lands two batches (15, then 40 new
// closure facts) and fails live on the third (65): the load reports the
// typed error, and the failed batch is rolled back, so one acknowledged
// insert after it serves the two acknowledged batches plus its own edge,
// live and after a restart, with a healthy service.
func TestCSVBatchReplaysUnderBudget(t *testing.T) {
	dir := t.TempDir()
	opts := Options{DataDir: dir, Fsync: "never", CheckpointEvery: 1 << 20, MaxDerived: 50, CSVBatch: 5}
	open := func() *Service {
		t.Helper()
		svc, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Recover(context.Background()); err != nil {
			t.Fatalf("Recover: %v", err)
		}
		return svc
	}
	svc := open()
	if _, err := svc.Load(tcProgram); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&csv, "n%d,n%d\n", i, i+1)
	}
	_, seq, err := svc.LoadCSV("e", strings.NewReader(csv.String()))
	if !errors.Is(err, plan.ErrOverBudget) {
		t.Fatalf("over-budget bulk load: %v", err)
	}
	mirror := baseMirror{}
	for i := 0; i < 10; i++ {
		mirror[fmt.Sprintf("e(n%d,n%d)", i, i+1)] = true
	}
	if st := svc.Stats(); st.Epoch != seq || st.Durability.Records != 2 {
		t.Fatalf("after the failed load: epoch %d (load reported %d), %d WAL records, want 2", st.Epoch, seq, st.Durability.Records)
	}
	assertMatchesOracle(t, svc, mirror, "live, after the failed batch")
	if _, err := svc.Insert("e(z0,z1)."); err != nil {
		t.Fatal(err)
	}
	mirror["e(z0,z1)"] = true
	if got := len(queryAll(t, svc, "e")); got != 11 {
		t.Fatalf("after one insert past the failed batch: %d e edges served, want 11", got)
	}
	assertMatchesOracle(t, svc, mirror, "live, after the insert")
	svc.Close()

	svc2 := open()
	defer svc2.Close()
	if h := svc2.Health(); h != HealthOK {
		t.Fatalf("health after recovery = %q", h)
	}
	if got := svc2.Stats().Durability.ReplayedRecords; got != 3 {
		t.Fatalf("replayed %d records, want 3", got)
	}
	assertMatchesOracle(t, svc2, mirror, "recovered")
}

// TestAbortedWriteChangesNothing sweeps the probe ceiling of one Insert
// (an edge bridging two chains, whose propagation derives n² facts) and
// one Delete (a chain's middle edge) across plan.BudgetStride boundaries
// on a durable service. At every ceiling the write either applies in
// full or changes nothing: the served instance, the engine counters
// (served and the writer's own), the WAL record count and what a crash
// right after it recovers all stay as they were before the write, and
// the service stays healthy. The rolled-back service then takes the same
// write without a ceiling, and a restart replays exactly that record.
func TestAbortedWriteChangesNothing(t *testing.T) {
	const n = 60
	before := baseMirror{}
	var src strings.Builder
	src.WriteString(tcProgram)
	for i := 0; i+1 < n; i++ {
		for _, c := range "ab" {
			f := fmt.Sprintf("e(%c%d,%c%d)", c, i, c, i+1)
			before[f] = true
			src.WriteString(f + ".\n")
		}
	}
	for _, tc := range []struct {
		op, fact string
		write    func(*Service, string) (uint64, error)
	}{
		{"insert", fmt.Sprintf("e(a%d,b0)", n-1), (*Service).Insert},
		{"delete", fmt.Sprintf("e(a%d,a%d)", n/2, n/2+1), (*Service).Delete},
	} {
		t.Run(tc.op, func(t *testing.T) {
			after := maps.Clone(before)
			if tc.op == "insert" {
				after[tc.fact] = true
			} else {
				delete(after, tc.fact)
			}
			// load starts a durable service over the chains, and write
			// runs the write under test alone under the probe ceiling: the
			// load and the queries checking it run without one.
			load := func() (*Service, string) {
				dir := t.TempDir()
				svc := openRecovered(t, dir, 1<<20)
				mustLoad(t, svc, src.String())
				return svc, dir
			}
			write := func(svc *Service, ceiling int) error {
				svc.opt.MaxProbes = ceiling
				defer func() { svc.opt.MaxProbes = 0 }()
				_, err := tc.write(svc, tc.fact+".")
				return err
			}

			// Calibrate: the probes the write charges without a ceiling.
			var last *plan.Budget
			budgetHook = func(b *plan.Budget) { last = b }
			svc, _ := load()
			if err := write(svc, 0); err != nil {
				t.Fatal(err)
			}
			budgetHook = nil
			svc.Close()
			total := int(last.Probes())
			if total < 2*plan.BudgetStride {
				t.Fatalf("the %s charged only %d probes; too few to sweep", tc.op, total)
			}

			var ceilings []int
			for c := plan.BudgetStride; c < total+plan.BudgetStride; c += plan.BudgetStride {
				ceilings = append(ceilings, c-1, c, c+1)
			}
			aborted := 0
			for _, ceiling := range ceilings {
				label := fmt.Sprintf("%s under %d probes", tc.op, ceiling)
				svc, dir := load()
				served, eng := svc.Stats(), svc.eng.Stats()
				err := write(svc, ceiling)
				if h := svc.Health(); h != HealthOK {
					t.Fatalf("%s: health = %q", label, h)
				}
				if err != nil {
					aborted++
					if !errors.Is(err, plan.ErrOverBudget) {
						t.Fatalf("%s: %v, want ErrOverBudget", label, err)
					}
					st := svc.Stats()
					if st.Engine != served.Engine || svc.eng.Stats() != eng {
						t.Fatalf("%s: engine counters %+v (writer %+v), want %+v", label, st.Engine, svc.eng.Stats(), eng)
					}
					if st.Durability.Records != served.Durability.Records {
						t.Fatalf("%s: %d WAL records, want %d", label, st.Durability.Records, served.Durability.Records)
					}
					if err := svc.eng.DB().Verify(); err != nil {
						t.Fatalf("%s: rolled-back materialization: %v", label, err)
					}
					assertMatchesOracle(t, svc, before, label+", served")
					crashed := openRecovered(t, copyDataDir(t, dir), 1<<20)
					assertMatchesOracle(t, crashed, before, label+", recovered")
					crashed.Close()
					if err := write(svc, 0); err != nil {
						t.Fatalf("%s: the same write without a ceiling: %v", label, err)
					}
				}
				if got := svc.Stats().Durability.Records; got != served.Durability.Records+1 {
					t.Fatalf("%s: %d WAL records once applied, want %d", label, got, served.Durability.Records+1)
				}
				assertMatchesOracle(t, svc, after, label+", applied")
				svc.Close()
				restarted := openRecovered(t, dir, 1<<20)
				if got := restarted.Stats().Durability.ReplayedRecords; got != 1 {
					t.Fatalf("%s: restart replayed %d records, want 1", label, got)
				}
				assertMatchesOracle(t, restarted, after, label+", restarted")
				restarted.Close()
			}
			if aborted == 0 || aborted == len(ceilings) {
				t.Fatalf("%d of %d ceilings aborted the %s; want both outcomes", aborted, len(ceilings), tc.op)
			}
		})
	}
}
