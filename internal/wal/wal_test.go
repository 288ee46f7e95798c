package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// reopen simulates a process restart: a fresh manager over the same
// directory, recovered.
func reopen(t *testing.T, dir string, opt Options) (*Manager, *Recovery) {
	t.Helper()
	m, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec, err := m.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return m, rec
}

func mustAppend(t *testing.T, m *Manager, kind byte, data string) uint64 {
	t.Helper()
	seq, err := m.Append(kind, []byte(data))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return seq
}

// activeLog returns the path of the single expected log file.
func activeLog(t *testing.T, dir string) string {
	t.Helper()
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("want exactly one log file, got %v (%v)", logs, err)
	}
	return logs[0]
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, rec := reopen(t, dir, Options{Policy: SyncNever})
	if rec.HasCheckpoint || len(rec.Records) != 0 || rec.Torn {
		t.Fatalf("fresh dir recovery not empty: %+v", rec)
	}
	payloads := []string{"e(a,b).", "", "e(b,c). e(c,d).", string(make([]byte, 4096))}
	for i, p := range payloads {
		kind := byte(1 + i%3)
		if seq := mustAppend(t, m, kind, p); seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	if m.lastSeq() != uint64(len(payloads)) {
		t.Fatalf("lastSeq = %d", m.lastSeq())
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2, rec2 := reopen(t, dir, Options{Policy: SyncNever})
	defer m2.Close()
	if rec2.Torn || rec2.HasCheckpoint {
		t.Fatalf("unexpected recovery flags: %+v", rec2)
	}
	if len(rec2.Records) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(payloads))
	}
	for i, r := range rec2.Records {
		if r.Seq != uint64(i+1) || string(r.Data) != payloads[i] || r.Kind != byte(1+i%3) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	// Appends continue after the recovered tail.
	if seq := mustAppend(t, m2, KindInsert, "x"); seq != uint64(len(payloads)+1) {
		t.Fatalf("post-recovery seq = %d", seq)
	}
}

// TestTornTailEveryOffset cuts the log at EVERY byte offset inside the
// final record's frame and asserts recovery serves exactly the longest
// valid prefix, flags the tear, and accepts further appends.
func TestTornTailEveryOffset(t *testing.T) {
	seed := t.TempDir()
	m, _ := reopen(t, seed, Options{Policy: SyncNever})
	const nFull = 4
	for i := 0; i < nFull+1; i++ {
		mustAppend(t, m, KindInsert, fmt.Sprintf("fact-%d", i))
	}
	m.Close()
	full, err := os.ReadFile(activeLog(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	// The valid prefix holding the first nFull records.
	recs, _, detail, err := readLog(activeLog(t, seed))
	if err != nil || detail != "" || len(recs) != nFull+1 {
		t.Fatalf("seed log unreadable: %d recs, %q, %v", len(recs), detail, err)
	}
	lastStart := 0
	for i := 0; i < nFull; i++ {
		lastStart += frameHeader + int(le32(full[lastStart:]))
	}
	for cut := lastStart; cut < len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		m2, rec := reopen(t, dir, Options{Policy: SyncNever})
		if len(rec.Records) != nFull {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), nFull)
		}
		if wantTorn := cut > lastStart; rec.Torn != wantTorn {
			t.Fatalf("cut %d: Torn = %v, want %v", cut, rec.Torn, wantTorn)
		}
		// The torn suffix was truncated away; the next append lands as
		// record nFull+1 and recovers cleanly.
		if seq := mustAppend(t, m2, KindInsert, "again"); seq != nFull+1 {
			t.Fatalf("cut %d: replacement seq %d", cut, seq)
		}
		m2.Close()
		_, rec3 := reopen(t, dir, Options{Policy: SyncNever})
		if rec3.Torn || len(rec3.Records) != nFull+1 {
			t.Fatalf("cut %d: post-truncate recovery %+v", cut, rec3)
		}
	}
}

// TestCorruptTailEveryByte flips each byte of the final record's frame
// (header and payload) and asserts the longest valid prefix survives.
func TestCorruptTailEveryByte(t *testing.T) {
	seed := t.TempDir()
	m, _ := reopen(t, seed, Options{Policy: SyncNever})
	const nFull = 3
	for i := 0; i < nFull+1; i++ {
		mustAppend(t, m, KindCSV, fmt.Sprintf("payload-%d", i))
	}
	m.Close()
	full, err := os.ReadFile(activeLog(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := 0
	for i := 0; i < nFull; i++ {
		lastStart += frameHeader + int(le32(full[lastStart:]))
	}
	for off := lastStart; off < len(full); off++ {
		dir := t.TempDir()
		cp := append([]byte(nil), full...)
		cp[off] ^= 0x40
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), cp, 0o666); err != nil {
			t.Fatal(err)
		}
		m2, rec := reopen(t, dir, Options{Policy: SyncNever})
		if len(rec.Records) != nFull || !rec.Torn {
			t.Fatalf("flip at %d: %d records (torn=%v), want %d torn", off, len(rec.Records), rec.Torn, nFull)
		}
		for i, r := range rec.Records {
			if string(r.Data) != fmt.Sprintf("payload-%d", i) {
				t.Fatalf("flip at %d: record %d corrupted silently", off, i)
			}
		}
		m2.Close()
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func TestCheckpointRoundTripAndRetention(t *testing.T) {
	dir := t.TempDir()
	m, _ := reopen(t, dir, Options{Policy: SyncNever})
	mustAppend(t, m, KindInsert, "covered-1")
	mustAppend(t, m, KindInsert, "covered-2")
	sections := [][]byte{[]byte("prog"), {}, []byte("binary\x00stuff")}
	if err := m.WriteCheckpoint(sections); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	mustAppend(t, m, KindDelete, "tail-1")
	st := m.Stats()
	if st.Checkpoints != 1 || st.LastCheckpointSeq != 2 || st.Records != 3 {
		t.Fatalf("stats %+v", st)
	}
	m.Close()

	m2, rec := reopen(t, dir, Options{Policy: SyncNever})
	if !rec.HasCheckpoint || rec.CheckpointSeq != 2 {
		t.Fatalf("checkpoint not recovered: %+v", rec)
	}
	if len(rec.Sections) != len(sections) {
		t.Fatalf("sections %d, want %d", len(rec.Sections), len(sections))
	}
	for i := range sections {
		if !bytes.Equal(rec.Sections[i], sections[i]) {
			t.Fatalf("section %d mismatch", i)
		}
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "tail-1" || rec.Records[0].Seq != 3 {
		t.Fatalf("tail mismatch: %+v", rec.Records)
	}

	// A third checkpoint evicts the first (two retained) and the log
	// files its fallback no longer needs.
	if err := m2.WriteCheckpoint(sections); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m2, KindInsert, "x")
	if err := m2.WriteCheckpoint(sections); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(ckpts) != 2 {
		t.Fatalf("retained %d checkpoints, want 2: %v", len(ckpts), ckpts)
	}
	_, rec3 := reopen(t, dir, Options{Policy: SyncNever})
	if !rec3.HasCheckpoint || rec3.CheckpointSeq != 4 || len(rec3.Records) != 0 {
		t.Fatalf("post-retention recovery: %+v", rec3)
	}
}

// TestCorruptCheckpointFallsBack bit-flips the newest checkpoint and
// asserts recovery serves the previous one plus the longer log tail —
// the reason retention keeps two checkpoints AND their covering logs.
func TestCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	m, _ := reopen(t, dir, Options{Policy: SyncNever})
	mustAppend(t, m, KindInsert, "a")
	if err := m.WriteCheckpoint([][]byte{[]byte("ckpt-1")}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m, KindInsert, "b")
	mustAppend(t, m, KindInsert, "c")
	if err := m.WriteCheckpoint([][]byte{[]byte("ckpt-2")}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m, KindInsert, "d")
	m.Close()

	newest := filepath.Join(dir, ckptName(3))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o666); err != nil {
		t.Fatal(err)
	}

	m2, rec := reopen(t, dir, Options{Policy: SyncNever})
	defer m2.Close()
	if !rec.HasCheckpoint || rec.CheckpointSeq != 1 || rec.CheckpointsSkipped != 1 {
		t.Fatalf("fallback recovery: %+v", rec)
	}
	if string(rec.Sections[0]) != "ckpt-1" {
		t.Fatalf("fallback sections: %q", rec.Sections)
	}
	// Records b, c, d (seq 2..4) must all replay over the older state.
	if len(rec.Records) != 3 {
		t.Fatalf("fallback tail: %d records, want 3 (%+v)", len(rec.Records), rec.Records)
	}
	for i, want := range []string{"b", "c", "d"} {
		if string(rec.Records[i].Data) != want {
			t.Fatalf("fallback record %d = %q, want %q", i, rec.Records[i].Data, want)
		}
	}
}

// TestCrashMidCheckpoint arms the half-written-checkpoint crash point:
// the temp file must be ignored (and swept) and the previous durable
// state served.
func TestCrashMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, _ := reopen(t, dir, Options{Policy: SyncNever})
	mustAppend(t, m, KindInsert, "a")
	if err := m.WriteCheckpoint([][]byte{[]byte("good")}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, m, KindInsert, "b")
	m.SetCrash(CrashMidCheckpoint)
	if err := m.WriteCheckpoint([][]byte{[]byte("half")}); err != ErrCrash {
		t.Fatalf("crash point did not fire: %v", err)
	}
	if !m.Dead() {
		t.Fatal("manager alive after crash")
	}
	if _, err := m.Append(KindInsert, []byte("x")); err != ErrCrash {
		t.Fatalf("dead manager accepted append: %v", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 1 {
		t.Fatalf("want a leftover temp file, got %v", tmps)
	}

	m2, rec := reopen(t, dir, Options{Policy: SyncNever})
	defer m2.Close()
	if !rec.HasCheckpoint || string(rec.Sections[0]) != "good" || rec.CheckpointSeq != 1 {
		t.Fatalf("recovery after mid-checkpoint crash: %+v", rec)
	}
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "b" {
		t.Fatalf("tail after mid-checkpoint crash: %+v", rec.Records)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp file not swept: %v", tmps)
	}
}

// TestCrashBeforeTruncate leaves a durable checkpoint with the covered
// log still on disk: recovery must seq-filter, not double-replay.
func TestCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	m, _ := reopen(t, dir, Options{Policy: SyncNever})
	mustAppend(t, m, KindInsert, "a")
	mustAppend(t, m, KindInsert, "b")
	m.SetCrash(CrashBeforeTruncate)
	if err := m.WriteCheckpoint([][]byte{[]byte("ck")}); err != ErrCrash {
		t.Fatalf("crash point did not fire: %v", err)
	}

	m2, rec := reopen(t, dir, Options{Policy: SyncNever})
	if !rec.HasCheckpoint || rec.CheckpointSeq != 2 {
		t.Fatalf("checkpoint lost: %+v", rec)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("covered records replayed: %+v", rec.Records)
	}
	// Sequence numbering continues past the filtered records.
	if seq := mustAppend(t, m2, KindInsert, "c"); seq != 3 {
		t.Fatalf("seq after filtered recovery = %d", seq)
	}
	m2.Close()
}

// TestCrashAfterAppend: the record is durable but unacknowledged —
// recovery replays it in full.
func TestCrashAfterAppend(t *testing.T) {
	dir := t.TempDir()
	m, _ := reopen(t, dir, Options{Policy: SyncNever})
	mustAppend(t, m, KindInsert, "acked")
	m.SetCrash(CrashAfterAppend)
	if _, err := m.Append(KindInsert, []byte("unacked")); err != ErrCrash {
		t.Fatalf("crash point did not fire: %v", err)
	}
	m2, rec := reopen(t, dir, Options{Policy: SyncNever})
	defer m2.Close()
	if len(rec.Records) != 2 || string(rec.Records[1].Data) != "unacked" {
		t.Fatalf("unacked durable record lost: %+v", rec.Records)
	}
}

// TestCrashBeforeSyncTornTail models a power failure right after an
// unsynced append: the tail is cut mid-record and recovery serves the
// acknowledged prefix.
func TestCrashBeforeSyncTornTail(t *testing.T) {
	dir := t.TempDir()
	m, _ := reopen(t, dir, Options{Policy: SyncNever})
	mustAppend(t, m, KindInsert, "acked")
	m.SetCrash(CrashBeforeSync)
	if _, err := m.Append(KindInsert, []byte("maybe-lost")); err != ErrCrash {
		t.Fatalf("crash point did not fire: %v", err)
	}
	// Model the unsynced suffix not surviving: cut the file mid-record.
	path := activeLog(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := frameHeader + int(le32(data))
	if err := os.Truncate(path, int64(firstLen+3)); err != nil {
		t.Fatal(err)
	}
	m2, rec := reopen(t, dir, Options{Policy: SyncNever})
	defer m2.Close()
	if !rec.Torn || len(rec.Records) != 1 || string(rec.Records[0].Data) != "acked" {
		t.Fatalf("acknowledged prefix not served: torn=%v records=%+v", rec.Torn, rec.Records)
	}
}

func TestCSVPayloadRoundTrip(t *testing.T) {
	cells := []string{"a", "b", "c,with,commas", "", "e\nf", "g"}
	buf := AppendCSVPayload(nil, "edge", 2, cells)
	pred, arity, got, err := DecodeCSVPayload(buf)
	if err != nil || pred != "edge" || arity != 2 {
		t.Fatalf("decode: %q %d %v", pred, arity, err)
	}
	if len(got) != len(cells) {
		t.Fatalf("cells %d, want %d", len(got), len(cells))
	}
	for i := range cells {
		if got[i] != cells[i] {
			t.Fatalf("cell %d = %q, want %q", i, got[i], cells[i])
		}
	}
	// Corruption: every single-byte flip must error or decode cleanly,
	// never panic; a wrong arity-vs-cells shape must error.
	if _, _, _, err := DecodeCSVPayload(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	bad := AppendCSVPayload(nil, "p", 0, nil)
	if _, _, _, err := DecodeCSVPayload(bad); err == nil {
		t.Fatal("zero arity accepted")
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "interval": SyncInterval, "": SyncInterval, "never": SyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
