// Package wal implements the durability layer of the reasoning service:
// a write-ahead log of update records plus epoch checkpoint files, both
// living in one data directory.
//
// The log is a sequence of length-prefixed, CRC32-C-checksummed records:
//
//	frame:   u32 payload length | u32 CRC32-C(payload) | payload
//	payload: u8 kind | u64 sequence number | kind-specific data
//
// (all integers little-endian). Every record is written with a single
// Write call, so a record is either wholly in the OS page cache or not
// at all once Append returns; what survives a power failure additionally
// depends on the fsync policy. A reader accepts the longest valid prefix
// of a log file: the first frame whose length field overruns the file or
// whose checksum mismatches ends the prefix — a torn tail from a crash
// mid-write is expected, reported, and truncated away on recovery, never
// an error.
//
// Checkpoints are full-state snapshots written beside the log (see
// checkpoint.go). A checkpoint covering sequence number S supersedes
// every record with seq <= S; after one lands durably, the manager
// rotates to a fresh log file and deletes log files whose records are
// covered by the OLDEST RETAINED checkpoint (two are kept), so a
// corrupted newest checkpoint can always fall back to the previous one
// plus the longer log tail.
//
// The Manager is safe for concurrent use but is designed for the
// service's single-writer path: Append/WriteCheckpoint serialize on one
// mutex. Fault injection for the crash-recovery property suite lives in
// crash.go: SetCrash arms a one-shot deterministic crash point, after
// which the manager behaves like a dead process (every operation fails
// with ErrCrash) while the files on disk keep whatever state the crash
// point left behind.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Record kinds. The payload data is kind-specific; the wal package does
// not interpret it beyond the CSV helpers in payload.go.
const (
	// KindInsert carries an insert batch as fact source text.
	KindInsert byte = 1
	// KindDelete carries a delete batch as fact source text.
	KindDelete byte = 2
	// KindCSV carries one bulk-load batch: predicate, arity, cells.
	KindCSV byte = 3
)

// Policy selects when appended records are fsynced to stable storage.
type Policy int

const (
	// SyncInterval batches fsyncs: an append schedules one at most
	// Options.SyncInterval later. Bounded loss window, near-zero
	// steady-state overhead.
	SyncInterval Policy = iota
	// SyncAlways fsyncs before every Append returns: an acknowledged
	// record survives power failure.
	SyncAlways
	// SyncNever leaves syncing to the OS (and Close). Fastest; a crash
	// of the machine may lose any unsynced suffix. A crash of the
	// process alone loses nothing — records are in the page cache.
	SyncNever
)

// ParsePolicy maps the daemon's -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval", "":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// Options configures a Manager.
type Options struct {
	Policy Policy
	// SyncInterval is the fsync batching window under SyncInterval
	// (default 100ms).
	SyncInterval time.Duration
	// KeepCheckpoints is how many most-recent checkpoints (and the log
	// files reaching back to the oldest of them) are retained (default,
	// and minimum, 2 — torn-checkpoint fallback needs a predecessor).
	KeepCheckpoints int
}

// Record is one decoded log record.
type Record struct {
	Kind byte
	Seq  uint64
	Data []byte
}

// Stats is a point-in-time durability counter snapshot.
type Stats struct {
	Records           uint64 `json:"wal_records"`
	Bytes             uint64 `json:"wal_bytes"`
	Syncs             uint64 `json:"wal_syncs"`
	Checkpoints       uint64 `json:"checkpoints"`
	LastCheckpointSeq uint64 `json:"last_checkpoint_seq"`
}

// Manager owns one data directory: the active log file, checkpoint
// writing/retention, and recovery. Create with Open, then call Recover
// exactly once before appending.
type Manager struct {
	dir string
	opt Options

	mu    sync.Mutex
	f     *os.File
	fpath string
	ready bool // Recover has run
	dead  bool // injected crash fired; every op fails

	nextSeq uint64 // next sequence number to assign (first is 1)

	crash CrashPoint

	syncPending bool
	syncTimer   *time.Timer

	// frameBuf is the Append encoding scratch, reused across records so
	// the hot path allocates nothing.
	frameBuf []byte

	stats Stats
}

// ErrCrash is returned by every operation after an injected crash point
// fired: the manager simulates a dead process. The files on disk keep
// whatever the crash point left; reopen the directory to recover.
var ErrCrash = errors.New("wal: injected crash")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Open prepares a manager over the data directory, creating it if
// needed. No file is read or written yet; call Recover to load durable
// state and arm the active log file.
func Open(dir string, opt Options) (*Manager, error) {
	if opt.SyncInterval <= 0 {
		opt.SyncInterval = 100 * time.Millisecond
	}
	if opt.KeepCheckpoints < 2 {
		opt.KeepCheckpoints = 2
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	return &Manager{dir: dir, opt: opt, nextSeq: 1}, nil
}

// Recovery is what Recover found in the data directory.
type Recovery struct {
	// HasCheckpoint reports a valid checkpoint was loaded; Sections are
	// its section payloads and CheckpointSeq the record sequence number
	// it covers.
	HasCheckpoint bool
	CheckpointSeq uint64
	Sections      [][]byte
	// Records is the log tail to replay: every valid record with
	// seq > CheckpointSeq, in ascending sequence order.
	Records []Record
	// Torn reports that a torn or corrupt record ended a log file early
	// (the invalid suffix was discarded and, on the active file,
	// truncated away). TornDetail says what was wrong.
	Torn       bool
	TornDetail string
	// CheckpointsSkipped counts checkpoint files that failed validation
	// and were passed over for an older one.
	CheckpointsSkipped int
}

// Recover loads the newest valid checkpoint, reads the log tail past
// it, truncates a torn tail off the active log file, and arms the
// manager for appending. It must be called exactly once, before the
// first Append or WriteCheckpoint.
func (m *Manager) Recover() (*Recovery, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return nil, ErrCrash
	}
	if m.ready {
		return nil, errors.New("wal: Recover called twice")
	}
	rec := &Recovery{}

	ckpts, logs, err := m.listFiles()
	if err != nil {
		return nil, err
	}
	// Newest checkpoint that validates wins; older ones are the fallback
	// for a half-written or bit-rotted file.
	for i := len(ckpts) - 1; i >= 0; i-- {
		seq, sections, err := readCheckpoint(filepath.Join(m.dir, ckpts[i].name))
		if err != nil {
			rec.CheckpointsSkipped++
			continue
		}
		rec.HasCheckpoint = true
		rec.CheckpointSeq = seq
		rec.Sections = sections
		break
	}

	// Read every log file in order, keeping records past the checkpoint.
	// A bad record ends not just its file but the whole replayable tail:
	// records are globally ordered, so anything after a hole cannot be
	// applied safely.
	maxSeq := rec.CheckpointSeq
	for i, lf := range logs {
		path := filepath.Join(m.dir, lf.name)
		records, validLen, detail, err := readLog(path)
		if err != nil {
			return nil, err
		}
		for _, r := range records {
			if r.Seq > rec.CheckpointSeq {
				rec.Records = append(rec.Records, r)
			}
			if r.Seq > maxSeq {
				maxSeq = r.Seq
			}
		}
		if detail != "" {
			rec.Torn = true
			rec.TornDetail = fmt.Sprintf("%s: %s", lf.name, detail)
			// Drop the invalid tail so appends continue after the last
			// valid record, and remove any later files: their records sit
			// past a hole in the global order and can never be applied.
			if err := os.Truncate(path, validLen); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			for _, later := range logs[i+1:] {
				os.Remove(filepath.Join(m.dir, later.name))
			}
			logs = logs[:i+1]
			break
		}
	}
	m.nextSeq = maxSeq + 1

	// Arm the active file: continue the last log file, or start fresh.
	active := logName(m.nextSeq)
	if len(logs) > 0 {
		active = logs[len(logs)-1].name
	}
	f, err := os.OpenFile(filepath.Join(m.dir, active), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	m.f, m.fpath = f, filepath.Join(m.dir, active)

	// Stale temp files from a crash mid-checkpoint are dead weight.
	if tmps, _ := filepath.Glob(filepath.Join(m.dir, "*.tmp")); tmps != nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	m.ready = true
	return rec, nil
}

// WAL effort series. Append latency includes the inline fsync under
// SyncAlways (that IS the append cost the caller pays); background
// interval syncs land in the fsync histogram only. Record and byte
// counts live in Stats alone.
var (
	obsAppendSec = obs.NewHistogram("vadalog_wal_append_seconds", "", "WAL record append latency (frame encode + write, plus fsync under the always policy).", obs.Seconds, obs.LatencyBuckets)
	obsFsyncSec  = obs.NewHistogram("vadalog_wal_fsync_seconds", "", "WAL fsync latency.", obs.Seconds, obs.LatencyBuckets)
	obsCkptSec   = obs.NewHistogram("vadalog_checkpoint_seconds", "", "Checkpoint write duration (serialize + fsync + rename + rotation).", obs.Seconds, obs.LatencyBuckets)
	obsCkptBytes = obs.NewHistogram("vadalog_checkpoint_bytes", "", "Checkpoint file size.", obs.Units, obs.BytesBuckets)
)

// Append logs one record, assigning and returning its sequence number.
// The record is on disk (page cache) when Append returns; whether it is
// on stable storage depends on the fsync policy.
func (m *Manager) Append(kind byte, data []byte) (uint64, error) {
	t0 := obs.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return 0, ErrCrash
	}
	if !m.ready {
		return 0, errors.New("wal: Append before Recover")
	}
	seq := m.nextSeq
	frame := appendFrame(m.frameBuf[:0], kind, seq, data)
	m.frameBuf = frame
	if _, err := m.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	m.nextSeq++
	m.stats.Records++
	m.stats.Bytes += uint64(len(frame))

	if m.crash == CrashBeforeSync {
		// The record reached the page cache but was never fsynced: a
		// process crash keeps it, a power failure may not. The torn-tail
		// tests model the latter by truncating the file afterwards.
		return 0, m.die()
	}
	switch m.opt.Policy {
	case SyncAlways:
		if err := m.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		m.scheduleSync()
	}
	if m.crash == CrashAfterAppend {
		// Durable (force the sync even under lazy policies) but never
		// acknowledged: recovery must replay it in full.
		m.syncLocked() //nolint:errcheck // dying anyway
		return 0, m.die()
	}
	obsAppendSec.ObserveSince(t0)
	return seq, nil
}

// Sync forces an fsync of the active log file.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrCrash
	}
	return m.syncLocked()
}

func (m *Manager) syncLocked() error {
	if m.f == nil {
		return nil
	}
	t0 := obs.Now()
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	obsFsyncSec.ObserveSince(t0)
	m.stats.Syncs++
	return nil
}

// scheduleSync arms one deferred fsync per batching window. Caller
// holds mu. The fsync itself runs with the mutex RELEASED: an append
// must never stall behind a multi-millisecond disk flush, and *os.File
// is safe for concurrent Write+Sync. A file concurrently closed under
// the sync turns it into a benign ErrClosed — Close fsyncs first, and
// checkpoint rotation abandons the old log only once a durable
// checkpoint supersedes its records.
func (m *Manager) scheduleSync() {
	if m.syncPending {
		return
	}
	m.syncPending = true
	m.syncTimer = time.AfterFunc(m.opt.SyncInterval, func() {
		m.mu.Lock()
		m.syncPending = false
		f := m.f
		if m.dead || f == nil {
			m.mu.Unlock()
			return
		}
		m.mu.Unlock()
		t0 := obs.Now()
		if err := f.Sync(); err != nil {
			return // best-effort background sync
		}
		obsFsyncSec.ObserveSince(t0)
		m.mu.Lock()
		m.stats.Syncs++
		m.mu.Unlock()
	})
}

// lastSeq reports the sequence number of the last appended record (0 if
// none yet).
func (m *Manager) lastSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextSeq - 1
}

// Stats returns accumulated durability counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Close fsyncs and closes the active log file. A dead (crashed) manager
// closes to a no-op: the simulated crash already abandoned the file.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.syncTimer != nil {
		m.syncTimer.Stop()
		m.syncPending = false
	}
	if m.dead || m.f == nil {
		return nil
	}
	err := m.syncLocked()
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	m.f = nil
	return err
}

// die flips the manager into the dead state (one-shot crash fired).
// Caller holds mu.
func (m *Manager) die() error {
	m.dead = true
	m.crash = CrashNone
	return ErrCrash
}

// ---------------------------------------------------------------------
// Frame encoding / decoding.

const frameHeader = 4 + 4 // u32 len + u32 crc
const payloadHeader = 1 + 8

// maxPayload bounds a decoded length field: anything larger is treated
// as corruption, not an allocation request.
const maxPayload = 1 << 30

// appendFrame appends one encoded record frame to buf.
func appendFrame(buf []byte, kind byte, seq uint64, data []byte) []byte {
	plen := payloadHeader + len(data)
	off := len(buf)
	buf = append(buf, make([]byte, frameHeader+plen)...)
	payload := buf[off+frameHeader:]
	payload[0] = kind
	binary.LittleEndian.PutUint64(payload[1:], seq)
	copy(payload[payloadHeader:], data)
	binary.LittleEndian.PutUint32(buf[off:], uint32(plen))
	binary.LittleEndian.PutUint32(buf[off+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// readLog decodes the longest valid record prefix of one log file.
// validLen is the byte length of that prefix; detail is non-empty when
// an invalid suffix was discarded (torn tail or corruption).
func readLog(path string) (records []Record, validLen int64, detail string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, "", fmt.Errorf("wal: read log: %w", err)
	}
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < frameHeader {
			return records, int64(off), fmt.Sprintf("truncated frame header at offset %d", off), nil
		}
		plen := int(binary.LittleEndian.Uint32(rest))
		if plen < payloadHeader || plen > maxPayload || plen > len(rest)-frameHeader {
			return records, int64(off), fmt.Sprintf("bad record length %d at offset %d", plen, off), nil
		}
		want := binary.LittleEndian.Uint32(rest[4:])
		payload := rest[frameHeader : frameHeader+plen]
		if crc32.Checksum(payload, crcTable) != want {
			return records, int64(off), fmt.Sprintf("checksum mismatch at offset %d", off), nil
		}
		records = append(records, Record{
			Kind: payload[0],
			Seq:  binary.LittleEndian.Uint64(payload[1:]),
			Data: append([]byte(nil), payload[payloadHeader:]...),
		})
		off += frameHeader + plen
	}
	return records, int64(off), "", nil
}

// ---------------------------------------------------------------------
// Directory layout.

type dirFile struct {
	name string
	seq  uint64
}

func logName(firstSeq uint64) string { return fmt.Sprintf("wal-%016d.log", firstSeq) }
func ckptName(seq uint64) string     { return fmt.Sprintf("ckpt-%016d.ckpt", seq) }
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return n, err == nil
}

// listFiles returns the directory's checkpoint and log files, each
// sorted ascending by sequence number.
func (m *Manager) listFiles() (ckpts, logs []dirFile, err error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseName(e.Name(), "ckpt-", ".ckpt"); ok {
			ckpts = append(ckpts, dirFile{e.Name(), seq})
		} else if seq, ok := parseName(e.Name(), "wal-", ".log"); ok {
			logs = append(logs, dirFile{e.Name(), seq})
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i].seq < ckpts[j].seq })
	sort.Slice(logs, func(i, j int) bool { return logs[i].seq < logs[j].seq })
	return ckpts, logs, nil
}
