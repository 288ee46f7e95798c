package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// Checkpoint file format:
//
//	"VDCKPT01" | u64 covered seq | u32 nSections
//	per section: u32 len | u32 CRC32-C | bytes
//	"VDCKEND1"
//
// Sections are opaque to this package — the service composes them from
// the storage/term/schema encoders. The file is written to a .tmp name,
// fsynced, renamed into place, and the directory fsynced: a reader either
// sees a complete checkpoint or none, and a crash mid-write leaves only
// a .tmp that recovery sweeps away. Bit rot after the rename is caught
// by the per-section checksums and falls back to the previous retained
// checkpoint (which is why two are kept, together with the log files
// reaching back to the older one).

var (
	ckptMagic   = []byte("VDCKPT01")
	ckptTrailer = []byte("VDCKEND1")
)

// WriteCheckpoint durably writes a checkpoint of the given sections
// covering every record appended so far, then rotates the log and
// applies the retention policy. The caller must have quiesced appends
// (the service holds its writer lock).
func (m *Manager) WriteCheckpoint(sections [][]byte) error {
	t0 := obs.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead {
		return ErrCrash
	}
	if !m.ready {
		return errors.New("wal: WriteCheckpoint before Recover")
	}
	seq := m.nextSeq - 1
	final := filepath.Join(m.dir, ckptName(seq))
	tmp := final + ".tmp"

	buf := make([]byte, 0, 1024)
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sections)))
	for i, sec := range sections {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sec)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(sec, crcTable))
		buf = append(buf, sec...)
		if m.crash == CrashMidCheckpoint && i == 0 {
			// Die with a partial temp file on disk: never renamed, so
			// recovery ignores it and serves the previous checkpoint.
			os.WriteFile(tmp, buf, 0o666) //nolint:errcheck // dying anyway
			return m.die()
		}
	}
	buf = append(buf, ckptTrailer...)

	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	syncDir(m.dir)
	m.stats.Checkpoints++
	m.stats.LastCheckpointSeq = seq

	if m.crash == CrashBeforeTruncate {
		// Checkpoint is durable but the covered log prefix was never
		// truncated: recovery must seq-filter the stale records.
		return m.die()
	}
	err = m.rotateAndRetain(seq)
	if err == nil && !t0.IsZero() {
		obsCkptSec.ObserveSince(t0)
		obsCkptBytes.Observe(int64(len(buf)))
	}
	return err
}

// rotateAndRetain starts a fresh active log file after a checkpoint at
// seq, then deletes checkpoints beyond the retention count and log
// files wholly covered by the OLDEST retained checkpoint. Caller holds
// mu.
func (m *Manager) rotateAndRetain(seq uint64) error {
	if err := m.syncLocked(); err != nil {
		return err
	}
	if err := m.f.Close(); err != nil {
		return fmt.Errorf("wal: rotate close: %w", err)
	}
	m.fpath = filepath.Join(m.dir, logName(seq+1))
	f, err := os.OpenFile(m.fpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o666)
	if err != nil {
		return fmt.Errorf("wal: rotate open: %w", err)
	}
	m.f = f

	ckpts, logs, err := m.listFiles()
	if err != nil {
		return err
	}
	keepFrom := 0
	if n := len(ckpts) - m.opt.KeepCheckpoints; n > 0 {
		keepFrom = n
	}
	for _, c := range ckpts[:keepFrom] {
		os.Remove(filepath.Join(m.dir, c.name))
	}
	// The oldest retained checkpoint bounds which records may still be
	// replayed (fallback path); a log file is deletable only when every
	// record it can hold is at or below that bound — i.e. the NEXT log
	// file starts at or below oldest+1.
	oldest := ckpts[keepFrom].seq
	for i := 0; i+1 < len(logs); i++ {
		if logs[i+1].seq <= oldest+1 {
			os.Remove(filepath.Join(m.dir, logs[i].name))
		}
	}
	syncDir(m.dir)
	return nil
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (seq uint64, sections [][]byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	off := len(ckptMagic) + 8 + 4
	if len(data) < off+len(ckptTrailer) || string(data[:len(ckptMagic)]) != string(ckptMagic) {
		return 0, nil, errors.New("wal: checkpoint: bad header")
	}
	seq = binary.LittleEndian.Uint64(data[len(ckptMagic):])
	n := int(binary.LittleEndian.Uint32(data[len(ckptMagic)+8:]))
	if n < 0 || n > 1<<16 {
		return 0, nil, errors.New("wal: checkpoint: bad section count")
	}
	sections = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		if len(data)-off < 8 {
			return 0, nil, errors.New("wal: checkpoint: truncated section header")
		}
		slen := int(binary.LittleEndian.Uint32(data[off:]))
		want := binary.LittleEndian.Uint32(data[off+4:])
		off += 8
		if slen < 0 || slen > len(data)-off {
			return 0, nil, errors.New("wal: checkpoint: truncated section")
		}
		sec := data[off : off+slen]
		if crc32.Checksum(sec, crcTable) != want {
			return 0, nil, errors.New("wal: checkpoint: section checksum mismatch")
		}
		sections = append(sections, sec)
		off += slen
	}
	if len(data)-off < len(ckptTrailer) || string(data[off:off+len(ckptTrailer)]) != string(ckptTrailer) {
		return 0, nil, errors.New("wal: checkpoint: missing trailer")
	}
	return seq, sections, nil
}

// syncDir fsyncs a directory so renames and unlinks inside it are
// durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}
