package term

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Checkpoint encoding of a Store. The format is a positional dump of
// both name arenas:
//
//	u32 nConsts | nConsts × (u32 len | bytes)
//	u32 nVars   | nVars   × (u32 len | bytes)
//	u32 nextNull
//
// Decoding re-interns the names in ID order into a fresh Store, which
// reproduces the exact ID assignment (IDs are dense and sequential in
// first-intern order), so term IDs embedded in a checkpointed instance
// segment stay valid against the decoded store.
//
// Encoding is safe concurrently with interning: the arena walk covers
// the prefix published at call time, and nothing durable references
// names interned past it (facts only hold terms interned before the
// writer lock was taken).

// AppendEncoded serializes the store onto buf.
func (s *Store) AppendEncoded(buf []byte) []byte {
	buf = s.consts.appendEncoded(buf)
	buf = s.vars.appendEncoded(buf)
	return binary.LittleEndian.AppendUint32(buf, s.nextNull.Load())
}

func (n *names) appendEncoded(buf []byte) []byte {
	count := n.arena.Len()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(count))
	for i := 0; i < count; i++ {
		name := n.arena.Get(uint32(i)).name()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(name)))
		buf = append(buf, name...)
	}
	return buf
}

// DecodeStore rebuilds a Store from AppendEncoded output. A count past
// the ID space is ErrIDSpace, refused before anything is interned.
func DecodeStore(data []byte) (*Store, error) {
	s := NewStore()
	data, err := decodeNames(data, &s.consts)
	if err != nil {
		return nil, fmt.Errorf("term: decode store consts: %w", err)
	}
	data, err = decodeNames(data, &s.vars)
	if err != nil {
		return nil, fmt.Errorf("term: decode store vars: %w", err)
	}
	if len(data) != 4 {
		return nil, errors.New("term: decode store: bad trailer")
	}
	next := binary.LittleEndian.Uint32(data)
	if next > MaxID+1 {
		return nil, fmt.Errorf("term: decode store nulls: %w", ErrIDSpace)
	}
	s.nextNull.Store(next)
	return s, nil
}

func decodeNames(data []byte, n *names) ([]byte, error) {
	if len(data) < 4 {
		return nil, errors.New("short header")
	}
	count := binary.LittleEndian.Uint32(data)
	if count > MaxID+1 {
		return nil, ErrIDSpace
	}
	data = data[4:]
	for i := 0; i < int(count); i++ {
		if len(data) < 4 {
			return nil, errors.New("short name length")
		}
		l := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if l < 0 || l > len(data) {
			return nil, errors.New("short name")
		}
		if id, _, err := n.intern(string(data[:l])); err != nil || id != uint32(i) {
			return nil, fmt.Errorf("non-sequential ID %d for entry %d (duplicate name?)", id, i)
		}
		data = data[l:]
	}
	return data, nil
}
