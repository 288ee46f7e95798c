package schema

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Checkpoint encoding of a Registry: a positional dump of the predicate
// arena —
//
//	u32 nPreds | nPreds × (u32 nameLen | name | u32 arity)
//
// Decoding re-interns in ID order into a fresh Registry, reproducing
// the dense sequential ID assignment, so PredIDs embedded in a
// checkpointed instance segment stay valid against the decoded
// registry. Safe concurrently with interning on the receiver (the walk
// covers the published prefix).

// AppendEncoded serializes the registry onto buf.
func (r *Registry) AppendEncoded(buf []byte) []byte {
	n := r.preds.Len()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		info := r.preds.Get(uint32(i))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(info.name)))
		buf = append(buf, info.name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(info.arity))
	}
	return buf
}

// DecodeRegistry rebuilds a Registry from AppendEncoded output.
func DecodeRegistry(data []byte) (*Registry, error) {
	bad := errors.New("schema: decode registry: malformed")
	if len(data) < 4 {
		return nil, bad
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	r := NewRegistry()
	for i := 0; i < n; i++ {
		if len(data) < 4 {
			return nil, bad
		}
		l := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if l < 0 || l > len(data)-4 {
			return nil, bad
		}
		name := string(data[:l])
		arity := int(binary.LittleEndian.Uint32(data[l:]))
		data = data[l+4:]
		if id := r.Intern(name, arity); id != PredID(i) {
			return nil, fmt.Errorf("schema: decode registry: non-sequential ID %d for entry %d", id, i)
		}
	}
	if len(data) != 0 {
		return nil, bad
	}
	return r, nil
}
