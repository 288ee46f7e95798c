package term

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// TestDecodeStoreRejectsIDSpace: a header declaring more names or nulls
// than the 30-bit ID space holds is ErrIDSpace, decided before anything
// sized by the declared count is allocated.
func TestDecodeStoreRejectsIDSpace(t *testing.T) {
	empty := NewStore().AppendEncoded(nil) // nConsts | nVars | nextNull
	for _, at := range []int{0, 4, 8} {
		data := append([]byte(nil), empty...)
		binary.LittleEndian.PutUint32(data[at:], MaxID+2)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeStore(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrIDSpace) {
			t.Errorf("count %d at byte %d: err %v, want ErrIDSpace", MaxID+2, at, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("count at byte %d: decoding allocated %d B", at, got)
		}
	}
	// The largest count the space holds is not the error: it is a short
	// store.
	data := append([]byte(nil), empty...)
	binary.LittleEndian.PutUint32(data, MaxID+1)
	if _, err := DecodeStore(data); err == nil || errors.Is(err, ErrIDSpace) {
		t.Errorf("count %d with no names: err %v, want a short-store error", MaxID+1, err)
	}
}
