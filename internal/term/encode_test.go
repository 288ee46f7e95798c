package term

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
)

// withCount is the empty store's encoding (nConsts | nVars | nextNull)
// with the u32 at byte at set to count.
func withCount(at int, count uint32) []byte {
	data := NewStore().AppendEncoded(nil)
	binary.LittleEndian.PutUint32(data[at:], count)
	return data
}

// TestDecodeStoreRejectsIDSpace: a header declaring more names or nulls
// than the 30-bit ID space holds is ErrIDSpace, decided before anything
// sized by the declared count is allocated.
func TestDecodeStoreRejectsIDSpace(t *testing.T) {
	for _, at := range []int{0, 4, 8} {
		data := withCount(at, MaxID+2)
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
	if _, err := DecodeStore(withCount(0, MaxID+1)); err == nil || errors.Is(err, ErrIDSpace) {
		t.Errorf("count %d with no names: err %v, want a short-store error", MaxID+1, err)
	}
}

// FuzzDecodeStore: arbitrary bytes decode to an error or to a store that
// re-encodes to the same bytes, and whose every constant renders through
// the entry recovery built for it as json.Marshal of its name. Never a
// panic.
func FuzzDecodeStore(f *testing.F) {
	for _, at := range []int{0, 4, 8} {
		f.Add(withCount(at, MaxID+2))
	}
	f.Add(withCount(0, MaxID+1))
	st := NewStore()
	for _, name := range []string{"n1", "abcdefghijklm", "abcdefghijklmn", "http://example.org/resource/item0001", "a<b", "Z\u00fcrich-Gen\u00e8ve", "\xff"} {
		st.Const(name)
	}
	st.Var("X")
	st.FreshNull()
	f.Add(st.AppendEncoded(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeStore(data)
		if err != nil {
			return
		}
		if got := s.AppendEncoded(nil); !bytes.Equal(got, data) {
			t.Fatalf("re-encoded %x, decoded %x", got, data)
		}
		for id := 0; id < s.NumConsts(); id++ {
			c := MkConst(uint32(id))
			want, _ := json.Marshal(s.Name(c))
			if got := s.AppendJSON(nil, c); !bytes.Equal(got, want) {
				t.Fatalf("constant %d: rendered %s, want %s", id, got, want)
			}
		}
	})
}
