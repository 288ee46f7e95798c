package term

import (
	"encoding/binary"
	"slices"
	"strings"
	"unicode/utf8"
)

// JSON rendering of names. The daemon's answers are JSON arrays of names,
// so every constant is encoded as a JSON string literal once, when it is
// interned, and an answer row is a copy of pre-encoded bytes: no per-byte
// work per emitted constant.

// entry is one interned name as its arena publishes it, in 32 bytes: the
// name and its JSON string literal in one slot, so a reader never sees a
// name without its encoding. A literal of at most 15 bytes lives inline
// in lit, with its length in lit[15], and s is the name's own copy. A
// longer literal is the first lit[0:4] (little-endian) bytes of s, and
// lit[15] is 0: a name with nothing to escape is the literal's inside, so
// one allocation holds both; a name that needs escaping follows its
// literal in s.
type entry struct {
	s   string
	lit [16]byte
}

// newEntry builds name's entry. It keeps no reference to name itself,
// which may be a slice of a larger buffer (a CSV record, say).
func newEntry(name string) entry {
	var e entry
	// A literal is at least the name and two quotes, so only a name of at
	// most 13 bytes can fit inline.
	if len(name) <= len(e.lit)-3 {
		if lit := AppendJSONString(e.lit[:0:len(e.lit)-1], name); len(lit) < len(e.lit) {
			e.s, e.lit[len(e.lit)-1] = strings.Clone(name), byte(len(lit))
			return e
		}
	}
	for i := 0; i < len(name); i++ {
		if !jsonSafe[name[i]] {
			// On the stack: the entry's string is its one allocation.
			var buf [64]byte
			lit := AppendJSONString(buf[:0], name)
			e.s = string(lit) + name
			binary.LittleEndian.PutUint32(e.lit[:], uint32(len(lit)))
			return e
		}
	}
	e.s = `"` + name + `"`
	binary.LittleEndian.PutUint32(e.lit[:], uint32(len(e.s)))
	return e
}

// name returns the entry's name.
func (e *entry) name() string {
	if e.lit[len(e.lit)-1] != 0 {
		return e.s
	}
	if n := int(binary.LittleEndian.Uint32(e.lit[:])); n < len(e.s) {
		return e.s[n:]
	}
	return e.s[1 : len(e.s)-1]
}

// jsonSafe marks the bytes AppendJSONString copies through unescaped:
// printable ASCII except the quote, the backslash, and the three
// characters encoding/json escapes for HTML safety. Bytes >= 0x80 are
// unsafe here because they start a rune that needs decoding.
var jsonSafe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range []byte(`"\<>&`) {
		t[b] = false
	}
	return t
}()

// AppendJSONString appends s as a JSON string literal, byte for byte what
// json.Marshal(s) produces (FuzzAppendJSONString holds it to that): HTML
// characters and U+2028/U+2029 escaped, control characters as their short
// escape or \u00XX, invalid UTF-8 as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if jsonSafe[b] {
			i++
			continue
		}
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}

// AppendJSON appends the JSON string literal of t's name — the bytes
// json.Marshal(s.Name(t)) produces. For an interned constant that is a
// copy of the literal encoded at intern time: a literal of at most 15
// bytes is one 16-byte store of the entry's inline record, so AppendJSON
// may overwrite up to 15 bytes of dst's spare capacity past the returned
// slice. Any other term (answers hold constants, so only a null in
// practice) is escaped on the spot.
func (s *Store) AppendJSON(dst []byte, t Term) []byte {
	if t.IsConst() {
		if e := s.consts.arena.Get(t.ID()); e != nil {
			n := int(e.lit[len(e.lit)-1])
			if n == 0 {
				return append(dst, e.s[:binary.LittleEndian.Uint32(e.lit[:])]...)
			}
			dst = slices.Grow(dst, len(e.lit))
			l := len(dst)
			*(*[16]byte)(dst[l : l+len(e.lit)]) = e.lit
			return dst[:l+n]
		}
	}
	return AppendJSONString(dst, s.Name(t))
}
