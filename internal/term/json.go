package term

import (
	"strings"
	"unicode/utf8"
)

// JSON rendering of names. The daemon's answers are JSON arrays of names,
// so every constant is encoded as a JSON string literal once, when it is
// interned, and an answer row is a copy of pre-encoded bytes: no per-byte
// work per emitted constant.

// entry is one interned name as its arena publishes it: the name and its
// JSON string literal in one slot, so a reader never sees a name without
// its encoding. A name with nothing to escape is the inner substring of
// its literal — one allocation holds both, costing two bytes and a string
// header over the bare name. Only names that need escaping keep a separate
// escaped copy.
type entry struct {
	name string
	json string
}

// newEntry builds name's entry. It keeps no reference to name itself,
// which may be a slice of a larger buffer (a CSV record, say).
func newEntry(name string) entry {
	for i := 0; i < len(name); i++ {
		if !jsonSafe[name[i]] {
			return entry{name: strings.Clone(name), json: string(AppendJSONString(nil, name))}
		}
	}
	lit := `"` + name + `"`
	return entry{name: lit[1 : len(lit)-1], json: lit}
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
// copy of the literal encoded at intern time; any other term (answers
// hold constants, so only a null in practice) is escaped on the spot.
func (s *Store) AppendJSON(dst []byte, t Term) []byte {
	if t.IsConst() {
		if e, ok := s.consts.arena.Get(t.ID()); ok {
			return append(dst, e.json...)
		}
	}
	return AppendJSONString(dst, s.Name(t))
}
