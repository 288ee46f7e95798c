package term

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode/utf8"
	"unsafe"
)

// escaperSeeds covers every escape class of encoding/json's string
// encoder; the fuzz target starts from them and the table test below runs
// them in tier-1.
var escaperSeeds = []string{
	"",
	"plain",
	`say "hi"`,
	`back\slash`,
	"line\nfeed\rreturn\ttab",
	"\b\f",
	"\x00\x01\x02\x03\x04\x05\x06\x07\x0b\x0e\x0f\x10\x11\x12\x13\x14\x15\x16\x17\x18\x19\x1a\x1b\x1c\x1d\x1e\x1f",
	"del\x7f",
	"<script>&amp;</script>",
	"sep\u2028para\u2029end",
	"\u2027\u202a", // neighbours of U+2028/9 share their first two bytes
	"héllo wörld — 日本語 🎉",
	"\xff",             // never valid
	"\xc3",             // truncated two-byte sequence
	"\xe2\x80",         // truncated three-byte sequence (prefix of U+2028)
	"\xf0\x9f\x8e",     // truncated four-byte sequence
	"\xc0\xaf",         // overlong '/'
	"\xe0\x80\xaf",     // overlong three-byte
	"\xed\xa0\x80",     // UTF-16 surrogate half
	"\xf4\x90\x80\x80", // beyond U+10FFFF
	"a\xffb\"c d<e",
	"\ufffd", // the replacement rune itself is valid and passes through
	// Either side of the 15-byte inline literal (TestEntryLiteralInline).
	"abcdefghijkl",   // 12 bytes, a 14-byte literal
	"abcdefghijklm",  // 13 bytes, 15
	"abcdefghijklmn", // 14 bytes, 16
	"a<b",            // escaped: "a\u003cb", 10 bytes
	"h\u00e9 \u65e5", // non-ASCII, passed through: 8 bytes, 10
}

// checkEscaper holds both renderings of s to json.Marshal: the escaper
// itself, and the literal a Store encoded when it interned s as a
// constant, which must also leave the name itself intact.
func checkEscaper(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendJSONString(nil, s); !bytes.Equal(got, want) {
		t.Errorf("AppendJSONString(%q) = %s, json.Marshal = %s", s, got, want)
	}
	st := NewStore()
	c := st.Const(s)
	if got := st.AppendJSON(nil, c); !bytes.Equal(got, want) {
		t.Errorf("interned literal of %q = %s, json.Marshal = %s", s, got, want)
	}
	if got := st.Name(c); got != s {
		t.Errorf("Name after interning %q = %q", s, got)
	}
}

func TestAppendJSONStringSeeds(t *testing.T) {
	for _, s := range escaperSeeds {
		checkEscaper(t, s)
	}
	// Every single byte, alone and between safe neighbours.
	for b := 0; b < 256; b++ {
		checkEscaper(t, string([]byte{byte(b)}))
		checkEscaper(t, "x"+string([]byte{byte(b)})+"y")
	}
	// Appending extends dst rather than replacing it.
	if got := string(AppendJSONString([]byte("["), "a")); got != `["a"` {
		t.Errorf("append onto a prefix: %s", got)
	}
}

// FuzzAppendJSONString: the hand-rolled escaper is byte-identical to
// encoding/json on arbitrary input, valid UTF-8 or not.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range escaperSeeds {
		f.Add(s)
	}
	f.Fuzz(checkEscaper)
}

// TestAppendJSONTerms: nulls, variables and IDs the store never issued
// render through the escaper on the spot, matching json.Marshal of Name.
func TestAppendJSONTerms(t *testing.T) {
	st := NewStore()
	for _, tm := range []Term{st.Var("X<1>"), MkNull(0), MkConst(99), MkVar(99), ^Term(0)} {
		want, _ := json.Marshal(st.Name(tm))
		if got := st.AppendJSON(nil, tm); !bytes.Equal(got, want) {
			t.Errorf("AppendJSON(%v) = %s, want %s", tm, got, want)
		}
	}
}

// TestEntryLiteralInline: an entry is 32 bytes. A literal of at most 15
// bytes lives inline in it, and its name is then its own copy. A longer
// one heads the entry's string: a printable ASCII name with nothing to
// escape is that literal's inside, any other name follows the literal.
// AppendJSON renders either as json.Marshal does, after any prefix, which
// it leaves intact.
func TestEntryLiteralInline(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 32 {
		t.Errorf("entry is %d bytes, want 32", size)
	}
	for _, name := range []string{
		"abcdefghijkl", "abcdefghijklm", "abcdefghijklmn",
		"a<b", "a<b&c>d\"e", "h\u00e9 \u65e5", "h\u00e9llo w\u00f6rld \u65e5\u672c",
	} {
		want, _ := json.Marshal(name)
		in := string([]byte(name))
		e := newEntry(in)
		if e.name() != name || unsafe.StringData(e.name()) == unsafe.StringData(in) {
			t.Errorf("%q: entry name %q is not its own copy", name, e.name())
		}
		n := int(binary.LittleEndian.Uint32(e.lit[:]))
		plain := !strings.ContainsFunc(name, func(r rune) bool { return r >= utf8.RuneSelf || !jsonSafe[r] })
		switch inline := e.lit[len(e.lit)-1] != 0; {
		case inline != (len(want) <= 15):
			t.Errorf("%q: %d-byte literal inline = %v", name, len(want), inline)
		case inline:
			if got := e.lit[:len(want)]; !bytes.Equal(got, want) || e.s != name {
				t.Errorf("%q: inline literal %s, string %q; want %s", name, got, e.s, want)
			}
		case n > len(e.s) || e.s[:n] != string(want):
			t.Errorf("%q: literal is %d bytes of %q, want %s", name, n, e.s, want)
		case plain && (n != len(e.s) || unsafe.StringData(e.name()) != unsafe.StringData(e.s[1:])):
			t.Errorf("%q: plain name and its literal do not share one allocation: %q", name, e.s)
		case !plain && e.s[n:] != name:
			t.Errorf("%q: name does not follow its literal: %q", name, e.s)
		}
		st := NewStore()
		c := st.Const(name)
		for _, prefix := range [][]byte{nil, []byte(`[["x",`), append(make([]byte, 0, 64), `[["x",`...)} {
			got := st.AppendJSON(prefix, c)
			if string(got) != string(prefix)+string(want) {
				t.Errorf("%q after %q: got %s", name, prefix, got)
			}
		}
	}
}

// TestAppendJSONUnderConcurrentInterning: readers render every constant
// below the count they observe while writers intern short, long and
// escaped names; every render is json.Marshal of the constant's name, and
// every name is one the writers interned.
func TestAppendJSONUnderConcurrentInterning(t *testing.T) {
	const (
		writers = 4
		readers = 4
		perW    = 400
	)
	formats := []string{"c%d", "http://example.org/resource/item-%08d", "a<%d>&\"b\"", "h\u00e9%d", "%d-\u65e5\u672c\u8a9e-\u2028"}
	names := make([][]string, writers)
	known := map[string]bool{}
	for w := range names {
		for i := 0; i < perW; i++ {
			n := fmt.Sprintf(formats[i%len(formats)], w*perW+i)
			names[w] = append(names[w], n)
			known[n] = true
		}
	}
	st := NewStore()
	var wg, rg sync.WaitGroup
	var done atomic.Bool
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			buf := make([]byte, 0, 64)
			for id := 0; ; id++ {
				for !done.Load() && id >= st.NumConsts() {
					runtime.Gosched()
				}
				if id >= st.NumConsts() {
					return
				}
				c := MkConst(uint32(id))
				name := st.Name(c)
				want, _ := json.Marshal(name)
				if buf = st.AppendJSON(buf[:0], c); !bytes.Equal(buf, want) || !known[name] {
					t.Errorf("constant %d (%q): rendered %s, want %s", id, name, buf, want)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, n := range names[w] {
				st.Const(n)
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	rg.Wait()
	if st.NumConsts() != writers*perW {
		t.Fatalf("interned %d constants, want %d", st.NumConsts(), writers*perW)
	}
}

// BenchmarkAppendJSON renders interned constants the way the daemon's
// sink does, in a seeded random order over 16 384 distinct names of one
// shape — about the 16 800 constants of the benchmark's TC graphs: short
// (6 bytes), boundary (13 bytes, a 15-byte literal), long (a 40-byte URI)
// and escaped (non-ASCII, a 23-byte literal).
func BenchmarkAppendJSON(b *testing.B) {
	for _, bc := range []struct{ name, format string }{
		{"short", "n%05d"},
		{"boundary", "node-%08d"},
		{"long", "http://example.org/resource/item%08d"},
		{"escaped", "Zürich-%05d-Genève"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			st := NewStore()
			ts := make([]Term, 1<<14)
			for i := range ts {
				ts[i] = st.Const(fmt.Sprintf(bc.format, i))
			}
			rand.New(rand.NewSource(1)).Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
			dst := make([]byte, 0, 256)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = st.AppendJSON(dst[:0], ts[i&(len(ts)-1)])
			}
		})
	}
}
