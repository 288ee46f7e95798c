package term

import (
	"bytes"
	"encoding/json"
	"testing"
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

// TestEntryStoresPlainNameOnce: a name with nothing to escape is the inner
// substring of its literal, so interning it stores its bytes once.
func TestEntryStoresPlainNameOnce(t *testing.T) {
	e := newEntry(string([]byte("plain-name_42")))
	if e.json != `"plain-name_42"` || unsafe.StringData(e.name) != unsafe.StringData(e.json[1:]) {
		t.Errorf("plain entry %q / %q does not share one allocation", e.name, e.json)
	}
	if e := newEntry("a<b"); e.name != "a<b" || e.json != `"a\u003cb"` {
		t.Errorf("escaped entry = %q / %q", e.name, e.json)
	}
}
