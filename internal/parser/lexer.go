// Package parser implements the surface syntax of the reproduction: a
// Vadalog-style rule language for TGDs, facts, and conjunctive queries.
//
// Grammar (head-first rules, as in Vadalog):
//
//	program   := { statement }
//	statement := rule | fact | query
//	rule      := head ":-" body "."
//	head      := atom { "," atom }
//	body      := literal { "," literal }
//	literal   := atom | ("not" | "!") atom
//	query     := "?" "(" terms? ")" ":-" body "."
//	fact      := atom "."
//	atom      := predicate "(" terms? ")"
//	terms     := term { "," term }
//	term      := VARIABLE | "_" | constant
//	constant  := IDENT | STRING | INT
//
// Variables start with an upper-case letter; "_" is a don't-care variable
// (fresh at each occurrence, as used by the paper's tiling reduction rules).
// Negated literals ("not R(X)" or "!R(X)") are admitted in rule bodies only
// — the mild stratified negation of §1.1 — and "not" is a reserved word
// there. Comments run from '%' or '#' to end of line.
package parser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokVariable
	tokUnderscore
	tokString
	tokInt
	tokLParen
	tokRParen
	tokComma
	tokDot
	tokImplies // ":-"
	tokQuery   // "?"
	tokBang    // "!"
)

func (k tokKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokVariable:
		return "variable"
	case tokUnderscore:
		return "_"
	case tokString:
		return "string"
	case tokInt:
		return "integer"
	case tokLParen:
		return "("
	case tokRParen:
		return ")"
	case tokComma:
		return ","
	case tokDot:
		return "."
	case tokImplies:
		return ":-"
	case tokQuery:
		return "?"
	case tokBang:
		return "!"
	default:
		return "token"
	}
}

type token struct {
	kind tokKind
	text string
	line int
	col  int
}

// lexer scans the source by byte offset, decoding runes past ASCII only;
// identifier and integer tokens are substrings, and line:col count runes.
type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errorf(line, col int, format string, args ...any) error {
	return fmt.Errorf("%d:%d: %s", line, col, fmt.Sprintf(format, args...))
}

// runeAt returns the rune at byte offset i and its width in bytes (0, 0
// past the end); an invalid byte reads as utf8.RuneError of width 1.
func (l *lexer) runeAt(i int) (rune, int) {
	if i >= len(l.src) {
		return 0, 0
	}
	if c := l.src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(l.src[i:])
}

func (l *lexer) peek() rune {
	r, _ := l.runeAt(l.pos)
	return r
}

func (l *lexer) advance() rune {
	r, w := l.runeAt(l.pos)
	l.pos += w
	if r == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return r
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		r := l.peek()
		switch {
		case unicode.IsSpace(r):
			l.advance()
		case r == '%' || r == '#':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

// next produces the next token.
func (l *lexer) next() (token, error) {
	l.skipSpaceAndComments()
	line, col := l.line, l.col
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, line: line, col: col}, nil
	}
	r := l.peek()
	switch {
	case r == '(':
		l.advance()
		return token{tokLParen, "(", line, col}, nil
	case r == ')':
		l.advance()
		return token{tokRParen, ")", line, col}, nil
	case r == ',':
		l.advance()
		return token{tokComma, ",", line, col}, nil
	case r == '.':
		l.advance()
		return token{tokDot, ".", line, col}, nil
	case r == '?':
		l.advance()
		return token{tokQuery, "?", line, col}, nil
	case r == '!':
		l.advance()
		return token{tokBang, "!", line, col}, nil
	case r == ':':
		l.advance()
		if l.pos >= len(l.src) {
			return token{}, l.errorf(line, col, "expected ':-', found end of input")
		}
		if r := l.peek(); r != '-' {
			return token{}, l.errorf(line, col, "expected ':-', found %q", ":"+string(r))
		}
		l.advance()
		return token{tokImplies, ":-", line, col}, nil
	case r == '"':
		l.advance()
		var b strings.Builder
		for {
			if l.pos >= len(l.src) {
				return token{}, l.errorf(line, col, "unterminated string")
			}
			c := l.advance()
			if c == '"' {
				break
			}
			if c == '\\' && l.pos < len(l.src) {
				c = l.advance()
			}
			b.WriteRune(c)
		}
		return token{tokString, b.String(), line, col}, nil
	case r == '_' && !isIdentRune(peekNext(l)):
		l.advance()
		return token{tokUnderscore, "_", line, col}, nil
	case unicode.IsDigit(r) || (r == '-' && unicode.IsDigit(peekNext(l))):
		start := l.pos
		l.advance()
		for l.pos < len(l.src) && unicode.IsDigit(l.peek()) {
			l.advance()
		}
		return token{tokInt, l.src[start:l.pos], line, col}, nil
	case isIdentStart(r):
		start := l.pos
		for l.pos < len(l.src) && isIdentRune(l.peek()) {
			l.advance()
		}
		text := l.src[start:l.pos]
		if isVariableName(text) {
			return token{tokVariable, text, line, col}, nil
		}
		return token{tokIdent, text, line, col}, nil
	default:
		return token{}, l.errorf(line, col, "unexpected character %q", string(r))
	}
}

// peekNext returns the rune after the current one (0 past the end).
func peekNext(l *lexer) rune {
	_, w := l.runeAt(l.pos)
	r, _ := l.runeAt(l.pos + w)
	return r
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	// '@' appears in the scoped variable names the renderer emits
	// ("X@3"), so identifiers admit it to make rendering round-trip.
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '\'' || r == '@'
}

// isVariableName reports whether an identifier denotes a variable: it starts
// with an upper-case letter, or with '_' followed by more characters.
func isVariableName(s string) bool {
	if s == "" {
		return false
	}
	r, _ := utf8.DecodeRuneInString(s)
	if r == '_' {
		return true
	}
	return unicode.IsUpper(r)
}
