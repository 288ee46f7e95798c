package parser

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// FuzzParse: program text crosses the service's /load boundary, so any
// bytes must parse into a result or an error, never a panic, and an error
// message (echoed back to the client) never holds a control character,
// as ':%c' once printed the NUL past the end of input. The corpus
// is seeded with every program the examples/ binaries embed as a raw
// string literal.
func FuzzParse(f *testing.F) {
	files, err := filepath.Glob("../../examples/*/main.go")
	if err != nil || len(files) == 0 {
		f.Fatalf("example programs: %v %v", files, err)
	}
	for _, name := range files {
		file, err := goparser.ParseFile(gotoken.NewFileSet(), name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == gotoken.STRING && strings.HasPrefix(lit.Value, "`") {
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					f.Fatal(err)
				}
				f.Add(src)
			}
			return true
		})
	}
	f.Add("p(X) :- q(X, \"a b\"). q(a,b). ?(X) :- p(X).")
	f.Add("r(X,W) :- p(X), not s(X). ? :- r(X,Y).")
	f.Fuzz(func(t *testing.T, src string) {
		res, err := Parse(src)
		if err == nil && res == nil {
			t.Fatal("Parse returned neither a result nor an error")
		}
		if err != nil && strings.ContainsFunc(err.Error(), unicode.IsControl) {
			t.Fatalf("error message holds a control character: %q", err.Error())
		}
	})
}
