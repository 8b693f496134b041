package lexer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// linePos is the position formula Line and Col stand for: the newlines
// before off, and the bytes since the last of them.
func linePos(src string, off int) (line, col int) {
	off = min(off, len(src))
	return 1 + strings.Count(src[:off], "\n"), off - strings.LastIndexByte(src[:off], '\n')
}

// positionCorpus is the analyzer's golden modules, the AST kinds module
// and the string literals of the parser's fuzz targets (their seeds).
func positionCorpus(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "analysis", "testdata", "*.xq"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden modules: %v", err)
	}
	out := map[string]string{}
	for _, name := range append(files, filepath.Join("..", "ast", "testdata", "kinds.xq")) {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join("..", "parser", "fuzz_test.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				out[fset.Position(lit.Pos()).String()] = s
			}
		}
		return true
	})
	return out
}

// TestLineAndColMatchTheFormula: every token of every module in the
// corpus carries the line and column the formula gives its start, read
// in order, and again after a Reset back to each token, last first.
func TestLineAndColMatchTheFormula(t *testing.T) {
	for name, src := range positionCorpus(t) {
		check := func(how string, tok Token) {
			if line, col := linePos(src, tok.Start); tok.Line != line || tok.Col != col {
				t.Errorf("%s: %s token at %d is %d:%d, want %d:%d", name, how, tok.Start, tok.Line, tok.Col, line, col)
			}
		}
		l := New(src)
		var toks []Token
		for {
			tok := l.Next()
			check("scanned", tok)
			if tok.Kind == EOF {
				break
			}
			toks = append(toks, tok)
		}
		if l.Err() != nil {
			if line, col := linePos(src, l.err.Offset); l.err.Line != line || l.err.Col != col {
				t.Errorf("%s: error at %d is %d:%d, want %d:%d", name, l.err.Offset, l.err.Line, l.err.Col, line, col)
			}
			continue
		}
		for i := len(toks) - 1; i >= 0; i-- {
			l.Reset(toks[i].Start)
			check("rescanned", l.Next())
		}
		for _, off := range []int{len(src) + 5, 0, len(src) / 2} {
			if line, col := linePos(src, off); l.Line(off) != line || l.Col(off) != col {
				t.Errorf("%s: offset %d is %d:%d, want %d:%d", name, off, l.Line(off), l.Col(off), line, col)
			}
		}
	}
}
