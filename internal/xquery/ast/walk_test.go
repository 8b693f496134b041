package ast_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/xquery/ast"
	"repro/internal/xquery/parser"
)

// TestEachChildSeesWhatMapChildrenMaps holds the visiting walk to the
// copying one: over testdata/kinds.xq — modules that use every
// expression kind with children, separated by blank lines — each
// node's EachChild children are exactly its MapChildren children.
func TestEachChildSeesWhatMapChildrenMaps(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", "kinds.xq"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range strings.Split(strings.TrimSpace(string(b)), "\n\n") {
		m, err := parser.ParseModule(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var walk func(e ast.Expr)
		walk = func(e ast.Expr) {
			var mapped, visited []ast.Expr
			ast.MapChildren(e, func(c ast.Expr) ast.Expr {
				mapped = append(mapped, c)
				return c
			})
			ast.EachChild(e, func(c ast.Expr) { visited = append(visited, c) })
			if len(mapped) != len(visited) {
				t.Errorf("%T in %q: MapChildren maps %d children, EachChild visits %d", e, src, len(mapped), len(visited))
			}
			for _, c := range mapped {
				found := false
				for _, v := range visited {
					found = found || reflect.DeepEqual(c, v)
				}
				if !found {
					t.Errorf("%T in %q: EachChild misses %+v", e, src, c)
				}
			}
			for _, c := range visited {
				walk(c)
			}
		}
		walk(m.Body)
	}
}

// TestMapChildrenCopies: what MapChildren hands back shares no list
// with its input, so a caller may write to it.
func TestMapChildrenCopies(t *testing.T) {
	m, err := parser.ParseModule(`//a[1][@b = "c"]/d`)
	if err != nil {
		t.Fatal(err)
	}
	in := m.Body.(ast.Path)
	out := ast.MapChildren(in, func(c ast.Expr) ast.Expr { return c }).(ast.Path)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("identity map changed the path: %+v", out)
	}
	out.Steps[1].Preds[0] = ast.IntLit{Val: 2}
	out.Steps[0].Axis = ast.AxisChild
	if !reflect.DeepEqual(in, m.Body) {
		t.Errorf("a write to the copy reached the input: %+v", m.Body)
	}
}
