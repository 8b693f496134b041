package plan_test

import (
	"sort"
	"testing"

	"repro/internal/dom"
	"repro/internal/xquery/funclib"
	"repro/internal/xquery/parser"
	"repro/internal/xquery/plan"
)

// notInTheTable are the built-ins funclib registers that have no row in
// the library table, which makes them impure, not atomic and focus-free
// to every static pass. Registering a built-in means adding it here or
// giving it a row — a decision, not a default.
var notInTheTable = map[string][]string{
	parser.FnNamespace: {"current-date", "current-dateTime", "current-time",
		"doc-available", "error", "last", "position", "trace"},
	parser.XSNamespace: {"QName", "anyURI", "boolean", "date", "dateTime", "dayTimeDuration",
		"decimal", "double", "duration", "float", "int", "integer", "long", "string", "time",
		"untypedAtomic", "yearMonthDuration"},
	parser.FTNamespace:   {"tokenize"},
	parser.KWICNamespace: {"summarize"},
}

// TestLibraryTableMatchesFunclib holds the library table to the library:
// every row names a function funclib registers — a focus row at the
// arity that reads the context item and at the one that does not — and
// every registration in the table's namespaces has a row or is listed
// above.
func TestLibraryTableMatchesFunclib(t *testing.T) {
	lib := funclib.Library()
	accepts := func(space, local string, arity int) bool {
		return lib.Lookup(dom.QName{Space: space, Local: local}, arity) != nil
	}
	rows, namespaces := plan.LibraryRows()
	inTable := map[[2]string]bool{}
	for _, r := range rows {
		inTable[[2]string{r.Space, r.Local}] = true
		if len(lib.Overloads(dom.QName{Space: r.Space, Local: r.Local})) == 0 {
			t.Errorf("table row %s#%s: funclib registers no such function", r.Space, r.Local)
		}
		if r.Focus > 0 && (!accepts(r.Space, r.Local, r.Focus-1) || !accepts(r.Space, r.Local, r.Focus)) {
			t.Errorf("table row %s#%s: focus arity %d, but funclib does not accept %d and %d arguments",
				r.Space, r.Local, r.Focus, r.Focus-1, r.Focus)
		}
	}
	listed := map[[2]string]bool{}
	for space, locals := range notInTheTable {
		for _, l := range locals {
			listed[[2]string{space, l}] = true
			if inTable[[2]string{space, l}] {
				t.Errorf("%s#%s has a row and is listed as having none", space, l)
			}
		}
	}
	library := map[string]bool{}
	for _, ns := range namespaces {
		library[ns] = true
	}
	for space := range notInTheTable {
		if !library[space] {
			t.Errorf("namespace %s is not the table's", space)
		}
	}
	var unlisted []string
	for _, f := range lib.All() {
		k := [2]string{f.Name.Space, f.Name.Local}
		if library[f.Name.Space] && !inTable[k] && !listed[k] {
			unlisted = append(unlisted, f.Name.Space+"#"+f.Name.Local)
		}
	}
	sort.Strings(unlisted)
	for _, u := range unlisted {
		t.Errorf("%s: registered, with no row in the library table and not listed in notInTheTable", u)
	}
}
