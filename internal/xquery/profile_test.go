package xquery

import (
	"strings"
	"testing"

	"repro/internal/xdm"
	"repro/internal/xquery/runtime"
)

func TestProfilerCollectsStatistics(t *testing.T) {
	e := New()
	prog := e.MustCompile(`sum(for $i in 1 to 50 return $i * 2)`)
	prof := runtime.NewProfiler()
	if _, err := prog.Run(RunConfig{Profiler: prof}); err != nil {
		t.Fatal(err)
	}
	if prof.Total() == 0 {
		t.Fatal("no statistics collected")
	}
	kinds := map[string]bool{}
	for _, entry := range prof.Entries() {
		kinds[entry.Kind] = true
		// A kind evaluated only through the streaming path (e.g. Range
		// as a for-clause domain) records items pulled instead of
		// eager evaluation counts; either way the entry is nonzero.
		if entry.Count <= 0 && entry.Items <= 0 {
			t.Errorf("entry %s has count %d and items %d", entry.Kind, entry.Count, entry.Items)
		}
	}
	for _, want := range []string{"FLWOR", "Binary", "VarRef", "FuncCall"} {
		if !kinds[want] {
			t.Errorf("missing profile entry %s (have %v)", want, kinds)
		}
	}
	out := prof.Format()
	if !strings.Contains(out, "FLWOR") || !strings.Contains(out, "count") {
		t.Errorf("Format output: %s", out)
	}
	// The binary multiplications inside the loop ran 50 times (at
	// least; plus the range).
	for _, entry := range prof.Entries() {
		if entry.Kind == "VarRef" && entry.Count < 50 {
			t.Errorf("VarRef count = %d", entry.Count)
		}
	}
}

func TestProfilerOffByDefault(t *testing.T) {
	e := New()
	prog := e.MustCompile(`1 + 1`)
	res, err := prog.Run(RunConfig{})
	if err != nil || res.Value[0].String() != "2" {
		t.Fatalf("run without profiler: %v %v", res, err)
	}
}

func TestFnID(t *testing.T) {
	doc := libraryDoc(t)
	tests := []struct {
		q    string
		want string
	}{
		{`string(id("b2")/title)`, "Design Patterns"},
		{`count(id(("b1", "b3")))`, "2"},
		{`count(id("missing"))`, "0"},
		{`count(id("b1 b2"))`, "2"}, // space-separated idrefs
		{`string(id("b3", //book[1])/title)`, "Real World Haskell"},
	}
	for _, tt := range tests {
		got, err := evalStr(t, tt.q, doc)
		if err != nil {
			t.Errorf("query %q: %v", tt.q, err)
			continue
		}
		if got != tt.want {
			t.Errorf("query %q = %q, want %q", tt.q, got, tt.want)
		}
	}
}

// TestProfilerUpdatePartitionCounters drives an updating run with a
// profiler attached: every primitive of the list applies, the delete of
// a replaced node included (it finds the node already detached and
// changes nothing), and the profile prints no update: line, since no
// primitive is dropped before apply.
func TestProfilerUpdatePartitionCounters(t *testing.T) {
	e := New()
	prog := e.MustCompile(`replace node (//book)[1] with <tome/>,
		delete node (//book)[1]`)
	prof := runtime.NewProfiler()
	res, err := prog.Run(RunConfig{ContextItem: xdm.NewNode(libraryDoc(t)), Profiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Updates != 2 {
		t.Errorf("applied %d, want 2 (the replace and the no-op delete of the replaced node)", res.Updates)
	}
	if out := prof.Format(); strings.Contains(out, "update:") {
		t.Errorf("the profile printed an update: line:\n%s", out)
	}
}
