package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestAllExperimentsRun is the integration test of the whole
// reproduction: every experiment must execute end to end and produce a
// non-empty, well-formed table, under the ID All pairs it with, and no
// two experiments share an ID.
func TestAllExperimentsRun(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range All() {
		if ids[e.ID] {
			t.Errorf("experiment ID %s listed twice", e.ID)
		}
		ids[e.ID] = true
		table, err := e.Run()
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if table.ID != e.ID || table.Title == "" {
			t.Errorf("experiment listed as %s produced table %q titled %q", e.ID, table.ID, table.Title)
		}
		if len(table.Rows) == 0 {
			t.Errorf("%s produced no rows", table.ID)
		}
		for _, row := range table.Rows {
			if len(row) != len(table.Header) {
				t.Errorf("%s: row width %d != header width %d", table.ID, len(row), len(table.Header))
			}
		}
	}
	for _, want := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"} {
		if !ids[want] {
			t.Errorf("experiment %s missing", want)
		}
	}
}

// TestE2Shape pins the load-bearing claims of the migration experiment.
func TestE2Shape(t *testing.T) {
	table, err := E2Offloading()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]string{}
	for _, row := range table.Rows {
		byName[row[0]] = row
	}
	server := byName["server-side (original)"]
	cached := byName["client-side + doc cache"]
	if server == nil || cached == nil {
		t.Fatalf("rows missing: %v", table.Rows)
	}
	// Client-side evaluates zero queries on the server.
	if cached[3] != "0" {
		t.Errorf("client-side server queries = %s", cached[3])
	}
	// The cache serves a majority of interactions locally.
	var pct int
	if _, err := fmt.Sscanf(cached[6], "%d%%", &pct); err != nil || pct < 50 {
		t.Errorf("served locally = %s", cached[6])
	}
}

// TestE4Shape pins the code-volume ratio band.
func TestE4Shape(t *testing.T) {
	table, err := E4LinesOfCode()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		if row[4] != "true" {
			t.Errorf("%s: behaviour not equal", row[0])
		}
		if !strings.HasSuffix(row[3], "x") {
			t.Errorf("%s: ratio format %q", row[0], row[3])
		}
	}
}

func TestTableFormat(t *testing.T) {
	tab := Table{
		ID: "EX", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxx", "1"}},
		Notes:  []string{"a note"},
	}
	out := tab.Format()
	for _, want := range []string{"== EX: demo ==", "long-header", "xxxxxx", "note: a note", "------"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureNsPerOp(t *testing.T) {
	n := 0
	v, err := MeasureNsPerOp(func() error { n++; return nil }, 10, 0)
	if err != nil || n < 10 || v < 0 {
		t.Errorf("MeasureNsPerOp: n=%d v=%f err=%v", n, v, err)
	}
	if _, err := MeasureNsPerOp(func() error { return errTest }, 1, 0); err == nil {
		t.Error("errors must propagate")
	}
}

var errTest = &testError{}

type testError struct{}

func (*testError) Error() string { return "boom" }
