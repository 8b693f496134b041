package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runLint executes the CLI against argv with an empty stdin, returning
// exit status and captured stdout.
func runLint(t *testing.T, argv ...string) (int, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(argv, strings.NewReader(""), &out, &errOut)
	return code, out.String()
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestAcceptance drives the issue's acceptance triple: fn:put, an
// unbound variable and a misplaced updating expression each fail with
// a distinct code at an accurate position.
func TestAcceptance(t *testing.T) {
	cases := []struct {
		name, src, code, pos string
	}{
		{"put", "fn:put(<a/>, 'f.xml')", "XQ0202", "1:1"},
		{"unbound", "1 +\n$nope", "XQ0001", "2:1"},
		{"misplaced-update", "1 + (delete node /a)", "XQ0101", "1:6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := writeFile(t, tc.name+".xq", tc.src)
			code, out := runLint(t, f)
			if code != 1 {
				t.Fatalf("exit = %d, want 1 (output: %s)", code, out)
			}
			want := ":" + tc.pos + ": error " + tc.code + ":"
			if !strings.Contains(out, want) {
				t.Errorf("output %q missing %q", out, want)
			}
		})
	}
}

func TestCleanModule(t *testing.T) {
	f := writeFile(t, "ok.xq", "let $x := 1 return $x + 1")
	if code, out := runLint(t, f); code != 0 || out != "" {
		t.Errorf("exit = %d, output = %q; want clean", code, out)
	}
}

// TestEventFunctionsResolve lints the §5.1 high-order event route: the
// browser: namespace the linter resolves against is the whole one a
// page engine runs with.
func TestEventFunctionsResolve(t *testing.T) {
	f := writeFile(t, "hof.xq", `declare updating function local:l($evt, $obj) {
	replace value of node $obj/@value with "clicked"
};
browser:addEventListener(//input, "click", "local:l"),
browser:removeEventListener(//input, "click", "local:l")`)
	if code, out := runLint(t, f); code != 0 || out != "" {
		t.Errorf("exit = %d, output = %q; want clean", code, out)
	}
}

func TestWarningExitAndWerror(t *testing.T) {
	f := writeFile(t, "warn.xq", "let $unused := 1 return 2")
	if code, out := runLint(t, f); code != 0 || !strings.Contains(out, "XQ0005") {
		t.Errorf("warnings alone: exit = %d, output = %q", code, out)
	}
	if code, _ := runLint(t, "-werror", f); code != 1 {
		t.Errorf("-werror: exit = %d, want 1", code)
	}
}

func TestServerProfileAllowsDoc(t *testing.T) {
	f := writeFile(t, "doc.xq", "fn:doc('data.xml')")
	if code, out := runLint(t, f); code != 1 || !strings.Contains(out, "XQ0201") {
		t.Errorf("browser profile: exit = %d, output = %q", code, out)
	}
	if code, out := runLint(t, "-server", f); code != 0 {
		t.Errorf("-server: exit = %d, output = %q; want 0", code, out)
	}
}

func TestEmbeddedPagePositions(t *testing.T) {
	page := "<html><head>\n" +
		"<script type=\"text/javascript\">var x = $skip;</script>\n" +
		"<script type=\"text/xquery\">\n" +
		"let $x := 1\n" +
		"return $y\n" +
		"</script>\n" +
		"</head><body/></html>\n"
	f := writeFile(t, "page.html", page)
	code, out := runLint(t, f)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (output: %s)", code, out)
	}
	// $y sits on page line 5 column 8; $x is unused on line 4.
	if !strings.Contains(out, ":5:8: error XQ0001") {
		t.Errorf("output %q missing page-adjusted unbound-variable position", out)
	}
	if !strings.Contains(out, ":4:5: warning XQ0005") {
		t.Errorf("output %q missing page-adjusted unused-variable position", out)
	}
}

func TestSyntaxErrorIsXQ0000(t *testing.T) {
	f := writeFile(t, "bad.xq", "let $x := return")
	code, out := runLint(t, f)
	if code != 1 || !strings.Contains(out, "XQ0000") {
		t.Errorf("exit = %d, output = %q; want XQ0000 error", code, out)
	}
}

func TestJSONOutput(t *testing.T) {
	f := writeFile(t, "put.xq", "fn:put(<a/>, 'f.xml')")
	code, out := runLint(t, "-json", f)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("invalid JSON %q: %v", out, err)
	}
	if len(diags) != 1 || diags[0].Code != "XQ0202" || diags[0].Severity != "error" ||
		diags[0].Line != 1 || diags[0].Col != 1 || diags[0].File != f {
		t.Errorf("diags = %+v", diags)
	}
}

func TestJSONEmptyArray(t *testing.T) {
	f := writeFile(t, "ok.xq", "1 + 1")
	code, out := runLint(t, "-json", f)
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Errorf("exit = %d, output = %q; want empty JSON array", code, out)
	}
}

func TestMissingFileExit2(t *testing.T) {
	if code, _ := runLint(t, filepath.Join(t.TempDir(), "absent.xq")); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestExamplesStayClean mirrors the make lint gate: the shipped example
// programs must lint without any diagnostics at all.
func TestExamplesStayClean(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example files: %v", err)
	}
	code, out := runLint(t, append([]string{"-werror"}, files...)...)
	if code != 0 {
		t.Errorf("examples lint dirty (exit %d):\n%s", code, out)
	}
}

// TestUpdateIndependenceCodes drives the XQ04xx pass through the CLI:
// dead updates and no-op deletes warn, guaranteed conflicts error, and
// the independence note reports the group count without ever failing
// the run — not even under -werror.
func TestUpdateIndependenceCodes(t *testing.T) {
	dead := writeFile(t, "dead.xq",
		"insert node <x/> into /app/cart,\nreplace node /app/cart with <cart/>")
	if code, out := runLint(t, dead); code != 0 || !strings.Contains(out, "XQ0401") {
		t.Errorf("dead update: exit = %d, output = %q", code, out)
	}
	if code, _ := runLint(t, "-werror", dead); code != 1 {
		t.Errorf("dead update -werror: exit != 1")
	}

	deadDel := writeFile(t, "deaddel.xq",
		"replace node /app/cart with <cart/>,\ndelete node /app/cart")
	if code, out := runLint(t, deadDel); code != 0 || !strings.Contains(out, "XQ0402") {
		t.Errorf("dead delete: exit = %d, output = %q", code, out)
	}

	conflict := writeFile(t, "conflict.xq",
		"replace value of node /app/title with 'a',\nreplace value of node /app/title with 'b'")
	if code, out := runLint(t, conflict); code != 1 || !strings.Contains(out, "error XQ0403") {
		t.Errorf("conflict: exit = %d, output = %q; want exit 1", code, out)
	}

	disjoint := writeFile(t, "disjoint.xq",
		"replace value of node /app/title with 'x',\nrename node /app/menu as 'nav',\ninsert node <i/> into /app/cart")
	if code, out := runLint(t, "-werror", disjoint); code != 0 || strings.Contains(out, "XQ04") {
		t.Errorf("disjoint updates: exit = %d, output = %q; want no finding", code, out)
	}
}

// The planner's shipping annotation shows as a note on the annotated
// node, with the text a source would be sent, and never fails a run.
func TestShippedAdvisory(t *testing.T) {
	q := writeFile(t, "shipped.xq",
		"for $a in collection('/db/j3')/article where $a/@year = '1990' return string($a/@id)")
	code, out := runLint(t, "-werror", q)
	if code != 0 || !strings.Contains(out, `1:5: note XQ0501: evaluated per document at the collection's source: for $a in child::article`) {
		t.Errorf("shipped: exit = %d, output = %q", code, out)
	}
	nodes := writeFile(t, "nodes.xq", "for $a in collection('/db/j3')/article return $a/title")
	if code, out := runLint(t, nodes); code != 0 || strings.Contains(out, "XQ0501") {
		t.Errorf("node-valued return: exit = %d, output = %q; want no advisory", code, out)
	}
}

// A constructed node that is copied only because other references read
// its variable too shows as a note naming the variable; the same shape
// read once is adopted and says nothing.
func TestCopiedLetAdvisory(t *testing.T) {
	q := writeFile(t, "copied.xq", "let $row := <tr/> return (insert node $row into /t, count($row))")
	code, out := runLint(t, q)
	if code != 0 || !strings.Contains(out, `1:39: note XQ0502: the constructed value of $row is copied here: 2 references read the variable`) {
		t.Errorf("copied: exit = %d, output = %q", code, out)
	}
	// Advisory notes must not flip the exit status under -werror.
	if code, _ := runLint(t, "-werror", q); code != 0 {
		t.Errorf("note under -werror: exit = %d, want 0", code)
	}
	once := writeFile(t, "once.xq", "let $row := <tr/> return insert node $row into /t")
	if code, out := runLint(t, once); code != 0 || strings.Contains(out, "XQ0502") {
		t.Errorf("single reference: exit = %d, output = %q; want no advisory", code, out)
	}
}
