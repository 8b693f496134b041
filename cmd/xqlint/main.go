// Command xqlint statically analyzes XQuery programs without running
// them: the compile-time counterpart of loading a page in XQIB.
//
//	xqlint query.xq                 # lint a standalone module
//	xqlint page.html                # lint <script type="text/xquery"> blocks
//	xqlint -json src/...            # machine-readable diagnostics
//	echo 'fn:put(<a/>, "x")' | xqlint
//
// Files ending in .xq or .xquery are parsed as whole modules; every
// other file is scanned for embedded XQuery script blocks (XHTML pages,
// templates, even Go sources holding pages in string literals), with
// diagnostic positions mapped back to page coordinates. The analyzer
// runs the browser profile by default — fn:doc and fn:put are rejected
// the way XQIB rejects them at runtime — because that is the
// environment shipped pages execute in; -server lifts it for
// server-side modules.
//
// Exit status: 0 clean, 1 if any error diagnostics were reported (or
// any warnings under -werror), 2 on usage or I/O failure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/browser"
	"repro/internal/xquery/analysis"
	"repro/internal/xquery/parser"
)

// fileDiag pairs a diagnostic with the file it was found in.
type fileDiag struct {
	File string `json:"file"`
	analysis.Diagnostic
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(argv []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xqlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	werror := fs.Bool("werror", false, "treat warnings as errors for the exit status")
	server := fs.Bool("server", false, "server profile: allow fn:doc/fn:put and skip window-write checks")
	maxSteps := fs.Int64("max-steps", 0, "warn when the estimated step count exceeds this budget (0: no check)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	cfg := analysis.Config{
		Registry:       browser.Functions(), // fn:/xs:/ft: and browser:
		BrowserProfile: !*server,
		MaxSteps:       *maxSteps,
	}

	var diags []fileDiag
	ioFailed := false
	if fs.NArg() == 0 {
		src, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintf(stderr, "xqlint: reading stdin: %v\n", err)
			return 2
		}
		diags = append(diags, lintModule("<stdin>", string(src), cfg)...)
	}
	for _, name := range fs.Args() {
		data, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintf(stderr, "xqlint: %v\n", err)
			ioFailed = true
			continue
		}
		diags = append(diags, lintFile(name, string(data), cfg)...)
	}

	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		return diags[i].Col < diags[j].Col
	})

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []fileDiag{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(stderr, "xqlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%s\n", d.File, d.Diagnostic)
		}
	}

	switch {
	case ioFailed:
		return 2
	case hasFailure(diags, *werror):
		return 1
	}
	return 0
}

// lintFile dispatches on file shape: .xq/.xquery files are whole
// modules, anything else is treated as a page to scan for embedded
// script blocks.
func lintFile(name, src string, cfg analysis.Config) []fileDiag {
	if ext := strings.ToLower(name); strings.HasSuffix(ext, ".xq") || strings.HasSuffix(ext, ".xquery") {
		return lintModule(name, src, cfg)
	}
	return lintPage(name, src, cfg)
}

// lintModule analyzes one standalone module. Syntax errors surface as
// an XQ0000 diagnostic so text and JSON consumers see a single stream.
func lintModule(name, src string, cfg analysis.Config) []fileDiag {
	m, err := parser.ParseModule(src)
	if err != nil {
		return []fileDiag{{File: name, Diagnostic: parseDiag(err)}}
	}
	var out []fileDiag
	for _, d := range analysis.Analyze(m, cfg).Diagnostics {
		out = append(out, fileDiag{File: name, Diagnostic: d})
	}
	return out
}

// lintPage extracts embedded XQuery scripts from page text and lints
// each, translating positions back to page coordinates.
func lintPage(name, src string, cfg analysis.Config) []fileDiag {
	var out []fileDiag
	for _, sc := range analysis.ExtractScripts(src) {
		for _, d := range lintModule(name, sc.Source, cfg) {
			d.Diagnostic = analysis.AdjustPos(d.Diagnostic, sc.Line, sc.Col)
			out = append(out, d)
		}
	}
	return out
}

// parseDiag converts a parser failure into the XQ0000 diagnostic.
func parseDiag(err error) analysis.Diagnostic {
	d := analysis.Diagnostic{Code: analysis.CodeParse, Severity: analysis.SevError, Msg: err.Error()}
	var pe *parser.Error
	if errors.As(err, &pe) {
		d.Line, d.Col, d.Msg = pe.Line, pe.Col, pe.Msg
	}
	return d
}

// hasFailure decides the exit status: errors always fail, warnings fail
// under -werror, and notes (advisory findings like XQ0502's copied
// let) never fail.
func hasFailure(diags []fileDiag, werror bool) bool {
	for _, d := range diags {
		switch d.Severity {
		case analysis.SevError:
			return true
		case analysis.SevWarning:
			if werror {
				return true
			}
		}
	}
	return false
}
