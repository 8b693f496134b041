package analysis

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Severity classifies a diagnostic. Errors describe programs that are
// statically known to fail (or be rejected) at runtime and block
// admission to the program cache under Strict mode; warnings describe
// suspicious-but-runnable constructs; notes are purely advisory
// findings (they never fail a lint run, not even under -werror).
type Severity int

// The severities. SevNote is ordered after SevError so the existing
// warning/error values (and their JSON forms) stay stable.
const (
	SevWarning Severity = iota
	SevError
	SevNote
)

// String returns "warning", "error" or "note".
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevNote:
		return "note"
	}
	return "warning"
}

// MarshalJSON encodes the severity as its string form, which is what
// xqlint's JSON output and any machine consumer wants to read.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the string form produced by MarshalJSON.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	switch str {
	case "error":
		*s = SevError
	case "note":
		*s = SevNote
	default:
		*s = SevWarning
	}
	return nil
}

// Diagnostic codes. The numbering is stable across releases: semantic
// checks are XQ00xx, update-placement checks XQ01xx, browser-policy
// checks XQ02xx, cost/budget checks XQ03xx, update-independence checks
// XQ04xx and plan advisories XQ05xx. XQ0000 is reserved for
// the parse error itself (xqlint reports syntax errors under it so one
// stream carries everything).
const (
	CodeParse            = "XQ0000" // syntax error (CLI-level)
	CodeUnboundVar       = "XQ0001" // reference to an unbound variable
	CodeUnknownFunc      = "XQ0002" // call to an unknown function
	CodeArity            = "XQ0003" // known function, wrong argument count
	CodeDuplicateLet     = "XQ0004" // duplicate binding in one FLWOR
	CodeUnusedVar        = "XQ0005" // variable bound but never referenced
	CodeConstCond        = "XQ0006" // if with a constant condition
	CodeAssignUndeclared = "XQ0007" // assignment to an undeclared variable

	CodeMisplacedUpdate = "XQ0101" // updating expression in a non-updating context
	CodeUpdateInPure    = "XQ0102" // updating expression in a function not declared updating

	CodeDocBlocked       = "XQ0201" // fn:doc under the browser profile
	CodePutBlocked       = "XQ0202" // fn:put under the browser profile
	CodeReadOnlyWindow   = "XQ0203" // write to a read-only window property
	CodeWindowUpdateKind = "XQ0204" // non-replace-value update on the window tree

	CodeCostBudget = "XQ0301" // estimated steps exceed the configured budget

	// Update-independence checks (XQ04xx): FLUX-style effect summaries
	// over straight-line updating sequences with statically stable
	// target paths (see effects.go). XQ0404 is retired and not reused.
	CodeDeadUpdate     = "XQ0401" // update confined to a subtree detached in the same snapshot
	CodeDeadDelete     = "XQ0402" // delete of a target already replaced/deleted in the same snapshot
	CodeUpdateConflict = "XQ0403" // guaranteed-conflicting updates on one target path

	// Plan advisories (XQ05xx): what the planner decided about an
	// expression, for the author to know. Notes.
	CodeShipped   = "XQ0501" // advisory: a per-document map over a collection, which can ship to its source
	CodeCopiedLet = "XQ0502" // advisory: a constructed node copied because other references read its variable too
)

// Diagnostic is one analyzer finding, tied to a source position.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity Severity `json:"severity"`
	// Line and Col are 1-based; 0 means the position is unknown.
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// String renders the conventional compiler format:
// "3:7: error XQ0001: unbound variable $x".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%d:%d: %s %s: %s", d.Line, d.Col, d.Severity, d.Code, d.Msg)
}

// sortDiags orders diagnostics by position, then code, then message,
// so output is deterministic regardless of pass order.
func sortDiags(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Msg < b.Msg
	})
}
