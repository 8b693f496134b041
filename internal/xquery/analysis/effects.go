// effects.go is xqlint's update-effect lint, after the FLUX-style
// analysis (Cheney; see PAPERS.md): it computes, per updating
// expression, a conservative target-path summary, and over each
// snapshot's straight-line updating sequence reports dead updates
// (XQ0401), no-op deletes (XQ0402) and guaranteed conflicts (XQ0403).
// Nothing but the lint reads the summaries.
//
// The pass is deliberately narrow so every finding is sound:
//
//   - Only straight-line comma-sequences are analyzed, snapshot by
//     snapshot. Block statements re-evaluate their paths after each
//     per-statement apply, so effects never cross statement boundaries.
//   - Only absolute child-axis name-test paths with no predicates and
//     no wildcards are summarised ("stable paths"): for those, textual
//     equality implies identical target node sets within one snapshot.
//
// The region of an effect bounds its writes: the target path for
// self-contained kinds (insert into, replace value, rename), the
// target's parent path for sibling-list kinds (insert before/after,
// delete, replace node).
package analysis

import (
	"strings"

	"repro/internal/xquery/ast"
)

// updEffect is one updating expression's conservative summary.
type updEffect struct {
	kind   string // display kind: "insert", "delete", "replace node", ...
	killer bool   // delete / replace node: detaches its target's subtree
	target string // canonical stable target path
	region string // canonical region path (parent for sibling-list kinds)
	at     ast.Pos
	dead   bool
}

// checkUpdateSnapshots runs the effect analysis over an evaluation
// unit: each statement of a Block is its own snapshot (scripting
// semantics apply the pending list after every statement), anything
// else is one snapshot.
func (c *checker) checkUpdateSnapshots(e ast.Expr) {
	if b, ok := e.(ast.Block); ok {
		for _, st := range b.Stmts {
			c.checkUpdateSequence(st)
		}
		return
	}
	c.checkUpdateSequence(e)
}

// checkUpdateSequence summarises one snapshot's straight-line updating
// sequence and reports the XQ04xx findings.
func (c *checker) checkUpdateSequence(e ast.Expr) {
	var effects []updEffect
	for _, item := range flattenSeq(e) {
		if eff, ok := summariseUpdate(item); ok {
			effects = append(effects, eff)
		}
	}
	if len(effects) < 2 {
		return
	}

	// XQ0402 — no-op deletes, which the apply runs and which change
	// nothing: a delete of a replace-node target finds it already
	// detached in phase 4; a duplicate delete finds it detached by the
	// first.
	replacedAt := map[string]bool{}
	for _, eff := range effects {
		if eff.kind == "replace node" {
			replacedAt[eff.target] = true
		}
	}
	deletedAt := map[string]bool{}
	for i := range effects {
		eff := &effects[i]
		if eff.kind != "delete" {
			continue
		}
		switch {
		case replacedAt[eff.target]:
			eff.dead = true
			c.report(CodeDeadDelete, SevWarning, eff.at,
				"dead delete: %s is already replaced in this snapshot", eff.target)
		case deletedAt[eff.target]:
			eff.dead = true
			c.report(CodeDeadDelete, SevWarning, eff.at,
				"dead delete: %s is already deleted in this snapshot", eff.target)
		default:
			deletedAt[eff.target] = true
		}
	}

	// XQ0401 — dead updates: a non-killer effect whose whole region lies
	// inside a subtree some surviving killer detaches only ever changes
	// nodes the snapshot throws away.
	for i := range effects {
		eff := &effects[i]
		if eff.killer || eff.dead {
			continue
		}
		for _, k := range effects {
			if k.killer && !k.dead && pathContains(k.target, eff.region) {
				eff.dead = true
				c.report(CodeDeadUpdate, SevWarning, eff.at,
					"dead update: %s targets a subtree detached by %s %s in the same snapshot",
					eff.kind, k.kind, k.target)
				break
			}
		}
	}

	// XQ0403 — guaranteed conflicts: the PUL compatibility rules refuse
	// a second rename, replace node or replace value of one target, so
	// two of a kind on one stable path fail every run that reaches them.
	seen := map[string]bool{}
	for _, eff := range effects {
		switch eff.kind {
		case "rename", "replace node", "replace value":
			key := eff.kind + "|" + eff.target
			if seen[key] {
				c.report(CodeUpdateConflict, SevError, eff.at,
					"conflicting updates: two %s operations target %s", eff.kind, eff.target)
			}
			seen[key] = true
		}
	}
}

// flattenSeq returns the straight-line items of a comma sequence,
// unwrapping nested sequences and ordered{} wrappers.
func flattenSeq(e ast.Expr) []ast.Expr {
	switch x := e.(type) {
	case ast.SeqExpr:
		var out []ast.Expr
		for _, it := range x.Items {
			out = append(out, flattenSeq(it)...)
		}
		return out
	case ast.Ordered:
		return flattenSeq(x.X)
	}
	return []ast.Expr{e}
}

// summariseUpdate builds the effect summary for one sequence item; ok
// reports whether the item is one of the four updating forms with a
// stable target path.
func summariseUpdate(e ast.Expr) (eff updEffect, ok bool) {
	var target ast.Expr
	switch x := e.(type) {
	case ast.Insert:
		target = x.Target
		eff.at = x.At
		switch x.Pos {
		case ast.Before, ast.After:
			eff.kind = "insert"
			// Sibling-list insert: writes land in the target's parent.
			path, pok := stablePath(target)
			if !pok {
				return eff, false
			}
			eff.target, eff.region = path, parentPath(path)
			return eff, true
		default:
			eff.kind = "insert"
		}
	case ast.Delete:
		target = x.Target
		eff.at = x.At
		eff.kind = "delete"
		eff.killer = true
	case ast.Replace:
		target = x.Target
		eff.at = x.At
		if x.ValueOf {
			eff.kind = "replace value"
		} else {
			eff.kind = "replace node"
			eff.killer = true
		}
	case ast.Rename:
		target = x.Target
		eff.at = x.At
		eff.kind = "rename"
	default:
		return eff, false
	}
	path, pok := stablePath(target)
	if !pok {
		return eff, false
	}
	eff.target = path
	if eff.killer {
		eff.region = parentPath(path)
	} else {
		eff.region = path
	}
	return eff, true
}

// stablePath canonicalises a target expression when it is an absolute
// child-axis name-test path with no predicates, filters or wildcards —
// the shape for which textual equality implies identical target nodes
// within one snapshot.
func stablePath(e ast.Expr) (string, bool) {
	p, ok := e.(ast.Path)
	if !ok || !p.Absolute || len(p.Steps) == 0 {
		return "", false
	}
	var b strings.Builder
	for _, s := range p.Steps {
		if s.Primary != nil || len(s.Preds) > 0 || s.Axis != ast.AxisChild {
			return "", false
		}
		t := s.Test
		if !t.IsName || t.AnySpace || t.Name.Local == "*" {
			return "", false
		}
		b.WriteByte('/')
		if t.Name.Space != "" {
			b.WriteString(t.Name.Space)
			b.WriteByte('#')
		}
		b.WriteString(t.Name.Local)
	}
	return b.String(), true
}

// parentPath strips the last segment; the document root ("/") contains
// every absolute path.
func parentPath(path string) string {
	if i := strings.LastIndexByte(path, '/'); i > 0 {
		return path[:i]
	}
	return "/"
}

// pathContains reports whether ancestor is an ancestor-or-self of path
// in the stable-path encoding.
func pathContains(ancestor, path string) bool {
	if ancestor == "/" {
		return true
	}
	return path == ancestor || strings.HasPrefix(path, ancestor+"/")
}
