package markup

import "repro/internal/dom"

// Hooks for the external test package, which can import internal/apps
// (apps imports markup, so the in-package tests cannot).
var (
	DiffParse     = diffParse
	DiffSerialize = diffSerialize
	// ParserOfOwn returns an XML Parse with scratch of its own, not the
	// pool's.
	ParserOfOwn = func() func(string) (*dom.Node, error) {
		p := new(parser)
		return func(src string) (*dom.Node, error) { return p.parse(src, XML) }
	}
)

// Hooks for the constructed-tree fuzz target of the external test
// package, which can import internal/xquery (xquery imports markup).
var (
	OracleParse = oracleParse
	SameTree    = sameTree
	ExactLists  = exactLists
	MutateBoth  = mutateBoth
)
