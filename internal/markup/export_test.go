package markup

// Hooks for the external test package, which can import internal/apps
// (apps imports markup, so the in-package tests cannot).
var (
	DiffParse     = diffParse
	DiffSerialize = diffSerialize
)
