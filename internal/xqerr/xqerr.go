// Package xqerr is the unified failure taxonomy of the serving
// runtime. Every failure mode the resilience layer handles flows
// through a sentinel defined here or re-exported by a layer above:
//
//   - ErrInternal — a panic recovered at an evaluation boundary. The
//     concrete error is an *Internal carrying the panic value, the
//     stack at recovery and a stable stack fingerprint, so one poisoned
//     query is diagnosable (and quarantinable) without ever killing the
//     process.
//   - ErrMisconfigured — an invalid registration or configuration
//     detected at construction time (e.g. a streaming attachment whose
//     base function is missing). Construction never panics; the error
//     surfaces on first use.
//
// Panic recovery is centralised: the only sanctioned way to recover a
// panic outside this package, internal/faultpoint and the parser's own
// recoverTo is `defer xqerr.RecoverInto(&err, "boundary")` — a custom
// vet pass (tools/analyzers -check recovercheck) enforces it. That
// keeps every recovery counted, fingerprinted and visible in
// serve.Metrics.
package xqerr

import (
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"strings"
	"sync/atomic"
)

// ErrInternal matches (via errors.Is) every *Internal: a panic
// recovered at an evaluation boundary.
var ErrInternal = errors.New("xqerr: internal error (recovered panic)")

// ErrMisconfigured matches registration failures, such as a function
// registered on a frozen registry layer.
var ErrMisconfigured = errors.New("xqerr: invalid configuration")

// recovered counts panics recovered through this package since process
// start (surfaced in serve.Metrics.Failures.PanicsRecovered).
var recovered atomic.Int64

// Recovered returns the process-wide count of recovered panics.
func Recovered() int64 { return recovered.Load() }

// Internal is a panic recovered into an error at an evaluation
// boundary.
type Internal struct {
	// Boundary names the recovery site ("serve.Session.Do",
	// "xquery.Run", ...).
	Boundary string
	// Value is the value the panic carried.
	Value any
	// Fingerprint is a stable hash of the panicking call stack's
	// function names: two panics from the same site share it, so
	// repeated crashes of one program are groupable (the cache's
	// quarantine counts on the program key instead, but logs and
	// dashboards group on this).
	Fingerprint string
	// Stack is the full goroutine stack captured at recovery.
	Stack []byte
}

// Error renders the boundary, fingerprint and panic value.
func (e *Internal) Error() string {
	return fmt.Sprintf("xqerr: recovered panic at %s [%s]: %v", e.Boundary, e.Fingerprint, e.Value)
}

// Unwrap makes errors.Is(err, ErrInternal) true.
func (e *Internal) Unwrap() error { return ErrInternal }

// New builds an *Internal from a recovered panic value, capturing the
// current stack. It also bumps the process-wide recovery counter, so
// callers must only use it on a real recovered panic.
func New(boundary string, v any) *Internal {
	recovered.Add(1)
	stack := debug.Stack()
	return &Internal{
		Boundary:    boundary,
		Value:       v,
		Fingerprint: fingerprint(stack),
		Stack:       stack,
	}
}

// RecoverInto recovers an in-flight panic into *errp as an *Internal.
// It must be invoked directly by defer at the boundary:
//
//	func (s *Session) Do(...) (err error) {
//	    defer xqerr.RecoverInto(&err, "serve.Session.Do")
//	    ...
//
// When no panic is in flight it leaves *errp untouched, so it composes
// with normal error returns.
func RecoverInto(errp *error, boundary string) {
	if r := recover(); r != nil {
		*errp = New(boundary, r)
	}
}

// fingerprint hashes the function-name lines of a debug.Stack capture,
// skipping addresses, file positions and the goroutine header, so the
// value is stable across runs and ASLR. At most 16 frames contribute:
// deep recursion still fingerprints by its top.
func fingerprint(stack []byte) string {
	h := fnv.New64a()
	frames := 0
	for _, line := range strings.Split(string(stack), "\n") {
		if frames >= 16 {
			break
		}
		// Frame pairs are "pkg.Func(args)" then "\tfile:line +0x..";
		// only the unindented function lines are stable.
		if line == "" || strings.HasPrefix(line, "\t") || strings.HasPrefix(line, "goroutine ") {
			continue
		}
		// Strip the argument/offset tail so values don't perturb it.
		if i := strings.IndexByte(line, '('); i > 0 {
			line = line[:i]
		}
		// The recovery plumbing itself is on every stack; skip it.
		if strings.HasSuffix(line, "xqerr.New") ||
			strings.HasSuffix(line, "xqerr.RecoverInto") ||
			strings.HasSuffix(line, "xqerr.fingerprint") ||
			strings.Contains(line, "runtime/debug.Stack") ||
			strings.Contains(line, "runtime.gopanic") {
			continue
		}
		h.Write([]byte(line))
		h.Write([]byte{0})
		frames++
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
