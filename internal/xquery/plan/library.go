package plan

// The built-in library as the static passes see it: one row per
// function they know something about, keyed by namespace and local
// name. A namespace in the table is the library's — a call in it is
// never a host's or an imported module's — and a function of it without
// a row is impure, not atomic and reads no focus: a built-in registered
// later is never silently moved, memoised or shipped. The drift test
// (library_test.go) holds every row to a funclib registration at an
// arity it accepts and names every registration that has none.
const (
	xsSpace   = "http://www.w3.org/2001/XMLSchema"
	ftSpace   = "http://www.example.com/fulltext"
	kwicSpace = "http://www.example.com/kwic"
)

// libFn is what the passes know of one built-in.
type libFn struct {
	// pure: free of side effects and stable under re-evaluation within
	// one FLWOR entry, so the optimizer may move, memoise or join-build a
	// call and the planner may ship one. A built-in that defaults an
	// argument to the context item qualifies: what the optimizer moves
	// stays inside a FLWOR whose iterations share the focus, and pushdown,
	// which re-focuses, refuses a conjunct that reads it (the focus
	// column). Off the list, notably: fn:doc-available (it answers
	// whether a resolver would), fn:put (writes), fn:trace (a side
	// channel), fn:error (raising must stay where the author put it),
	// fn:current-* (the clock), fn:position and fn:last (the focus beyond
	// the item), ft:score (the scores ftcontains records as it runs).
	pure bool
	// resolves: fn:doc and fn:collection. They read the run's resolvers,
	// which the run memoises per URI (runtime/memo.go): stable, so the
	// optimizer may move them like a pure call, but never shipped — a
	// source evaluating for a remote caller resolves against its own.
	resolves bool
	// atomic: the result is atomic whatever the arguments. Off it are
	// the pure functions that hand nodes through (root, id, reverse,
	// subsequence, head, tail, remove, insert-before, zero-or-one,
	// one-or-more, exactly-one) and node-name and base-uri, whose
	// xs:QName and document-relative xs:anyURI the wire would not give
	// back unchanged.
	atomic bool
	// focus: a call with fewer arguments defaults the omitted one to the
	// context item, so it reads the focus (0: never).
	focus int
	// writes: fn:put.
	writes bool
	// readsScores: ft:score, which reads the scores ftcontains records.
	readsScores bool
}

var (
	pure       = libFn{pure: true}
	pureAtomic = libFn{pure: true, atomic: true}
)

var library = map[string]map[string]libFn{
	fnSpace: {
		// strings
		"string": {pure: true, atomic: true, focus: 1}, "string-length": {pure: true, atomic: true, focus: 1},
		"length": {pure: true, atomic: true, focus: 1}, "normalize-space": {pure: true, atomic: true, focus: 1},
		"concat": pureAtomic, "string-join": pureAtomic, "substring": pureAtomic, "upper-case": pureAtomic,
		"lower-case": pureAtomic, "translate": pureAtomic, "contains": pureAtomic, "starts-with": pureAtomic,
		"ends-with": pureAtomic, "substring-before": pureAtomic, "substring-after": pureAtomic,
		"compare": pureAtomic, "encode-for-uri": pureAtomic, "codepoints-to-string": pureAtomic,
		"string-to-codepoints": pureAtomic,
		// regex
		"matches": pureAtomic, "replace": pureAtomic, "tokenize": pureAtomic,
		// numeric
		"number": {pure: true, atomic: true, focus: 1}, "abs": pureAtomic, "floor": pureAtomic,
		"ceiling": pureAtomic, "round": pureAtomic, "round-half-to-even": pureAtomic,
		// boolean
		"true": pureAtomic, "false": pureAtomic, "not": pureAtomic, "boolean": pureAtomic,
		// sequences
		"empty": pureAtomic, "exists": pureAtomic, "count": pureAtomic, "index-of": pureAtomic,
		"distinct-values": pureAtomic, "deep-equal": pureAtomic, "data": pureAtomic,
		"head": pure, "tail": pure, "reverse": pure, "insert-before": pure, "remove": pure,
		"subsequence": pure, "zero-or-one": pure, "one-or-more": pure, "exactly-one": pure,
		// aggregates
		"sum": pureAtomic, "avg": pureAtomic, "min": pureAtomic, "max": pureAtomic,
		// nodes (reads, not constructors)
		"name": {pure: true, atomic: true, focus: 1}, "local-name": {pure: true, atomic: true, focus: 1},
		"namespace-uri": {pure: true, atomic: true, focus: 1}, "root": {pure: true, focus: 1},
		"base-uri": {pure: true, focus: 1}, "id": {pure: true, focus: 2}, "node-name": pure,
		// date/time component accessors
		"year-from-dateTime": pure, "month-from-dateTime": pure, "day-from-dateTime": pure,
		"hours-from-dateTime": pure, "minutes-from-dateTime": pure, "seconds-from-dateTime": pure,
		"year-from-date": pure, "month-from-date": pure, "day-from-date": pure,
		"hours-from-time": pure, "minutes-from-time": pure, "seconds-from-time": pure,
		"years-from-duration": pure, "months-from-duration": pure, "days-from-duration": pure,
		"hours-from-duration": pure, "minutes-from-duration": pure, "seconds-from-duration": pure,
		// documents
		"doc": {resolves: true}, "collection": {resolves: true}, "put": {writes: true},
	},
	xsSpace:   {}, // the constructor functions: casts, none on the pure list yet
	ftSpace:   {"score": {readsScores: true}},
	kwicSpace: {},
}
