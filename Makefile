# Tier-1 gate: everything `make ci` runs must stay green.

GO ?= go

# Pinned external tool versions. Both run through `go run pkg@version`
# so no go.mod dependency is added; when the module proxy is
# unreachable (offline/sandboxed builds) the targets skip with a notice
# instead of failing, keeping `make ci` green without network.
STATICCHECK = honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK = golang.org/x/vuln/cmd/govulncheck@v1.1.3

.PHONY: ci fmt-check vet vet-invariants lint staticcheck govulncheck \
	build test race bench bench-e2e-smoke fuzz-smoke chaos experiments clean-tree

ci: fmt-check vet vet-invariants build race chaos lint bench-e2e-smoke fuzz-smoke staticcheck govulncheck clean-tree

# Custom invariant passes (tools/analyzers): compiled programs, the
# compilation engines of one shape share and the function registry
# layers are immutable after construction (a registry is written by
# Register and Freeze only), serve/rest never store a
# context.Context in a struct, the two per-document index packages
# read their index fields behind the version stamp only, each names
# only its own dom index slot, dom's index slots are touched by
# its lifecycle file and RestoreVersion only, and dom's id map by its
# builder, lookup and maintenance methods only (one pass, keyed by
# package path), the planner and the
# optimizer never mutate shared AST nodes (rewrites must copy), the
# store's raw shard state is only
# touched by shard.go's lock-upholding methods, DOM mutation in the
# query/serving layers only happens through the pending-update list,
# which only the evaluator and the list's own package apply (core and
# apps, which own DOM trees, are scanned for that rule only),
# no function of internal/ rebuilds a replacer or a regexp from
# constant arguments on every call, and no loop in internal/ or cmd/
# (cmd/bench, a module of its own, is not listed) sleeps while it
# waits for a state change, and in the evaluator a variable frame's
# value is written by its binders and the assignment statement only,
# the budget's owner-local lease is touched by budget.go only, the
# run's doc/collection resolvers are called by its memo (memo.go) only,
# in the evaluator and in the library (funclib), and a run's fields are
# written only where a run is made or derived (NewContext, Derive), in
# those two and in the engine (xquery) and the browser host (core), and
# neither the evaluator nor the library writes into a sequence it was
# handed (an evaluation's value, a binding, a literal, an argument).
# Stdlib-only stand-ins for the `go vet -vettool` analyzers, which
# would need golang.org/x/tools.
vet-invariants:
	$(GO) run ./tools/analyzers -check progmutate internal/xquery internal/xquery/runtime
	$(GO) run ./tools/analyzers -check ctxstruct internal/serve internal/rest internal/fed
	$(GO) run ./tools/analyzers -check idxversion internal/dom internal/dom/index internal/fulltext/index internal/xquery/runtime internal/xquery/funclib internal/xmldb internal/serve
	$(GO) run ./tools/analyzers -check planpure internal/xquery/plan internal/xquery/ast
	$(GO) run ./tools/analyzers -check storesync internal/xmldb
	$(GO) run ./tools/analyzers -check pulapply internal/serve internal/rest internal/fed \
		internal/fulltext internal/xmldb internal/dom/index internal/xdm \
		internal/core internal/apps \
		internal/xquery internal/xquery/plan \
		internal/xquery/analysis internal/xquery/funclib internal/xquery/parser \
		internal/xquery/ast internal/xquery/lexer
	$(GO) run ./tools/analyzers -check recovercheck $(shell $(GO) list -f '{{.Dir}}' ./...)
	$(GO) run ./tools/analyzers -check hotconst $(shell $(GO) list -f '{{.Dir}}' ./internal/...)
	$(GO) run ./tools/analyzers -check sleeppoll $(shell $(GO) list -f '{{.Dir}}' ./internal/... ./cmd/...)
	$(GO) run ./tools/analyzers -check frames internal/xquery/runtime internal/xquery/funclib internal/xquery internal/core
	$(GO) run ./tools/analyzers -check seqwrite internal/xquery/runtime internal/xquery/funclib

# Static analysis of the shipped example programs: every embedded
# XQuery script block must lint clean, warnings included.
lint:
	$(GO) run ./cmd/xqlint -werror $(wildcard examples/*/*.go)

staticcheck:
	@if $(GO) run $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(STATICCHECK) ./...; \
	else echo "staticcheck: $(STATICCHECK) unavailable (offline); skipped"; fi

govulncheck:
	@if $(GO) run $(GOVULNCHECK) -version >/dev/null 2>&1; then \
		$(GO) run $(GOVULNCHECK) ./...; \
	else echo "govulncheck: $(GOVULNCHECK) unavailable (offline); skipped"; fi

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# cmd/bench is a module of its own that `./...` does not reach: vet it
# too, so an API change that breaks the benchmark harness fails here in
# seconds instead of in bench-e2e-smoke.
vet:
	$(GO) vet ./...
	cd cmd/bench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection suite: drives the faultpoint matrix (dispatch panics,
# mid-apply update faults, resolver failures, index-build faults, load
# shedding, torn store commits and aborted store recoveries, plus the
# federation matrix: flaky/torn/hung backends, injected fed.call /
# fed.merge faults, suppressed hedges and caller cancellation)
# race-enabled and checks the pool stays serviceable with atomic
# documents, the store recovers byte-identical state, federated queries
# return byte-identical results or typed errors without goroutine
# leaks, and the failure counters advance.
chaos:
	$(GO) test -race -count=1 ./internal/faultpoint
	$(GO) test -race -count=1 -run 'Chaos|Rollback|Fault|Restore' \
		./internal/serve ./internal/xquery/update ./internal/dom/index \
		./internal/xmldb ./internal/fed ./internal/rest

# Every micro-benchmark in the module (the ratio pairs live next to the
# code they measure; their identity and counter gates are ordinary
# tests and run with `test`/`race`).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

# The repository's benchmark (cmd/bench, BENCHMARK.json) is a Go module
# of its own, so `go build ./...` and `go test ./...` at the root never
# compile it: an API change in markup, rest or dom could break it
# unseen. Build it, run every workload for a second with its output
# checks on, and run its unit tests. Seed 7004 draws a render of the
# multiplication page before its first Generate, whose empty
# <div id="out"> must serialize with an end tag.
bench-e2e-smoke:
	bash cmd/bench/run.sh -smoke
	bash cmd/bench/run.sh --workload event_loop --seed 7004 --seconds 1
	cd cmd/bench && $(GO) test ./...

# Ten seconds of coverage-guided fuzzing on each fuzz target below,
# beyond the seed corpora `test` replays: the parser must return an
# AST or an error for any input and resolve every variable name to the
# binding a lexical scope walk finds for it, and a random path streamed by the
# evaluator must answer what the per-step reference answers, and the
# wire envelope reader must accept nothing the DOM decoder it replaced
# would refuse or read differently, the markup parser and writer must
# read and write whatever either accepts as their node-by-node oracles
# do, and a tree the markup parser recorded or Clone copied must take
# any sequence of mutations as a tree built node by node does, and so
# must a tree an XQuery constructor recorded and built, which must also
# serialize as the same constructor's tree with every node copied, and
# a pending update list applied after a faulted, rolled-back attempt
# must leave the documents and report the primitives as a fault-free
# apply of the same list does. A crasher is written under the package's testdata/fuzz and fails the
# step.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseModule$$' -fuzztime 10s -parallel 2 ./internal/xquery/parser
	$(GO) test -run '^$$' -fuzz '^FuzzParsePathPredicates$$' -fuzztime 10s -parallel 2 ./internal/xquery/parser
	$(GO) test -run '^$$' -fuzz '^FuzzBindingsMatchScopes$$' -fuzztime 10s -parallel 2 ./internal/xquery/parser
	$(GO) test -run '^$$' -fuzz '^FuzzPathStreamsLikePerStep$$' -fuzztime 10s -parallel 2 ./internal/xquery/runtime
	$(GO) test -run '^$$' -fuzz '^FuzzCompileDifferential$$' -fuzztime 10s -parallel 2 ./internal/xquery
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSequence$$' -fuzztime 10s -parallel 2 ./internal/rest
	$(GO) test -run '^$$' -fuzz '^FuzzSerializeDifferential$$' -fuzztime 10s -parallel 2 ./internal/markup
	$(GO) test -run '^$$' -fuzz '^FuzzParseThenMutate$$' -fuzztime 10s -parallel 2 ./internal/markup
	$(GO) test -run '^$$' -fuzz '^FuzzConstructThenMutate$$' -fuzztime 10s -parallel 2 ./internal/markup
	$(GO) test -run '^$$' -fuzz '^FuzzPULPartition$$' -fuzztime 10s -parallel 2 ./internal/xquery/update

experiments:
	$(GO) run ./cmd/experiments

# Last step of ci: the gates above must leave the checkout as they found
# it — no tracked file rewritten by a test, a benchmark or a generator.
# Compared against the tracked files' state when make started, so
# uncommitted work of your own does not trip it.
TREE_BEFORE := $(shell git diff HEAD 2>/dev/null | cksum)
clean-tree:
	@if [ "$$(git diff HEAD 2>/dev/null | cksum)" != "$(TREE_BEFORE)" ]; then \
		echo "ci modified tracked files:"; git status --porcelain --untracked-files=no; exit 1; fi
