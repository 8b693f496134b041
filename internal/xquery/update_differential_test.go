package xquery

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery/update"
)

// TestUpdateDifferentialRunVsApply is the reference check for the
// apply path every run takes: each corpus query runs through
// Program.Run and once more with its pending list handed to
// update.PUL.Apply directly, and the rendered results, error presence
// and post-run document must be byte-identical, and the primitives
// reported to OnUpdate equal to the reference's, in its order. The
// reference evaluates through the walker, so Run is compared walked
// (the apply path alone differs) and in its default configuration.
func TestUpdateDifferentialRunVsApply(t *testing.T) {
	e := New()
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, src := range append(noOpUpdateQueries, compileDifferentialCorpus...) {
		opt, err := e.Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		oracle, err := compileOracle(t, e, src)
		if err != nil {
			t.Fatal(err)
		}
		type outcome struct {
			res, doc string
			applied  []string
			err      error
		}
		run := func(p *Program, reference bool) (o outcome) {
			doc, err := markup.Parse(libraryXML)
			if err != nil {
				t.Fatal(err)
			}
			cfg := RunConfig{
				ContextItem: xdm.NewNode(doc),
				MaxSteps:    500_000,
				Timeout:     5 * time.Second,
				Now:         now,
				OnUpdate: func(pr update.Primitive) {
					o.applied = append(o.applied, fmt.Sprintf("%s %s", pr.Kind, nodePath(pr.Target)))
				},
			}
			var val xdm.Sequence
			if reference {
				ctx := p.NewContext(cfg)
				if val, o.err = ctx.RunModule(); o.err == nil && ctx.PUL != nil {
					o.err = ctx.PUL.Apply(cfg.OnUpdate)
				}
			} else {
				var res *Result
				if res, o.err = p.Run(cfg); o.err == nil {
					val = res.Value
					if res.Updates != len(o.applied) {
						t.Errorf("%q: Result.Updates = %d, OnUpdate saw %d", src, res.Updates, len(o.applied))
					}
				}
			}
			o.doc = markup.Serialize(doc)
			if o.err == nil {
				o.res = FormatSequence(val, markup.AppendXML)
			}
			return o
		}
		ref := run(oracle, true)
		for _, p := range []*Program{oracle, opt} {
			got := run(p, false)
			if (ref.err == nil) != (got.err == nil) {
				t.Errorf("%q: Apply err=%v, Run err=%v", src, ref.err, got.err)
				continue
			}
			if ref.doc != got.doc {
				t.Errorf("%q: post-run documents diverge:\nApply: %s\nRun:   %s", src, ref.doc, got.doc)
			}
			if ref.err != nil {
				continue
			}
			if ref.res != got.res {
				t.Errorf("%q: Apply result %q != Run result %q", src, ref.res, got.res)
			}
			if !slices.Equal(ref.applied, got.applied) {
				t.Errorf("%q: Run applied %v, Apply applied %v", src, got.applied, ref.applied)
			}
		}
	}
}

// noOpUpdateQueries are lists with primitives that change nothing or
// land in a detached subtree: two no-op deletes (the delete of a
// replaced node and a duplicate delete); updates under a deleted book,
// which apply to the detached subtree like every other primitive, with
// and without a node in the result; the same next to a failing rename.
var noOpUpdateQueries = []string{
	`replace node (//book)[1] with <tome/>, delete node (//book)[1], delete node (//book)[2], delete node (//book)[2]`,
	`insert node <note/> into (//book)[1]/title, replace value of node (//book)[1]/@id with "x",
	 delete node (//book)[1], rename node (//book)[2] as "tome"`,
	`insert node <note/> into (//book)[1]/title, replace value of node (//book)[1]/@id with "x",
	 delete node (//book)[1], rename node (//book)[2] as "tome", (//book)[1]`,
	`insert node <note/> into (//book)[1]/title, rename node (//book)[1]/title/text() as "t",
	 delete node (//book)[1], rename node (//book)[2] as "tome"`,
}
