package xquery

import (
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
)

// TestUpdateDifferentialSerialParallel is the serial-oracle check for
// the parallel PUL apply: every corpus query runs twice — once with
// RunConfig.SerialUpdates (the PR 5 single-goroutine path) and once
// through the default partitioned apply — and the rendered results,
// applied-update counts, error presence and the post-run document must
// all be byte-identical. Run under -race this also exercises the
// partitioner's concurrency on real query-produced PULs.
func TestUpdateDifferentialSerialParallel(t *testing.T) {
	e := New()
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, src := range compileDifferentialCorpus {
		p, err := e.Compile(src)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		run := func(serial bool) (string, string, int, error) {
			doc, err := markup.Parse(libraryXML)
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run(RunConfig{
				ContextItem:   xdm.NewNode(doc),
				SerialUpdates: serial,
				MaxSteps:      500_000,
				Timeout:       5 * time.Second,
				Now:           now,
			})
			after := markup.Serialize(doc)
			if err != nil {
				return "", after, 0, err
			}
			return FormatSequence(res.Value, markup.AppendXML), after, res.Updates, nil
		}
		sRes, sDoc, sUpd, sErr := run(true)
		pRes, pDoc, pUpd, pErr := run(false)
		if (sErr == nil) != (pErr == nil) {
			t.Errorf("%q: serial err=%v, parallel err=%v", src, sErr, pErr)
			continue
		}
		if sDoc != pDoc {
			t.Errorf("%q: post-run documents diverge:\nserial:   %s\nparallel: %s", src, sDoc, pDoc)
		}
		if sErr != nil {
			continue
		}
		if sRes != pRes {
			t.Errorf("%q: serial result %q != parallel %q", src, sRes, pRes)
		}
		if sUpd != pUpd {
			t.Errorf("%q: serial applied %d updates, parallel %d", src, sUpd, pUpd)
		}
	}
}
