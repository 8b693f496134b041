package xquery

import (
	"testing"
	"time"

	"repro/internal/markup"
	"repro/internal/xdm"
)

// FuzzStreamingDifferential cross-checks the lazy iterator runtime
// against the eager evaluator: for any input that compiles and succeeds
// in both modes, the results must be identical. (When only one mode
// errors it must be the eager one — laziness may skip errors hidden
// past an early-exit point, never add new ones.) A step budget bounds
// runaway inputs so fuzzing stays fast.
func FuzzStreamingDifferential(f *testing.F) {
	seeds := []string{
		`(//book)[1]/@id/string()`,
		`//book[position() < 3]/title/string()`,
		`//author[1]`,
		`fn:exists(//book[price > 50])`,
		`some $b in //book satisfies $b/author = "Knuth"`,
		`every $b in //book satisfies fn:exists($b/title)`,
		`count(//book[last()])`,
		`for $b in //book order by $b/@id descending return $b/@year/string()`,
		`fn:head(fn:tail(//author))`,
		`fn:subsequence(1 to 20, 5, 3)`,
		`(1 to 50)[. mod 3 = 0][2]`,
		`string-join(//book/ancestor-or-self::*/name(), "/")`,
		`(//book, //author)[4]`,
		`//book["x"]`,
		`1 + "a"`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	doc, err := markup.Parse(libraryXML)
	if err != nil {
		f.Fatal(err)
	}
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	e := New()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		p, err := e.Compile(src)
		if err != nil {
			return
		}
		run := func(noStream bool) (string, error) {
			res, err := p.Run(RunConfig{
				ContextItem:      xdm.NewNode(doc),
				DisableStreaming: noStream,
				MaxSteps:         200_000,
				Timeout:          time.Second,
				Now:              now,
			})
			if err != nil {
				return "", err
			}
			return FormatSequence(res.Value, markup.AppendXML), nil
		}
		lazy, lerr := run(false)
		eager, eerr := run(true)
		if lerr != nil && eerr == nil {
			t.Fatalf("%q: streaming errored (%v) but eager succeeded (%q)", src, lerr, eager)
		}
		if lerr == nil && eerr == nil && lazy != eager {
			t.Fatalf("%q: streaming %q != eager %q", src, lazy, eager)
		}
	})
}
