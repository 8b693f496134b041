package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/xquery"
)

// benchSrc is a heavy prolog the cache amortises plus a cheap body
// executed per request.
func benchSrc() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "declare function local:f%d($x) { $x + %d };\n", i, i)
	}
	b.WriteString("for $i in 1 to 5 return local:f0($i)")
	return b.String()
}

func BenchmarkEvalCompilePerRequest(b *testing.B) {
	e := xquery.New()
	src := benchSrc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.EvalQuery(src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCached(b *testing.B) {
	p := NewPool(Config{MaxSessions: 4})
	src := benchSrc()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Eval(ctx, src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCachedParallel(b *testing.B) {
	p := NewPool(Config{MaxSessions: 4})
	src := benchSrc()
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := p.Eval(ctx, src, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPageLoadDirect(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.LoadPage(counterPage, pageHref); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageLoadPooled(b *testing.B) {
	p := NewPool(Config{MaxSessions: 8})
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := p.Load(ctx, counterPage, pageHref)
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
