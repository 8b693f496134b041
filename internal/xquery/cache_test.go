package xquery

import (
	"fmt"
	"sync"
	"testing"
)

func TestCacheProgramHit(t *testing.T) {
	e := New()
	c := NewCache(8)
	src := `for $i in 1 to 3 return $i * $i`

	p1, err := c.Compile(e, src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(e, src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("same engine + source must share the compiled program")
	}
	st := c.Stats()
	if st.Compiles != 1 || st.ProgramHits != 1 || st.Parses != 1 {
		t.Errorf("stats = %+v, want 1 compile / 1 hit / 1 parse", st)
	}

	res, err := p2.Run(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatSequence(res.Value, nil); got != "1 4 9" {
		t.Errorf("cached program result = %q", got)
	}
}

// TestCacheSharesProgramsAcrossEngines pins the keying contract: engines
// of one shape share the compilation and get a binding each; an engine
// of another shape compiles for itself and shares the parse only.
func TestCacheSharesProgramsAcrossEngines(t *testing.T) {
	c := NewCache(8)
	src := `1 + 1`
	e1, e2 := New(), New()
	if e1.Fingerprint() != e2.Fingerprint() {
		t.Fatal("engines built the same way must have the same fingerprint")
	}
	p1, err := c.Compile(e1, src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(e2, src)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 || p1.engine != e1 || p2.engine != e2 {
		t.Error("each engine must get a binding of its own")
	}
	if p1.shared != p2.shared {
		t.Error("engines of one shape must share the compilation")
	}
	if st := c.Stats(); st.Compiles != 1 || st.Parses != 1 || st.ProgramHits != 1 || st.ModuleHits != 0 {
		t.Errorf("stats = %+v, want 1 compile / 1 parse / 1 program hit / 0 module hits", st)
	}

	e3 := New(WithBrowserProfile())
	if e3.Fingerprint() == e1.Fingerprint() {
		t.Fatal("the browser profile is part of the fingerprint")
	}
	p3, err := c.Compile(e3, src)
	if err != nil {
		t.Fatal(err)
	}
	if p3.shared == p1.shared {
		t.Error("engines of different shapes must not share a compilation")
	}
	if st := c.Stats(); st.Compiles != 2 || st.Parses != 1 || st.ModuleHits != 1 {
		t.Errorf("stats = %+v, want 2 compiles / 1 parse / 1 module hit (parse shared)", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	e := New()
	c := NewCache(2)
	for i := 0; i < 3; i++ {
		if _, err := c.Compile(e, fmt.Sprintf("%d + 0", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Len(); got != 2 {
		t.Errorf("resident programs = %d, want capacity 2", got)
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Error("expected evictions past capacity")
	}
	// "0 + 0" was the least recently used: recompiling it is a miss.
	before := c.Stats().Compiles
	if _, err := c.Compile(e, "0 + 0"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Compiles; got != before+1 {
		t.Errorf("evicted entry must recompile: compiles %d -> %d", before, got)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	e := New()
	c := NewCache(8)
	for i := 0; i < 2; i++ {
		if _, err := c.Compile(e, "1 +"); err == nil {
			t.Fatal("syntax error must fail")
		}
	}
	if got := c.Len(); got != 0 {
		t.Errorf("failed compiles must not be cached, resident = %d", got)
	}
}

func TestCacheConcurrentSingleflight(t *testing.T) {
	e := New()
	c := NewCache(8)
	src := `for $i in 1 to 10 return $i`
	const workers = 32
	var wg sync.WaitGroup
	progs := make([]*Program, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Compile(e, src)
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for _, p := range progs[1:] {
		if p != progs[0] {
			t.Fatal("all workers must get the same compiled program")
		}
	}
	st := c.Stats()
	if st.Compiles != 1 || st.Parses != 1 {
		t.Errorf("singleflight must collapse to one compile/parse, got %+v", st)
	}
	if st.ProgramHits+st.Coalesced != workers-1 {
		t.Errorf("hits(%d) + coalesced(%d) must cover the other %d workers",
			st.ProgramHits, st.Coalesced, workers-1)
	}
}
