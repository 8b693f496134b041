// Package fulltext implements the ftcontains subset the paper uses
// (§3.1): word and phrase matching over tokenized text with optional
// Porter stemming and case sensitivity, combined with ftand/ftor/ftnot.
package fulltext

import (
	"regexp"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Options control token matching.
type Options struct {
	Stemming      bool
	CaseSensitive bool
	// Wildcards enables the W3C-style wildcard constructs inside query
	// words: "." (any character), ".?", ".*", ".+" and ".{n,m}". A
	// query word containing a wildcard is matched as a pattern against
	// whole tokens; stemming never applies to wildcard words.
	Wildcards bool
}

// Span is a token's byte range in the text it was tokenized from.
type Span struct {
	Start, End int
}

// scanTokens runs the tokenizer over text, calling emit with the byte
// range of each token: maximal runs of letters and digits (apostrophes
// inside words are kept, matching common tokenizer behaviour for
// "don't"). It iterates the string in place — no []rune copy — so
// tokenizing is allocation-free up to the caller's output slice, and
// every token is a contiguous substring text[start:end].
func scanTokens(text string, emit func(start, end int)) {
	start := -1
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if r == '\'' && start >= 0 {
			// An apostrophe stays inside a token only when a letter
			// follows (the '\'' rune is one byte, so i+1 is the next
			// rune's start).
			if nr, sz := utf8.DecodeRuneInString(text[i+1:]); sz > 0 && unicode.IsLetter(nr) {
				continue
			}
		}
		if start >= 0 {
			emit(start, i)
			start = -1
		}
	}
	if start >= 0 {
		emit(start, len(text))
	}
}

// tokensIn is how many tokens the tokenizers make room for up front: a
// token of prose and the separator behind it take five to six bytes,
// so a quarter of the text's length holds them with room to spare and
// the output is allocated once instead of doubled into place (seven
// times for an abstract of forty words). Text of shorter tokens still
// grows, and still comes out right.
func tokensIn(text string) int { return len(text)/4 + 1 }

// Tokenize splits text into word tokens. Each token is a substring of
// text (zero-copy); only the slice header array is allocated.
func Tokenize(text string) []string {
	tokens := make([]string, 0, tokensIn(text))
	scanTokens(text, func(s, e int) { tokens = append(tokens, text[s:e]) })
	return tokens
}

// TokenizeSpans is Tokenize returning byte ranges instead of
// substrings — the form the full-text index builder consumes.
func TokenizeSpans(text string) []Span {
	spans := make([]Span, 0, tokensIn(text))
	scanTokens(text, func(s, e int) { spans = append(spans, Span{Start: s, End: e}) })
	return spans
}

// normalize folds a token per the options.
func normalize(tok string, o Options) string {
	if !o.CaseSensitive {
		tok = strings.ToLower(tok)
	}
	if o.Stemming {
		tok = Stem(strings.ToLower(tok))
	}
	return tok
}

// Normalize folds a token per the options: lower-cased unless
// case-sensitive, then Porter-stemmed (of the lower-cased form) when
// stemming is on. Exported for the full-text index, whose posting keys
// must agree exactly with scan-side matching.
func Normalize(tok string, o Options) string { return normalize(tok, o) }

// HasWildcard reports whether a query word contains a wildcard
// construct (only meaningful when Options.Wildcards is set).
func HasWildcard(w string) bool { return strings.ContainsRune(w, '.') }

// wildcardCache memoises compiled wildcard patterns; scans re-match
// the same query words against every candidate node.
var wildcardCache sync.Map // string (regexp source) → *regexp.Regexp

// WildcardRegexp compiles a wildcard query word into an anchored
// regexp over whole tokens. The wildcard constructs — "." plus an
// optional "?", "*", "+" or "{n,m}" quantifier — map one-to-one onto
// regexp syntax; everything else matches literally. A brace group that
// is not a valid {n,m} quantifier is taken literally, so compilation
// cannot fail.
func WildcardRegexp(w string) *regexp.Regexp {
	var b strings.Builder
	b.WriteString(`\A(?:`)
	for i := 0; i < len(w); {
		r, sz := utf8.DecodeRuneInString(w[i:])
		if r != '.' {
			b.WriteString(regexp.QuoteMeta(w[i : i+sz]))
			i += sz
			continue
		}
		b.WriteByte('.')
		i++
		if i < len(w) {
			switch w[i] {
			case '?', '*', '+':
				b.WriteByte(w[i])
				i++
			case '{':
				if j := strings.IndexByte(w[i:], '}'); j >= 0 && validRepeat(w[i:i+j+1]) {
					b.WriteString(w[i : i+j+1])
					i += j + 1
				}
			}
		}
	}
	b.WriteString(`)\z`)
	src := b.String()
	if re, ok := wildcardCache.Load(src); ok {
		return re.(*regexp.Regexp)
	}
	re := regexp.MustCompile(src)
	wildcardCache.Store(src, re)
	return re
}

// QueryWords splits a query phrase into its match words. Without
// wildcards this is the document tokenizer; with wildcards enabled,
// the wildcard constructs — "." plus an optional "?", "*", "+" or
// "{n,m}" quantifier — count as word characters, so "fish.* reef"
// yields the pattern word "fish.*" instead of losing the construct to
// the tokenizer's separator rules. Document tokens never contain
// wildcard characters (Tokenize drops them), so only query phrases
// are ever split here.
func QueryWords(phrase string, o Options) []string {
	if !o.Wildcards || !strings.ContainsRune(phrase, '.') {
		return Tokenize(phrase)
	}
	var words []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			words = append(words, b.String())
			b.Reset()
		}
	}
	for i := 0; i < len(phrase); {
		r, sz := utf8.DecodeRuneInString(phrase[i:])
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteString(phrase[i : i+sz])
			i += sz
		case r == '\'' && b.Len() > 0:
			// Same apostrophe rule as scanTokens: it stays inside a
			// word only when a letter follows.
			if nr, nsz := utf8.DecodeRuneInString(phrase[i+1:]); nsz > 0 && unicode.IsLetter(nr) {
				b.WriteByte('\'')
				i++
				continue
			}
			flush()
			i++
		case r == '.':
			b.WriteByte('.')
			i++
			if i < len(phrase) {
				switch phrase[i] {
				case '?', '*', '+':
					b.WriteByte(phrase[i])
					i++
				case '{':
					if j := strings.IndexByte(phrase[i:], '}'); j >= 0 && validRepeat(phrase[i:i+j+1]) {
						b.WriteString(phrase[i : i+j+1])
						i += j + 1
					}
				}
			}
		default:
			flush()
			i += sz
		}
	}
	flush()
	return words
}

// validRepeat reports whether s is a {n}, {n,} or {n,m} repeat.
func validRepeat(s string) bool {
	body := strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	n, m, comma := strings.Cut(body, ",")
	if n == "" || !allDigits(n) {
		return false
	}
	return !comma || m == "" || allDigits(m)
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// WordMatcher returns the predicate one query word denotes under the
// options: a wildcard pattern match over whole tokens (case folded by
// lower-casing both sides unless case-sensitive) or normalized
// equality. Both the scan path and the index's verification path build
// matchers here, which is what keeps them byte-identical.
func WordMatcher(w string, o Options) func(tok string) bool {
	if o.Wildcards && HasWildcard(w) {
		pat := w
		if !o.CaseSensitive {
			pat = strings.ToLower(pat)
		}
		re := WildcardRegexp(pat)
		return func(tok string) bool {
			if !o.CaseSensitive {
				tok = strings.ToLower(tok)
			}
			return re.MatchString(tok)
		}
	}
	want := normalize(w, o)
	return func(tok string) bool { return normalize(tok, o) == want }
}

// ContainsPhrase reports whether the token sequence contains the phrase
// (consecutive match) under the given options.
func ContainsPhrase(tokens []string, phrase string, o Options) bool {
	want := QueryWords(phrase, o)
	if len(want) == 0 {
		return false
	}
	preds := make([]func(string) bool, len(want))
	for i, w := range want {
		preds[i] = WordMatcher(w, o)
	}
	for i := 0; i+len(preds) <= len(tokens); i++ {
		ok := true
		for j, p := range preds {
			if !p(tokens[i+j]) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// ContainsAnyWord reports whether any single word of phrase occurs.
func ContainsAnyWord(tokens []string, phrase string, o Options) bool {
	for _, w := range QueryWords(phrase, o) {
		if ContainsPhrase(tokens, w, o) {
			return true
		}
	}
	return false
}

// ContainsAllWords reports whether every word of phrase occurs
// (anywhere, not necessarily consecutive).
func ContainsAllWords(tokens []string, phrase string, o Options) bool {
	words := QueryWords(phrase, o)
	if len(words) == 0 {
		return false
	}
	for _, w := range words {
		if !ContainsPhrase(tokens, w, o) {
			return false
		}
	}
	return true
}

// Stem applies the Porter stemming algorithm (1980) to a lower-case
// word. The implementation follows the original five-step description.
func Stem(w string) string {
	if len(w) <= 2 {
		return w
	}
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5(w)
	return w
}

// isCons reports whether w[i] is a consonant in Porter's sense.
func isCons(w string, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	default:
		return true
	}
}

// measure computes Porter's m: the number of VC sequences in the stem.
func measure(w string) int {
	m := 0
	i := 0
	n := len(w)
	for i < n && isCons(w, i) {
		i++
	}
	for i < n {
		for i < n && !isCons(w, i) {
			i++
		}
		if i >= n {
			break
		}
		m++
		for i < n && isCons(w, i) {
			i++
		}
	}
	return m
}

func hasVowel(w string) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

func endsDoubleCons(w string) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// cvc reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x or y.
func cvc(w string) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	switch w[n-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func replaceSuffix(w, suf, rep string, minM int) (string, bool) {
	if !strings.HasSuffix(w, suf) {
		return w, false
	}
	stem := w[:len(w)-len(suf)]
	if measure(stem) < minM {
		return w, true // suffix matched but condition failed: stop
	}
	return stem + rep, true
}

func step1a(w string) string {
	switch {
	case strings.HasSuffix(w, "sses"):
		return w[:len(w)-2]
	case strings.HasSuffix(w, "ies"):
		return w[:len(w)-2]
	case strings.HasSuffix(w, "ss"):
		return w
	case strings.HasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w string) string {
	if strings.HasSuffix(w, "eed") {
		if measure(w[:len(w)-3]) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem string
	switch {
	case strings.HasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case strings.HasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case strings.HasSuffix(stem, "at"), strings.HasSuffix(stem, "bl"), strings.HasSuffix(stem, "iz"):
		return stem + "e"
	case endsDoubleCons(stem) && !strings.HasSuffix(stem, "l") &&
		!strings.HasSuffix(stem, "s") && !strings.HasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case measure(stem) == 1 && cvc(stem):
		return stem + "e"
	}
	return stem
}

func step1c(w string) string {
	if strings.HasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		return w[:len(w)-1] + "i"
	}
	return w
}

var step2Rules = []struct{ suf, rep string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w string) string {
	for _, r := range step2Rules {
		if out, matched := replaceSuffix(w, r.suf, r.rep, 1); matched {
			return out
		}
	}
	return w
}

var step3Rules = []struct{ suf, rep string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w string) string {
	for _, r := range step3Rules {
		if out, matched := replaceSuffix(w, r.suf, r.rep, 1); matched {
			return out
		}
	}
	return w
}

var step4Sufs = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w string) string {
	for _, suf := range step4Sufs {
		if !strings.HasSuffix(w, suf) {
			continue
		}
		stem := w[:len(w)-len(suf)]
		if measure(stem) <= 1 {
			return w
		}
		if suf == "ion" && !strings.HasSuffix(stem, "s") && !strings.HasSuffix(stem, "t") {
			return w
		}
		return stem
	}
	return w
}

func step5(w string) string {
	// 5a
	if strings.HasSuffix(w, "e") {
		stem := w[:len(w)-1]
		m := measure(stem)
		if m > 1 || (m == 1 && !cvc(stem)) {
			w = stem
		}
	}
	// 5b
	if strings.HasSuffix(w, "ll") && measure(w) > 1 {
		w = w[:len(w)-1]
	}
	return w
}
