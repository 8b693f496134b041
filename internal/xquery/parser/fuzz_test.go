package parser

import "testing"

// FuzzParseModule: the parser must return an error or an AST for any
// input — never panic, never hang. The seed corpus covers each grammar
// family; `go test -fuzz=FuzzParseModule ./internal/xquery/parser` digs
// deeper.
func FuzzParseModule(f *testing.F) {
	for _, s := range parseModuleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		_, _ = ParseModule(src) // must not panic
	})
}

// FuzzParsePathPredicates targets the grammar the streaming runtime
// rewrites and analyses: positional predicates, quantifiers and nested
// paths. The lazy evaluator inspects these AST shapes statically
// (position-free predicate detection, positional bounds, the //x
// rewrite), so the parser must produce well-formed trees — or errors —
// for every contortion of them.
func FuzzParsePathPredicates(f *testing.F) {
	for _, s := range pathPredicateSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			return
		}
		_, _ = ParseModule(src) // must not panic
	})
}

// parseModuleSeeds cover each grammar family.
var parseModuleSeeds = []string{
	``,
	`1 + 2 * 3`,
	`for $x at $i in (1,2) where $x order by $x return <a x="{$i}">{$x}</a>`,
	`declare function local:f($a as xs:integer) as xs:integer { $a };
	 local:f(1)`,
	`module namespace m = "urn:m" port:80; declare option fn:webservice "true";`,
	`insert node <x/> as first into //y`,
	`copy $a := //b modify rename node $a as "c" return $a`,
	`{ declare variable $x := 1; while ($x < 3) { set $x := $x + 1; }; $x; }`,
	`on event "click" at //input attach listener local:l`,
	`set style "color" of //div to "red"`,
	`. ftcontains ("dog" with stemming) ftand "cat" ftor ftnot "x"`,
	`typeswitch (.) case $e as element(a) return 1 default return 2`,
	`<a xmlns:p="urn:p" p:b="{1+1}"><!--c--><?pi d?><![CDATA[<&]]>{{}}</a>`,
	`"unterminated`,
	`<a><b></a>`,
	`some $x in (1 to 10) satisfies $x div 0`,
	`$x := 5`,
	`xquery version "1.0"; declare boundary-space strip; ()`,
	`-$a or - -$b and $c = $d to $e + $f * $g | $h intersect $i`,
	`1 = 2 = 3`,
	`$a cast as xs:integer? castable as xs:string treat as item()* instance of xs:boolean`,
	`$a instance of xs:integer+ $b`,
	`set style "color" of //div[position() = (1 to 2)] to "red"`,
	`set style "color" of local:f(1 to 2) to "red"`,
}

// pathPredicateSeeds contort predicates, quantifiers and nested paths.
var pathPredicateSeeds = []string{
	`(//div)[1]`,
	`//div[1]`,
	`//book[position() < 3]/title`,
	`//book[position() = last()]`,
	`//book[last() - 1]`,
	`(//a//b//c)[2]`,
	`//a[.//b[c/@id = "x"][2]]/d[1]`,
	`(1 to 100)[. mod 7 = 0][position() >= 2][2]`,
	`some $d in //div satisfies $d/@id = "d3"`,
	`every $x in //a[1]/b[2] satisfies some $y in $x/c satisfies $y < 3`,
	`fn:exists(//div[fn:empty(.//span)])`,
	`fn:head(fn:subsequence(//p, 2, 3))`,
	`/descendant-or-self::node()/child::div[1]`,
	`//*[self::a or self::b][1]`,
	`ancestor::*[1]/preceding-sibling::x[last()]`,
	`$v/(a | b)[position() ne 1]/..`,
	`(//a)[//b[//c[1]][1]][1]`,
	`//a[1][2][3]`,
	`//a[position()]`,
	`//a[(1, 2)]`,
	`(/)[1]`,
	`//a[`,
	`//[1]`,
	`some $x in satisfies 1`,
	`//a[position() < ]`,
}
