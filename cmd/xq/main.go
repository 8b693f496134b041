// Command xq runs XQuery programs from the command line (a mini-Zorba):
//
//	xq -q 'for $i in 1 to 3 return $i * $i'
//	xq -f query.xq -ctx data.xml
//	echo '1+1' | xq
//
// Documents referenced with fn:doc(uri) resolve against the filesystem;
// with -fed, fn:collection scatter-gathers over federated shard
// backends (and -profile shows, as fed:shipped, how many expressions
// went to the shards instead of the documents coming here):
//
//	xq -fed 'http://a|http://a2,http://b' -profile \
//	   -q 'count(collection("/db/articles/j3")//ref[@year = "1990"])'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/dom"
	"repro/internal/fed"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
)

func main() {
	query := flag.String("q", "", "query text")
	file := flag.String("f", "", "read the query from a file")
	ctxFile := flag.String("ctx", "", "XML file bound as the context item")
	indent := flag.Bool("indent", false, "pretty-print node results")
	profile := flag.Bool("profile", false, "print per-expression profiling statistics")
	fedSpec := flag.String("fed", "", `federated shard backends for fn:collection: comma-separated shard groups, "|"-separated replicas within a group (e.g. "http://a|http://a2,http://b")`)
	var vars varFlags
	flag.Var(&vars, "var", "bind an external variable, name=value (repeatable)")
	flag.Parse()

	src, err := querySource(*query, *file)
	if err != nil {
		fatal(err)
	}

	var ctxItem xdm.Item
	if *ctxFile != "" {
		data, err := os.ReadFile(*ctxFile)
		if err != nil {
			fatal(err)
		}
		doc, err := markup.Parse(string(data))
		if err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *ctxFile, err))
		}
		doc.SetBaseURI(*ctxFile)
		ctxItem = xdm.NewNode(doc)
	}

	engine := xquery.New()
	prog, err := engine.Compile(src)
	if err != nil {
		fatal(err)
	}
	cfg := xquery.RunConfig{
		ContextItem: ctxItem,
		Docs:        fileResolver,
		Variables:   vars.bindings(),
	}
	if *fedSpec != "" {
		x, err := fed.New(fed.Config{Shards: fed.ParseShards(*fedSpec)})
		if err != nil {
			fatal(err)
		}
		cfg.Collections = x.CollectionSource(context.Background())
	}
	if *profile {
		cfg.Profiler = runtime.NewProfiler()
	}
	res, err := prog.Run(cfg)
	if err != nil {
		fatal(err)
	}
	if cfg.Profiler != nil {
		fmt.Fprint(os.Stderr, cfg.Profiler.Format())
	}
	serialize := markup.Serialize
	if *indent {
		serialize = markup.SerializeIndent
	}
	out := xquery.FormatSequence(res.Value, func(dst []byte, n *dom.Node) []byte {
		return append(dst, serialize(n)...)
	})
	if out != "" {
		fmt.Println(out)
	}
	if res.Updates > 0 && ctxItem != nil {
		// An updating query against a context document prints the
		// updated document.
		n, _ := xdm.IsNode(ctxItem)
		fmt.Println(serialize(n))
	}
}

func querySource(q, f string) (string, error) {
	switch {
	case q != "":
		return q, nil
	case f != "":
		data, err := os.ReadFile(f)
		return string(data), err
	default:
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
}

func fileResolver(uri string) (*dom.Node, error) {
	data, err := os.ReadFile(uri)
	if err != nil {
		return nil, err
	}
	doc, err := markup.Parse(string(data))
	if err != nil {
		return nil, err
	}
	doc.SetBaseURI(uri)
	return doc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xq:", err)
	os.Exit(1)
}

// varFlags collects repeated -var name=value bindings. Values bind as
// xs:string (cast inside the query as needed).
type varFlags []string

func (v *varFlags) String() string { return strings.Join(*v, ",") }

// Set implements flag.Value.
func (v *varFlags) Set(s string) error {
	if !strings.Contains(s, "=") {
		return fmt.Errorf("-var needs name=value, got %q", s)
	}
	*v = append(*v, s)
	return nil
}

func (v *varFlags) bindings() map[dom.QName]xdm.Sequence {
	if len(*v) == 0 {
		return nil
	}
	out := make(map[dom.QName]xdm.Sequence, len(*v))
	for _, b := range *v {
		name, value, _ := strings.Cut(b, "=")
		out[dom.Name(name)] = xdm.Sequence{xdm.String(value)}
	}
	return out
}
