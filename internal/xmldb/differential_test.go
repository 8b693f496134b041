package xmldb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
	"repro/internal/xquery"
	"repro/internal/xquery/runtime"
)

// Differential oracle: the sharded store versus a naive single-map
// model, both exposed to the engine through the same resolver
// interfaces. A deterministic op stream (puts, removes, collection
// churn, MVCC updates) drives both sides; fn:doc and fn:collection
// queries through both engines must agree at every probe.

// naiveStore is the oracle: one flat map, no shards, no log. It mirrors
// the store's documented semantics using the same path helpers.
type naiveStore struct {
	docs map[string]docModel
	cols map[string]bool
}

// docModel is the generator's knowledge of one document's content; its
// render is the canonical serialization both sides must agree on.
type docModel struct {
	id, val int
}

func (m docModel) src() string {
	return fmt.Sprintf(`<doc id="%d"><v>%d</v></doc>`, m.id, m.val)
}

func newNaive() *naiveStore {
	return &naiveStore{docs: map[string]docModel{}, cols: map[string]bool{"/": true}}
}

func (n *naiveStore) sortedURIs(match func(string) bool) []string {
	var uris []string
	for uri := range n.docs {
		if match == nil || match(uri) {
			uris = append(uris, uri)
		}
	}
	sort.Strings(uris)
	return uris
}

func (n *naiveStore) node(t *testing.T, uri string) *dom.Node {
	t.Helper()
	d, err := markup.Parse(n.docs[uri].src())
	if err != nil {
		t.Fatal(err)
	}
	d.SetBaseURI(uri)
	return d
}

// engine builds an oracle engine whose resolvers implement the store's
// documented dispatch over the naive map.
func (n *naiveStore) engine(t *testing.T) *xquery.Engine {
	docRes := func(uri string) (*dom.Node, error) {
		if _, ok := n.docs[uri]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrDocNotFound, uri)
		}
		return n.node(t, uri), nil
	}
	colRes := func(uri string) ([]*dom.Node, error) {
		var uris []string
		switch {
		case uri == "":
			uris = n.sortedURIs(nil)
		case strings.HasPrefix(uri, "/"):
			col := normCollection(uri)
			if !n.cols[col] {
				return nil, fmt.Errorf("%w: %s", ErrNoCollection, col)
			}
			uris = n.sortedURIs(func(u string) bool { return inCollection(col, u) })
		default:
			uris = n.sortedURIs(func(u string) bool { return strings.HasPrefix(u, uri) })
		}
		docs := make([]*dom.Node, len(uris))
		for i, u := range uris {
			docs[i] = n.node(t, u)
		}
		return docs, nil
	}
	return xquery.New(xquery.WithDocResolver(docRes), xquery.WithCollections(runtime.CollectionResolver(colRes)))
}

// lcg is the deterministic op-stream generator.
type lcg struct{ state uint64 }

func (r *lcg) next(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	return int((r.state >> 33) % uint64(n))
}

func TestDifferentialShardedVsNaive(t *testing.T) {
	baseCols := []string{"/db", "/db/x", "/db/x/deep", "/lib"}
	for _, seed := range []uint64{1, 7, 99} {
		st, err := Open("", WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		naive := newNaive()
		for _, c := range baseCols {
			if err := st.CreateCollection(c); err != nil {
				t.Fatal(err)
			}
			for q := normCollection(c); ; {
				naive.cols[q] = true
				if q == "/" {
					break
				}
				q = q[:strings.LastIndex(q, "/")]
				if q == "" {
					q = "/"
				}
			}
		}
		storeEng := xquery.New(xquery.WithDocResolver(st.Resolver()), xquery.WithCollections(st.CollectionSource()))
		naiveEng := naive.engine(t)
		rng := &lcg{state: seed}

		uriAt := func(i int) string {
			return fmt.Sprintf("%s/d%d.xml", baseCols[i%len(baseCols)], i)
		}
		for step := 0; step < 160; step++ {
			switch rng.next(5) {
			case 0, 1: // put (fresh or overwrite)
				i := rng.next(24)
				m := docModel{id: i, val: rng.next(1000)}
				if err := st.PutXML(uriAt(i), m.src()); err != nil {
					t.Fatalf("seed %d step %d: put: %v", seed, step, err)
				}
				naive.docs[uriAt(i)] = m
			case 2: // remove — present and absent must agree
				i := rng.next(24)
				uri := uriAt(i)
				err := st.Remove(uri)
				if _, ok := naive.docs[uri]; ok {
					if err != nil {
						t.Fatalf("seed %d step %d: remove %q: %v", seed, step, uri, err)
					}
					delete(naive.docs, uri)
				} else if !errors.Is(err, ErrDocNotFound) {
					t.Fatalf("seed %d step %d: remove absent %q = %v, want ErrDocNotFound", seed, step, uri, err)
				}
			case 3: // interleaved MVCC update through the query engine
				i := rng.next(24)
				uri := uriAt(i)
				m, ok := naive.docs[uri]
				if !ok {
					continue
				}
				m.val = rng.next(1000)
				q := fmt.Sprintf(`replace value of node /doc/v with "%d"`, m.val)
				if _, err := st.Update(uri, q); err != nil {
					t.Fatalf("seed %d step %d: update %q: %v", seed, step, uri, err)
				}
				naive.docs[uri] = m
			case 4: // collection churn on a scratch subtree
				c := fmt.Sprintf("/db/x/c%d", rng.next(3))
				if naive.cols[c] {
					if err := st.RemoveCollection(c); err != nil {
						t.Fatalf("seed %d step %d: rmcol %s: %v", seed, step, c, err)
					}
					delete(naive.cols, c)
					for uri := range naive.docs {
						if inCollection(c, uri) {
							delete(naive.docs, uri)
						}
					}
				} else {
					if err := st.CreateCollection(c); err != nil {
						t.Fatalf("seed %d step %d: mkcol %s: %v", seed, step, c, err)
					}
					naive.cols[c] = true
				}
			}

			if step%8 != 0 {
				continue
			}
			// Probe: the same queries through both engines must agree.
			targets := []string{"", "/", "/db", "/db/x", "/db/x/deep", "/lib", "/db/nope", "db", "/db/x/c0", "/db/x/c1", "/db/x/c2"}
			for _, target := range targets {
				for _, q := range []string{
					fmt.Sprintf(`count(collection("%s"))`, target),
					fmt.Sprintf(`string-join(for $d in collection("%s") return $d//v/string(), "|")`, target),
				} {
					gotSeq, gotErr := storeEng.EvalQuery(q, nil)
					wantSeq, wantErr := naiveEng.EvalQuery(q, nil)
					if (gotErr == nil) != (wantErr == nil) ||
						(gotErr != nil && !errors.Is(gotErr, ErrNoCollection)) != (wantErr != nil && !errors.Is(wantErr, ErrNoCollection)) {
						t.Fatalf("seed %d step %d: %s: err %v vs oracle %v", seed, step, q, gotErr, wantErr)
					}
					if gotErr != nil {
						continue
					}
					got := xquery.FormatSequence(gotSeq, markup.AppendXML)
					want := xquery.FormatSequence(wantSeq, markup.AppendXML)
					if got != want {
						t.Fatalf("seed %d step %d: %s:\n sharded %q\n  oracle %q", seed, step, q, got, want)
					}
				}
			}
			for i := 0; i < 24; i += 5 {
				q := fmt.Sprintf(`doc("%s")//v/string()`, uriAt(i))
				gotSeq, gotErr := storeEng.EvalQuery(q, nil)
				wantSeq, wantErr := naiveEng.EvalQuery(q, nil)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d step %d: %s: err %v vs oracle %v", seed, step, q, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				got := xquery.FormatSequence(gotSeq, markup.AppendXML)
				want := xquery.FormatSequence(wantSeq, markup.AppendXML)
				if got != want {
					t.Fatalf("seed %d step %d: %s: %q vs oracle %q", seed, step, q, got, want)
				}
			}
		}

		// Final full-state agreement, byte for byte.
		wantURIs := naive.sortedURIs(nil)
		if fmt.Sprint(st.List()) != fmt.Sprint(wantURIs) {
			t.Fatalf("seed %d: List = %v, oracle %v", seed, st.List(), wantURIs)
		}
		for _, uri := range wantURIs {
			d, ok := st.Get(uri)
			if !ok {
				t.Fatalf("seed %d: %q missing", seed, uri)
			}
			if got, want := markup.Serialize(d), markup.Serialize(naive.node(t, uri)); got != want {
				t.Fatalf("seed %d: %q: %s vs oracle %s", seed, uri, got, want)
			}
		}
		st.Close()
	}
}

// Shard-merge property: for any URI set and any shard count, List and
// the streaming collection merge produce the identical sorted document
// order — the partitioning is invisible to consumers.
func TestShardMergeDocumentOrderProperty(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		rng := &lcg{state: seed*0x9e3779b9 + 1}
		uriSet := map[string]bool{}
		n := 5 + rng.next(40)
		for i := 0; i < n; i++ {
			var uri string
			switch rng.next(3) {
			case 0:
				uri = fmt.Sprintf("flat-%d.xml", rng.next(50))
			case 1:
				uri = fmt.Sprintf("/db/a%d/d%d.xml", rng.next(4), rng.next(50))
			default:
				uri = fmt.Sprintf("/db/a%d/b%d/d%d.xml", rng.next(3), rng.next(3), rng.next(50))
			}
			uriSet[uri] = true
		}
		var want []string
		for uri := range uriSet {
			want = append(want, uri)
		}
		sort.Strings(want)

		var baseline []string
		for _, shards := range []int{1, 2, 3, 5, 8} {
			st, err := Open("", WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			for _, uri := range want {
				if col := collectionOf(uri); col != "/" {
					if err := st.CreateCollection(col); err != nil {
						t.Fatal(err)
					}
				}
				if err := st.PutXML(uri, fmt.Sprintf(`<d u="%s"/>`, uri)); err != nil {
					t.Fatal(err)
				}
			}
			got := st.List()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d shards=%d: List = %v, want %v", seed, shards, got, want)
			}
			if baseline == nil {
				baseline = got
			} else if fmt.Sprint(got) != fmt.Sprint(baseline) {
				t.Fatalf("seed %d shards=%d: order differs from other shard counts", seed, shards)
			}

			// The streaming merge must deliver the same order one
			// document at a time.
			iter, err := st.CollectionIter("/")
			if err != nil {
				t.Fatal(err)
			}
			var streamed []string
			for {
				it, ok, err := iter.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				streamed = append(streamed, it.(xdm.Node).N.BaseURI())
			}
			if fmt.Sprint(streamed) != fmt.Sprint(want) {
				t.Fatalf("seed %d shards=%d: streamed order %v, want %v", seed, shards, streamed, want)
			}
			st.Close()
		}
	}
}

// Published revisions are immutable by contract; domV stamping makes a
// violation (a legacy caller scribbling on a resolver-returned tree)
// detectable.
func TestPublishedRevisionMutationDetected(t *testing.T) {
	st, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.PutXML("a.xml", `<a/>`); err != nil {
		t.Fatal(err)
	}
	d, ok := st.shardFor("a.xml").get("a.xml")
	if !ok {
		t.Fatal("doc missing")
	}
	if d.mutated() {
		t.Fatal("fresh revision reports mutated")
	}
	d.root.SetAttr(dom.Name("x"), "1")
	if !d.mutated() {
		t.Fatal("in-place write on a published revision went undetected")
	}
}
