package index

import (
	"fmt"
	"hash/fnv"

	"repro/internal/dom"
)

// Serialized is the persistent form of a Doc: just the token spans and
// the Porter stems, plus a hash of the text stream they were computed
// over. Postings, vocabulary and trigram maps are cheap derivations
// (buildTables() rebuilds them in one pass) and gob-decoding a map performs
// the same inserts anyway, so persisting them would save nothing;
// stemming is the expensive part of a build and is what the sidecar
// amortises. Node tables are pointers and never serialize — Attach
// re-walks the tree and verifies the text stream hash, so a sidecar
// that no longer matches its document is simply ignored.
type Serialized struct {
	TextHash uint64 // FNV-1a of the document text stream
	TextLen  int
	TokStart []int32
	TokEnd   []int32
	Stem     []string
	Split    []int32
}

// Serialize captures a fresh index's persistent form, or ok=false when
// the index went stale (the caller skips persisting it).
func (d *Doc) Serialize() (*Serialized, bool) {
	if !d.fresh() {
		return nil, false
	}
	return &Serialized{
		TextHash: textHash(d.text),
		TextLen:  len(d.text),
		TokStart: d.tokStart,
		TokEnd:   d.tokEnd,
		Stem:     d.stem,
		Split:    d.split,
	}, true
}

// Attach rebuilds a full index for root from its persisted form,
// skipping tokenization and stemming, and publishes it in the root's
// cache slot. The tree walk recollects the text stream and node
// ranges; the stream must hash to the persisted value and the spans
// must be well-formed, otherwise Attach reports an error and the tree
// just builds lazily on first probe as if nothing were persisted.
func Attach(root *dom.Node, s *Serialized) error {
	d := &Doc{root: root, version: root.Version()}
	buildTree(d, root)
	if len(d.text) != s.TextLen || textHash(d.text) != s.TextHash {
		return fmt.Errorf("ftindex: persisted index does not match document text")
	}
	if err := s.validate(); err != nil {
		return err
	}
	d.tokStart = s.TokStart
	d.tokEnd = s.TokEnd
	d.split = s.Split
	// buildTables() keeps a stem array already sized to the token table and
	// only stems entries still empty — handing it the persisted stems
	// skips the expensive part of the build.
	d.stem = s.Stem
	d.buildTables()
	loads.Add(1)
	root.StoreFTIndexCache(d)
	return nil
}

// validate checks the structural invariants Attach relies on: spans
// in-bounds, strictly ordered, non-empty, no persisted stem empty (an
// empty entry would make buildTables() re-stem, silently masking a
// corrupted sidecar), and split positions valid token indexes.
func (s *Serialized) validate() error {
	n := len(s.TokStart)
	if len(s.TokEnd) != n || len(s.Stem) != n {
		return fmt.Errorf("ftindex: persisted table lengths disagree")
	}
	prev := int32(0)
	for i := 0; i < n; i++ {
		st, en := s.TokStart[i], s.TokEnd[i]
		if st < prev || en <= st || int(en) > s.TextLen {
			return fmt.Errorf("ftindex: persisted token span %d out of order or out of bounds", i)
		}
		if s.Stem[i] == "" {
			return fmt.Errorf("ftindex: persisted stem %d empty", i)
		}
		prev = st
	}
	prevSplit := int32(-1)
	for _, p := range s.Split {
		if p <= prevSplit || int(p) >= n {
			return fmt.Errorf("ftindex: persisted split position %d invalid", p)
		}
		prevSplit = p
	}
	return nil
}

// buildTree is the tree walk both build and Attach share: it fills
// text, the node ranges and the text-node tables. Only text and
// element children contribute to the string value
// (dom.Node.appendText); comments and PIs are neither indexed nor
// ranged. The ranges are stored at the nodes' labels, which span the
// whole tree.
func buildTree(d *Doc, root *dom.Node) {
	_, last, _ := root.Label()
	d.ranges = make([]byteRange, last+1)
	var buf []byte
	var visit func(n *dom.Node)
	visit = func(n *dom.Node) {
		start := int32(len(buf))
		switch n.Type {
		case dom.TextNode:
			d.textNodes = append(d.textNodes, n)
			d.textStarts = append(d.textStarts, start)
			buf = append(buf, n.Data...)
			d.textEnds = append(d.textEnds, int32(len(buf)))
		case dom.DocumentNode, dom.ElementNode:
			for _, c := range n.Children() {
				if c.Type == dom.TextNode || c.Type == dom.ElementNode {
					visit(c)
				}
			}
		default:
			return
		}
		d.ranges[pre(n)] = byteRange{start: start, end: int32(len(buf))}
	}
	visit(root)
	d.text = string(buf)
}

// textHash is FNV-1a over the text stream — fast, stable across
// processes, and collision-resistant enough for a "did the document
// change since checkpoint" guard (a miss only costs a lazy rebuild).
func textHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
