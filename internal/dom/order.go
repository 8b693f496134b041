package dom

import (
	"cmp"
	"slices"
	"strings"
	"unsafe"
)

// Document order. Every node carries one label pair (pre, end): its
// rank in a preorder walk of its tree — a node, its attributes in list
// order, its children's subtrees — and the largest rank in its subtree.
// This package is the only one that numbers a tree; the labels of a
// tree hold for one version of it, and are published race-free to the
// readers of a shared tree (DESIGN.md §5t).

// labels returns n's label pair as last written: the only reader of the
// label word. The caller has made the labels of n's tree current.
func (n *Node) labels() (pre, end uint32) {
	return uint32(n.label >> 32), uint32(n.label)
}

// relabel numbers the subtree under n from next and returns the first
// number after it: the only writer of the label word.
func (n *Node) relabel(next uint32) uint32 {
	pre := next
	next++
	for _, a := range n.Attrs() {
		a.label = uint64(next)<<32 | uint64(next)
		next++
	}
	for _, c := range n.Children() {
		next = c.relabel(next)
	}
	n.label = uint64(pre)<<32 | uint64(next-1)
	return next
}

// ensureLabeled makes the labels of the tree rooted at n current: a
// reader that finds them stale relabels under the root's lock, checking
// again once it holds it, and records the version after the labels.
func (n *Node) ensureLabeled() {
	if n.labeledNow() {
		return
	}
	want := n.rootVersion() + 1
	s := n.ensureSide()
	s.labelMu.Lock()
	if s.labeled.Load() != want {
		n.relabel(0)
		s.labeled.Store(want)
	}
	s.labelMu.Unlock()
}

// labeledNow reports whether the labels of the tree rooted at n are
// current, without writing them.
func (n *Node) labeledNow() bool {
	s := n.side.Load()
	return s != nil && s.labeled.Load() == n.rootVersion()+1
}

// relabelScans is how many sibling lookups stale labels wait for at
// one tree version before SiblingIndex writes them — the index
// lifecycle's rebuild rule (rebuildProbes): a page that mutates between
// lookups scans a child list per lookup, never relabels per version,
// and a read phase that looks up node after node labels once. The
// count lives in the low scanBits of the root's nodeSide.scans.
const relabelScans, scanBits = 4, 3

// SiblingIndex is ChildIndex for the sibling, following and preceding
// axes: it labels the tree at the relabelScans-th lookup of one stale
// version. The count is racy by design, like the index probe counters:
// a lost increment only delays the labeling by one lookup.
func (n *Node) SiblingIndex() int {
	if root := n.Root(); n.parent != nil && n.Type != AttributeNode && !root.labeledNow() {
		s := root.ensureSide()
		v := uint32(root.rootVersion()+1) << scanBits
		seen := s.scans.Load()
		if seen&^(1<<scanBits-1) != v {
			seen = v
		}
		if seen-v+1 >= relabelScans {
			root.ensureLabeled()
		} else {
			s.scans.Store(seen + 1)
		}
	}
	return n.ChildIndex()
}

// Label returns n's label pair and the root of its tree, labeling the
// tree first when its labels are stale. m is inside n's subtree exactly
// when pre(n) <= pre(m) <= end(n); labels compare only within one root
// and hold until the tree's next mutation.
func (n *Node) Label() (pre, end uint32, root *Node) {
	root = n.Root()
	root.ensureLabeled()
	pre, end = n.labels()
	return pre, end, root
}

// CompareOrder returns -1, 0 or +1 as a precedes, equals or follows b in
// document order. Within a tree that is label order: attributes follow
// their element, in attribute-list order, and precede its children.
// Nodes of different trees are ordered by their trees (compareTrees).
func CompareOrder(a, b *Node) int {
	if a == b {
		return 0
	}
	ra, rb := a.Root(), b.Root()
	if ra != rb {
		return compareTrees(ra, rb)
	}
	ra.ensureLabeled()
	pa, _ := a.labels()
	pb, _ := b.labels()
	return cmp.Compare(pa, pb)
}

// compareTrees orders the distinct trees rooted at ra and rb, as the XDM
// lets an implementation choose, stably: by the roots' base URIs — the
// document-URI order of a collection, whether its documents were fetched
// or read where they are stored — with a tree that has no URI
// (constructed content) after every tree that has one, and by the
// roots' addresses when the URIs are equal (Go's collector does not
// move heap objects).
func compareTrees(ra, rb *Node) int {
	ua, ub := ra.BaseURI(), rb.BaseURI()
	switch {
	case ua == ub:
		return cmp.Compare(uintptr(unsafe.Pointer(ra)), uintptr(unsafe.Pointer(rb)))
	case ua == "":
		return 1
	case ub == "":
		return -1
	}
	return strings.Compare(ua, ub)
}

// SortDedup puts nodes into document order and drops repeats, in place,
// and returns the shortened slice: the one document-order sort. Input
// from one tree that is already in order — step results, which arrive
// in order per focus node — costs one pass and no allocation; anything
// else is sorted once on (tree, pre) keys.
func SortDedup(nodes []*Node) []*Node {
	if len(nodes) < 2 {
		return nodes
	}
	root := nodes[0].Root()
	root.ensureLabeled()
	ordered := true
	prev, _ := nodes[0].labels()
	parent := nodes[0].parent // of the last node known to be in root's tree
	for _, n := range nodes[1:] {
		if n.parent == nil || n.parent != parent {
			if n.Root() != root {
				ordered = false
				break
			}
			parent = n.parent
		}
		pre, _ := n.labels()
		if pre < prev {
			ordered = false
			break
		}
		prev = pre
	}
	if !ordered {
		sortByLabel(nodes)
	}
	return slices.Compact(nodes)
}

// sortByLabel sorts nodes of any number of trees: trees in
// compareTrees order, each tree's nodes by pre. Repeats end up next to
// each other.
func sortByLabel(nodes []*Node) {
	type ranked struct {
		n, root *Node
		pre     uint32
	}
	keys := make([]ranked, len(nodes))
	for i, n := range nodes {
		pre, _, root := n.Label()
		keys[i] = ranked{n: n, root: root, pre: pre}
	}
	slices.SortFunc(keys, func(a, b ranked) int {
		if a.root != b.root {
			return compareTrees(a.root, b.root)
		}
		return cmp.Compare(a.pre, b.pre)
	})
	for i := range keys {
		nodes[i] = keys[i].n
	}
}
