package rest

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/dom"
	"repro/internal/markup"
	"repro/internal/xdm"
)

// The DOM decoder the envelope reader replaced, kept as the wire
// differential's oracle: it parses the whole payload into a tree and
// cuts each node payload out of it. It accepts more than the reader
// (comments, other elements, text between items); wherever the reader
// accepts, the two must agree item for item.

func domDecodeSequenceKeyed(src string) (xdm.Sequence, []string, error) {
	doc, err := markup.Parse(src)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: malformed result: %w", ErrMalformedPayload, err)
	}
	root := doc.DocumentElement()
	if root == nil || root.Name.Local != "result" {
		return nil, nil, fmt.Errorf("%w: unexpected result payload", ErrMalformedPayload)
	}
	children := root.Children()
	out := make(xdm.Sequence, 0, len(children))
	keys := make([]string, 0, len(children))
	for _, item := range children {
		if item.Type != dom.ElementNode || item.Name.Local != "item" {
			continue
		}
		it, err := domDecodeItem(item)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, it)
		keys = append(keys, item.AttrValue("uri"))
	}
	return out, keys, nil
}

func domDecodeItem(item *dom.Node) (xdm.Item, error) {
	if item.AttrValue("kind") == "node" {
		uri := item.AttrValue("uri")
		for _, c := range item.Children() {
			if c.Type == dom.ElementNode {
				c.Detach()
				if uri != "" {
					return xdm.NewNode(dom.NewDocumentOf(uri, c)), nil
				}
				return xdm.NewNode(c), nil
			}
		}
		return xdm.NewNode(dom.NewText(item.StringValue())), nil
	}
	text := item.StringValue()
	typeName := item.AttrValue("type")
	local := strings.TrimPrefix(typeName, "xs:")
	t, ok := xdm.AtomicTypeByName(local)
	if !ok {
		return xdm.UntypedAtomic(text), nil
	}
	v, err := xdm.Cast(xdm.String(text), t)
	if err != nil {
		return nil, fmt.Errorf("%w: cannot decode %s %q: %w", ErrMalformedPayload, typeName, text, err)
	}
	return v, nil
}

func domDecodeArgs(src string) ([]xdm.Sequence, error) {
	doc, err := markup.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: malformed args: %w", ErrMalformedPayload, err)
	}
	root := doc.DocumentElement()
	if root == nil || root.Name.Local != "args" {
		return nil, fmt.Errorf("%w: unexpected args payload", ErrMalformedPayload)
	}
	var out []xdm.Sequence
	for _, arg := range root.Children() {
		if arg.Type != dom.ElementNode || arg.Name.Local != "arg" {
			continue
		}
		var seq xdm.Sequence
		for _, item := range arg.Children() {
			if item.Type != dom.ElementNode || item.Name.Local != "item" {
				continue
			}
			it, err := domDecodeItem(item)
			if err != nil {
				return nil, err
			}
			seq = append(seq, it)
		}
		out = append(out, seq)
	}
	return out, nil
}

// sameItem reports whether the reader's item a is the oracle's b: the
// same node kind, serialization, base URI and parentlessness, or the
// same atomic type and lexical value.
func sameItem(a, b xdm.Item) bool {
	an, aNode := xdm.IsNode(a)
	bn, bNode := xdm.IsNode(b)
	switch {
	case aNode != bNode:
		return false
	case aNode:
		return an.Type == bn.Type && markup.Serialize(an) == markup.Serialize(bn) &&
			an.BaseURI() == bn.BaseURI() && an.Parent() == nil && bn.Parent() == nil
	}
	return a.Type() == b.Type() && a.String() == b.String()
}

// sameDecoding compares the reader's result with the oracle's: both
// refuse with ErrMalformedPayload, or both accept the same items and
// keys. oracleMayAccept allows the oracle to accept what the reader
// refuses (a payload the writer never writes).
func sameDecoding(src string, oracleMayAccept bool) error {
	seq, keys, err := DecodeSequenceKeyed(src)
	oseq, okeys, oerr := domDecodeSequenceKeyed(src)
	return compareDecodings(seq, oseq, keys, okeys, err, oerr, oracleMayAccept)
}

// sameArgsDecoding is sameDecoding for an <args> payload.
func sameArgsDecoding(src string, oracleMayAccept bool) error {
	args, err := DecodeArgs(src)
	oargs, oerr := domDecodeArgs(src)
	if err != nil || oerr != nil {
		return compareDecodings(nil, nil, nil, nil, err, oerr, oracleMayAccept)
	}
	if len(args) != len(oargs) {
		return fmt.Errorf("%d args, the oracle %d", len(args), len(oargs))
	}
	for i := range args {
		if (args[i] == nil) != (oargs[i] == nil) {
			return fmt.Errorf("arg %d: nil %v, the oracle's %v", i, args[i] == nil, oargs[i] == nil)
		}
		if err := compareDecodings(args[i], oargs[i], nil, nil, nil, nil, false); err != nil {
			return fmt.Errorf("arg %d: %w", i, err)
		}
	}
	return nil
}

func compareDecodings(seq, oseq xdm.Sequence, keys, okeys []string, err, oerr error, oracleMayAccept bool) error {
	switch {
	case err != nil && !errors.Is(err, ErrMalformedPayload):
		return fmt.Errorf("refused with %v, not ErrMalformedPayload", err)
	case err != nil && oerr != nil:
		return nil
	case err != nil && !oracleMayAccept:
		return fmt.Errorf("refused (%v), the oracle accepts", err)
	case err != nil:
		return nil
	case oerr != nil:
		return fmt.Errorf("accepted, the oracle refuses (%v)", oerr)
	case len(seq) != len(oseq) || len(keys) != len(okeys):
		return fmt.Errorf("%d items and %d keys, the oracle %d and %d", len(seq), len(keys), len(oseq), len(okeys))
	}
	for i := range seq {
		if !sameItem(seq[i], oseq[i]) {
			return fmt.Errorf("item %d: %v (%v), the oracle %v (%v)", i, seq[i], seq[i].Type(), oseq[i], oseq[i].Type())
		}
	}
	for i := range keys {
		if keys[i] != okeys[i] {
			return fmt.Errorf("key %d: %q, the oracle %q", i, keys[i], okeys[i])
		}
	}
	return nil
}
