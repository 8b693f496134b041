package funclib

import (
	"sort"

	"repro/internal/dom"
)

// Signature describes one built-in function's callable shape — the
// static view the analyzer checks calls against without instantiating
// any host state.
type Signature struct {
	Name    dom.QName
	MinArgs int
	// MaxArgs is the maximum accepted arity; -1 means variadic.
	MaxArgs    int
	Updating   bool
	Sequential bool
}

// Signatures returns the signature table of the full built-in library,
// sorted by namespace then local name then MinArgs. The table is
// rebuilt on every call; callers that care should cache it.
func Signatures() []Signature {
	var out []Signature
	for _, f := range Library().All() {
		out = append(out, Signature{
			Name:       f.Name,
			MinArgs:    f.MinArgs,
			MaxArgs:    f.MaxArgs,
			Updating:   f.Updating,
			Sequential: f.Sequential,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Name.Space != b.Name.Space {
			return a.Name.Space < b.Name.Space
		}
		if a.Name.Local != b.Name.Local {
			return a.Name.Local < b.Name.Local
		}
		return a.MinArgs < b.MinArgs
	})
	return out
}
