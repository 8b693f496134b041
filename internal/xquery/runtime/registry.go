package runtime

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/xqerr"
)

// fnKey names a function without its prefix: a comparable map key, so
// a lookup hashes the two strings in place instead of concatenating
// them.
type fnKey struct{ Space, Local string }

// Registry maps function names to implementations. Registries stack:
// a layer answers from its own entries first and then from its parent
// chain, so an upper layer shadows the layers below it ("imports may
// shadow"). A running program sees up to five layers, innermost first:
//
//	user functions   compiled from the module's prolog; frozen, shared
//	                 by every binding of the module
//	imports          what the binding engine's module resolver
//	                 registered for this module; per binding
//	host             the engine's own registrations (WithFunctions
//	                 extras); per engine
//	browser          the browser: namespace, under page engines only;
//	                 frozen, one per process (browser.Functions)
//	library          the fn:/xs:/ft: built-ins; frozen, one per process
//	                 (funclib.Library)
//
// A frozen layer never changes again, so it may be shared across
// goroutines without locks. The zero Registry is an empty root layer.
type Registry struct {
	parent *Registry
	funcs  map[fnKey][]*Function
	// shape is the order-independent hash of this layer's own
	// signatures, kept current by Register; Shape adds the parents'.
	shape  uint64
	frozen bool
}

// NewRegistry creates an empty root layer.
func NewRegistry() *Registry { return &Registry{} }

// Layer creates an empty, writable layer above r.
func (r *Registry) Layer() *Registry { return &Registry{parent: r} }

// Freeze makes the layer immutable: every later Register on it fails.
// Freeze before sharing the layer; it is not itself synchronised.
func (r *Registry) Freeze() { r.frozen = true }

// over returns a view of the frozen layer r's own entries above
// another parent: the way one shared user-function layer sits on top of
// each binding's host chain.
func (r *Registry) over(parent *Registry) *Registry {
	return &Registry{parent: parent, funcs: r.funcs, shape: r.shape, frozen: true}
}

// Register adds a function to this layer. A function with the same
// name and arity range replaces the layer's earlier registration; a
// registration in a lower layer is shadowed, not touched. The
// signature fields of f (name, arity range, Updating, Sequential,
// whether it has a Stream) must not change afterwards: they are part of
// the layer's shape. Register on a frozen layer changes nothing and
// returns an error wrapping xqerr.ErrMisconfigured.
func (r *Registry) Register(f *Function) error {
	if r.frozen {
		return fmt.Errorf("%w: runtime: registering %s on a frozen registry layer",
			xqerr.ErrMisconfigured, f.Name)
	}
	if r.funcs == nil {
		r.funcs = map[fnKey][]*Function{}
	}
	key := fnKey{f.Name.Space, f.Name.Local}
	list := r.funcs[key]
	for i, g := range list {
		if g.MinArgs == f.MinArgs && g.MaxArgs == f.MaxArgs {
			r.shape += sigHash(f) - sigHash(g)
			list[i] = f
			return nil
		}
	}
	r.funcs[key] = append(list, f)
	r.shape += sigHash(f)
	return nil
}

// Shape is an order-independent hash of the signatures registered on
// this layer and every layer below it: name, arity range, Updating,
// Sequential and whether the function streams. Two chains holding the
// same signatures have the same shape whatever closures implement them,
// which is what lets engines of one application share compiled
// programs (see xquery.Engine.Fingerprint).
func (r *Registry) Shape() uint64 {
	var s uint64
	for l := r; l != nil; l = l.parent {
		s += l.shape
	}
	return s
}

// sigHash hashes one signature: FNV-1a over the fields, then a
// finalising mix so that the per-layer sum behaves like a sum of
// independent values.
func sigHash(f *Function) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(f.Name.Space); i++ {
		h = (h ^ uint64(f.Name.Space[i])) * prime
	}
	h = (h ^ 0xff) * prime
	for i := 0; i < len(f.Name.Local); i++ {
		h = (h ^ uint64(f.Name.Local[i])) * prime
	}
	h = (h ^ 0xff) * prime
	h = (h ^ uint64(int64(f.MinArgs))) * prime
	h = (h ^ uint64(int64(f.MaxArgs))) * prime
	var flags uint64
	if f.Updating {
		flags |= 1
	}
	if f.Sequential {
		flags |= 2
	}
	if f.Stream != nil {
		flags |= 4
	}
	h = (h ^ flags) * prime
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Lookup finds the function accepting the given arity, or nil: the
// innermost layer with a matching registration answers.
func (r *Registry) Lookup(name dom.QName, arity int) *Function {
	key := fnKey{name.Space, name.Local}
	for l := r; l != nil; l = l.parent {
		for _, f := range l.funcs[key] {
			if arity >= f.MinArgs && (f.MaxArgs < 0 || arity <= f.MaxArgs) {
				return f
			}
		}
	}
	return nil
}

// Overloads returns every function registered under name in any layer,
// regardless of arity, innermost layer first (the static analyzer uses
// this to distinguish "unknown function" from "wrong number of
// arguments"). The result is read-only.
func (r *Registry) Overloads(name dom.QName) []*Function {
	key := fnKey{name.Space, name.Local}
	var out []*Function
	for l := r; l != nil; l = l.parent {
		list := l.funcs[key]
		switch {
		case len(list) == 0:
		case out == nil:
			// Capacity-limited, so appending a lower layer's entries
			// copies instead of writing into this layer's own list.
			out = list[:len(list):len(list)]
		default:
			out = append(out, list...)
		}
	}
	return out
}

// All returns every registered function of every layer in unspecified
// order, shadowed registrations included (the funclib signature table
// is derived from this).
func (r *Registry) All() []*Function {
	var out []*Function
	for l := r; l != nil; l = l.parent {
		for _, list := range l.funcs {
			out = append(out, list...)
		}
	}
	return out
}
