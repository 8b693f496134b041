package xquery

import (
	"fmt"
	"sync"

	"repro/internal/xdm"
	"repro/internal/xquery/ast"
	"repro/internal/xquery/runtime"
)

// NewLocalResolver builds a module resolver over a set of in-memory
// library module sources, keyed by namespace URI (location hints are
// also consulted). It gives the engine proper multi-module programs —
// the way the paper's applications factor shared XQuery into modules
// (§6.1: "the XQuery modules defined in the Reference 2.0 application
// code are directly published").
//
// Each imported module compiles once; its functions are exposed to the
// importer through proxies that evaluate in the library's own context
// (so library-global variables work and cannot collide with the
// importer's), whose globals are initialised once per run.
func NewLocalResolver(sources map[string]string, opts ...Option) runtime.ModuleResolver {
	engine := New(opts...)
	// One resolver serves every engine it is installed on, from whatever
	// goroutines those bind programs on.
	var mu sync.Mutex
	compiled := map[string]*Program{}
	load := func(uri, src string) (*Program, error) {
		mu.Lock()
		p, ok := compiled[uri]
		mu.Unlock()
		if ok {
			return p, nil
		}
		// Compiled outside the lock: a library importing a library comes
		// back in here. Racing first imports agree on whoever stores first.
		p, err := engine.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("xquery: compiling module %q: %w", uri, err)
		}
		m := p.Module()
		if !m.IsLibrary {
			return nil, fmt.Errorf("xquery: %q is not a library module", uri)
		}
		if m.URI != uri {
			return nil, fmt.Errorf("xquery: module namespace %q does not match import %q", m.URI, uri)
		}
		mu.Lock()
		defer mu.Unlock()
		if first, ok := compiled[uri]; ok {
			return first, nil
		}
		compiled[uri] = p
		return p, nil
	}
	return func(imp ast.ModuleImport, reg *runtime.Registry) error {
		src, ok := sources[imp.URI]
		if !ok {
			for _, hint := range imp.Hints {
				if s, ok2 := sources[hint]; ok2 {
					src, ok = s, true
					break
				}
			}
		}
		if !ok {
			return fmt.Errorf("xquery: no module source for %q", imp.URI)
		}
		prog, err := load(imp.URI, src)
		if err != nil {
			return err
		}
		for i := range prog.Module().Prolog.Functions {
			decl := &prog.Module().Prolog.Functions[i]
			if decl.Name.Space != imp.URI {
				continue
			}
			name := decl.Name
			arity := len(decl.Params)
			libProg := prog
			reg.Register(&runtime.Function{
				Name:       name,
				MinArgs:    arity,
				MaxArgs:    arity,
				Updating:   decl.Updating,
				Sequential: decl.Sequential,
				Invoke: func(ctx *runtime.Context, args []xdm.Sequence) (xdm.Sequence, error) {
					// The library's own context, inside the caller's run,
					// its globals initialised once per run.
					lctx, err := ctx.LibraryContext(libProg.Runtime())
					if err != nil {
						return nil, err
					}
					return lctx.CallFunction(name, args)
				},
			})
		}
		return nil
	}
}

// CombineResolvers tries each resolver in turn until one succeeds —
// hosts often mix local library modules with remote web services.
func CombineResolvers(resolvers ...runtime.ModuleResolver) runtime.ModuleResolver {
	return func(imp ast.ModuleImport, reg *runtime.Registry) error {
		var lastErr error
		for _, r := range resolvers {
			if r == nil {
				continue
			}
			if err := r(imp, reg); err != nil {
				lastErr = err
				continue
			}
			return nil
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("xquery: no resolver for module %q", imp.URI)
		}
		return lastErr
	}
}
