package ast

// The two child walks. Which fields of a node kind hold child
// expressions is decided here and nowhere else: EachChild reads the
// children, MapChildren copies a node with its children replaced.
// Every other pass over the tree names only the kinds it treats
// specially — the ones with scopes, an update placement, a cardinality
// or a cost of their own — and takes every other kind through one of
// these two.

// EachChild calls f on every non-nil expression directly under e,
// without building anything: what MapChildren maps, plus what it
// leaves alone — the operand of Hoisted and a join annotation's copies
// of a where conjunct. Some readers take children by position, so the
// order is part of the contract: an if's condition, then and else; a
// FLWOR's clauses first and its return last; a path's leading primary
// first; a copy … modify's modify clause right after its bindings; a
// typeswitch's case bodies before its operand and default.
func EachChild(e Expr, f func(Expr)) {
	each := func(es ...Expr) {
		for _, c := range es {
			if c != nil {
				f(c)
			}
		}
	}
	clauses := func(cls []Clause) {
		for _, cl := range cls {
			each(cl.In)
		}
	}
	switch x := e.(type) {
	case SeqExpr:
		each(x.Items...)
	case Ordered:
		each(x.X)
	case Hoisted:
		each(x.X)
	case FuncCall:
		each(x.Args...)
	case If:
		each(x.Cond, x.Then, x.Else)
	case FLWOR:
		clauses(x.Clauses)
		if j := x.Join; j != nil {
			each(j.OuterKey, j.InnerKey, j.Pred)
		}
		each(x.Where)
		for _, o := range x.OrderBy {
			each(o.Key)
		}
		each(x.Return)
	case Quantified:
		clauses(x.Vars)
		each(x.Satisfies)
	case Typeswitch:
		for _, c := range x.Cases {
			each(c.Body)
		}
		each(x.Operand, x.Default)
	case Binary:
		each(x.L, x.R)
	case Compare:
		each(x.L, x.R)
	case Range:
		each(x.L, x.R)
	case Unary:
		each(x.X)
	case InstanceOf:
		each(x.X)
	case TreatAs:
		each(x.X)
	case CastAs:
		each(x.X)
	case Path:
		for _, s := range x.Steps {
			each(s.Primary)
			each(s.Preds...)
		}
	case DirElem:
		for _, a := range x.Attrs {
			each(a.Pieces...)
		}
		each(x.Content...)
	case CompConstructor:
		each(x.NameExpr, x.Content)
	case Insert:
		each(x.Source, x.Target)
	case Delete:
		each(x.Target)
	case Replace:
		each(x.Target, x.With)
	case Rename:
		each(x.Target, x.NewName)
	case Transform:
		clauses(x.Bindings)
		each(x.Modify, x.Return)
	case Block:
		each(x.Stmts...)
	case BlockDecl:
		each(x.Init)
	case Assign:
		each(x.Val)
	case While:
		each(x.Cond, x.Body)
	case Exit:
		each(x.With)
	case EventAttach:
		each(x.Event, x.Target)
	case EventDetach:
		each(x.Event, x.Target)
	case EventTrigger:
		each(x.Event, x.Target)
	case SetStyle:
		each(x.Prop, x.Target, x.Value)
	case GetStyle:
		each(x.Prop, x.Target)
	case FTContains:
		each(x.X)
		eachFTSource(x.Sel, f)
	}
}

// eachFTSource calls f on the word source of every FTWords of sel.
func eachFTSource(sel FTSelection, f func(Expr)) {
	switch s := sel.(type) {
	case FTWords:
		f(s.Source)
	case FTAnd:
		eachFTSource(s.L, f)
		eachFTSource(s.R, f)
	case FTOr:
		eachFTSource(s.L, f)
		eachFTSource(s.R, f)
	case FTNot:
		eachFTSource(s.X, f)
	}
}

// MapChildren rebuilds e with f applied to every non-nil child
// expression: the copying walk the planner and the optimizer share.
// Every node kind with children is descended into — a path worth
// planning or a FLWOR worth optimizing can hide anywhere, the word
// sources of a full-text selection included — and each case constructs
// a fresh node, steps and predicate lists included, so the caller may
// write to what it gets back. A FLWOR's or call's shipping plan stays
// on the copy (it is text, good for whatever f makes of the children),
// and so do the adoption marks of constructors, insert and replace (no
// rewrite of a fresh operand — a fold to a literal, a branch chosen at
// compile time — makes it less fresh; a DirElem copy shares the Adopt
// list, so write to a new one). Children are mapped in evaluation
// order, a FLWOR's clauses first. The operand of Hoisted and a join
// annotation are not mapped: only the optimizer makes them, after it
// has mapped what is under them.
func MapChildren(e Expr, f func(Expr) Expr) Expr {
	g := func(c Expr) Expr {
		if c == nil {
			return nil
		}
		return f(c)
	}
	list := func(es []Expr) []Expr {
		if len(es) == 0 {
			return nil
		}
		out := make([]Expr, len(es))
		for i, c := range es {
			out[i] = g(c)
		}
		return out
	}
	clauses := func(cls []Clause) []Clause {
		out := make([]Clause, len(cls))
		copy(out, cls)
		for i := range out {
			out[i].In = g(out[i].In)
		}
		return out
	}
	switch x := e.(type) {
	case SeqExpr:
		return SeqExpr{Items: list(x.Items)}
	case Ordered:
		return Ordered{X: g(x.X)}
	case FuncCall:
		return FuncCall{Name: x.Name, Args: list(x.Args), At: x.At, Ship: x.Ship}
	case If:
		return If{Cond: g(x.Cond), Then: g(x.Then), Else: g(x.Else), At: x.At}
	case FLWOR:
		out := FLWOR{Clauses: clauses(x.Clauses), Ship: x.Ship, StreamDomain: x.StreamDomain}
		out.Where = g(x.Where)
		if len(x.OrderBy) > 0 {
			out.OrderBy = make([]OrderSpec, len(x.OrderBy))
			copy(out.OrderBy, x.OrderBy)
			for i := range out.OrderBy {
				out.OrderBy[i].Key = g(out.OrderBy[i].Key)
			}
		}
		out.Return = g(x.Return)
		return out
	case Quantified:
		return Quantified{Every: x.Every, Vars: clauses(x.Vars), Satisfies: g(x.Satisfies), StreamDomain: x.StreamDomain}
	case Typeswitch:
		operand := g(x.Operand)
		cases := make([]TypeswitchCase, len(x.Cases))
		copy(cases, x.Cases)
		for i := range cases {
			cases[i].Body = g(cases[i].Body)
		}
		return Typeswitch{Operand: operand, Cases: cases, DefaultVar: x.DefaultVar, DefaultID: x.DefaultID, Default: g(x.Default), At: x.At}
	case Binary:
		return Binary{Op: x.Op, L: g(x.L), R: g(x.R)}
	case Compare:
		return Compare{Op: x.Op, Kind: x.Kind, L: g(x.L), R: g(x.R)}
	case Unary:
		return Unary{Neg: x.Neg, X: g(x.X)}
	case Range:
		return Range{L: g(x.L), R: g(x.R)}
	case InstanceOf:
		return InstanceOf{X: g(x.X), Type: x.Type}
	case TreatAs:
		return TreatAs{X: g(x.X), Type: x.Type}
	case CastAs:
		return CastAs{X: g(x.X), Type: x.Type, Optional: x.Optional, Castable: x.Castable}
	case Path:
		steps := make([]Step, len(x.Steps))
		copy(steps, x.Steps)
		for i := range steps {
			steps[i].Primary = g(steps[i].Primary)
			steps[i].Preds = list(steps[i].Preds)
		}
		return Path{Absolute: x.Absolute, Steps: steps}
	case DirElem:
		attrs := make([]DirAttr, len(x.Attrs))
		copy(attrs, x.Attrs)
		for i := range attrs {
			attrs[i].Pieces = list(attrs[i].Pieces)
		}
		return DirElem{Name: x.Name, Attrs: attrs, Content: list(x.Content), Adopt: x.Adopt}
	case CompConstructor:
		return CompConstructor{Kind: x.Kind, Name: x.Name, NameExpr: g(x.NameExpr), Content: g(x.Content), Adopt: x.Adopt}
	case Insert:
		return Insert{Source: g(x.Source), Target: g(x.Target), Pos: x.Pos, At: x.At, Adopt: x.Adopt}
	case Delete:
		return Delete{Target: g(x.Target), At: x.At}
	case Replace:
		return Replace{ValueOf: x.ValueOf, Target: g(x.Target), With: g(x.With), At: x.At, Adopt: x.Adopt}
	case Rename:
		return Rename{Target: g(x.Target), NewName: g(x.NewName), At: x.At}
	case Transform:
		return Transform{Bindings: clauses(x.Bindings), Modify: g(x.Modify), Return: g(x.Return), At: x.At}
	case Block:
		return Block{Stmts: list(x.Stmts)}
	case BlockDecl:
		return BlockDecl{Var: x.Var, ID: x.ID, Type: x.Type, Init: g(x.Init), At: x.At}
	case Assign:
		return Assign{Var: x.Var, ID: x.ID, Val: g(x.Val), At: x.At}
	case While:
		return While{Cond: g(x.Cond), Body: g(x.Body), At: x.At}
	case Exit:
		return Exit{With: g(x.With), At: x.At}
	case EventAttach:
		return EventAttach{Event: g(x.Event), Target: g(x.Target), Behind: x.Behind, Listener: x.Listener, At: x.At}
	case EventDetach:
		return EventDetach{Event: g(x.Event), Target: g(x.Target), Listener: x.Listener, At: x.At}
	case EventTrigger:
		return EventTrigger{Event: g(x.Event), Target: g(x.Target), At: x.At}
	case SetStyle:
		return SetStyle{Prop: g(x.Prop), Target: g(x.Target), Value: g(x.Value), At: x.At}
	case GetStyle:
		return GetStyle{Prop: g(x.Prop), Target: g(x.Target), At: x.At}
	case FTContains:
		return FTContains{X: g(x.X), Sel: mapFTSources(x.Sel, g), LitSel: x.LitSel}
	default:
		// Literals, VarRef, ContextItem, Break, Continue and Hoisted.
		return e
	}
}

// mapFTSources rebuilds sel with f applied to the word source of every
// FTWords.
func mapFTSources(sel FTSelection, f func(Expr) Expr) FTSelection {
	switch s := sel.(type) {
	case FTWords:
		s.Source = f(s.Source)
		return s
	case FTAnd:
		return FTAnd{L: mapFTSources(s.L, f), R: mapFTSources(s.R, f)}
	case FTOr:
		return FTOr{L: mapFTSources(s.L, f), R: mapFTSources(s.R, f)}
	case FTNot:
		return FTNot{X: mapFTSources(s.X, f)}
	}
	return sel
}
