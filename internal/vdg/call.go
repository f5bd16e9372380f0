package vdg

import (
	"aliaslab/internal/ast"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/sema"
	"aliaslab/internal/token"
)

// call builds a function call. Library functions are modeled directly
// (allocators mint heap base locations; string/IO routines are identity
// functions on the store, per the paper); user calls become KCall nodes
// whose callees the analysis discovers from the function input's
// points-to pairs.
func (fb *fnBuilder) call(e *ast.Call) *Output {
	if id, ok := e.Fun.(*ast.Ident); ok {
		if obj := fb.b.prog.ObjOf(id); obj != nil && obj.Kind == sema.BuiltinObj {
			return fb.builtinCall(obj.Name, e)
		}
	}

	fv := fb.expr(e.Fun)
	args := make([]*Output, 0, len(e.Args))
	for _, a := range e.Args {
		v := fb.expr(a)
		if v == nil {
			v = fb.unknown(ctypes.IntType, a.Pos())
		}
		args = append(args, v)
	}

	n := fb.g.NewNode(fb.fg, KCall, e.TokPos)
	fb.g.Connect(n, fv)
	fb.g.Connect(n, fb.cur.store)
	for _, a := range args {
		fb.g.Connect(n, a)
	}
	fb.fg.Calls = append(fb.fg.Calls, n)

	storeOut := fb.g.AddOutput(n, nil, true)
	fb.cur.store = storeOut

	rt := fb.typeOf(e)
	if rt.Kind == ctypes.Void {
		return nil
	}
	return fb.g.AddOutput(n, rt, false)
}

// CallArgs returns the actual-value inputs of a KCall node.
func CallArgs(n *Node) []*Input {
	return n.Inputs[2:]
}

// CallFunc returns the function input of a KCall node.
func CallFunc(n *Node) *Input { return n.Inputs[0] }

// CallStoreOut returns the post-call store output.
func CallStoreOut(n *Node) *Output { return n.Outputs[0] }

// CallResultOut returns the result output, or nil for void calls.
func CallResultOut(n *Node) *Output {
	if len(n.Outputs) > 1 {
		return n.Outputs[1]
	}
	return nil
}

// builtinCall models one library call.
func (fb *fnBuilder) builtinCall(name string, e *ast.Call) *Output {
	// Evaluate the arguments left to right for their effects.
	args := make([]*Output, 0, len(e.Args))
	for _, a := range e.Args {
		args = append(args, fb.expr(a))
	}
	pos := e.TokPos
	rt := fb.typeOf(e)

	arg := func(i int) *Output {
		if i < len(args) && args[i] != nil {
			return args[i]
		}
		return fb.unknown(ctypes.IntType, pos)
	}

	switch name {
	case "malloc", "calloc", "fopen":
		return fb.alloc(name, nil, rt, pos)
	case "strdup":
		return fb.alloc(name, nil, rt, pos)
	case "realloc":
		// The result is either the original block or a fresh one.
		return fb.alloc(name, arg(0), rt, pos)

	case "strcpy", "strncpy", "strcat", "memcpy", "memset", "fgets", "strchr":
		// Identity on the store (they move only character/scalar data in
		// the subset); the result aliases the destination argument. The
		// node is effectful: it stays even when the result is unused.
		out := fb.primop(name, true, rt, pos, arg(0))
		out.Node.Effectful = true
		return out

	case "free", "fclose":
		// Identity on the store; under diagnostics the deallocation
		// becomes an explicit kill event the checkers key on.
		if fb.b.opts.Diagnostics {
			fb.freeEvent(arg(0), pos)
		}
		return nil

	case "exit", "abort", "srand":
		return nil // void results, identity on the store

	default:
		// Everything else returns an opaque scalar (printf, strcmp,
		// strlen, math, ctype, ...). The call itself is effectful.
		if rt.Kind == ctypes.Void {
			return nil
		}
		out := fb.unknown(rt, pos)
		out.Node.Effectful = true
		return out
	}
}

// alloc creates a heap allocation node. passThrough, when non-nil, is a
// pointer whose pairs also flow to the result (realloc). Under
// diagnostics the node is kept even when its result is discarded, so
// the leak checker can see allocations whose pointer is dropped.
func (fb *fnBuilder) alloc(callName string, passThrough *Output, rt *ctypes.Type, pos token.Pos) *Output {
	base := fb.b.heapBaseFor(callName, pos)
	n := fb.g.NewNode(fb.fg, KAlloc, pos)
	n.Path = fb.g.Universe.Root(base)
	n.Effectful = fb.b.opts.Diagnostics
	if passThrough != nil {
		fb.g.Connect(n, passThrough)
	}
	return fb.g.AddOutput(n, rt, false)
}

// freeEvent threads a KFree node through the store: input 0 the freed
// pointer, input 1 the store, output 0 the post-free store.
func (fb *fnBuilder) freeEvent(ptr *Output, pos token.Pos) {
	n := fb.g.NewNode(fb.fg, KFree, pos)
	n.Effectful = true
	fb.g.Connect(n, ptr)
	fb.g.Connect(n, fb.cur.store)
	fb.cur.store = fb.g.AddOutput(n, nil, true)
}
