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
func (fb *fnBuilder) call(e *ast.Call) value {
	if id, ok := e.Fun.(*ast.Ident); ok {
		if obj := fb.b.prog.ObjOf(id); obj != nil && obj.Kind == sema.BuiltinObj {
			return fb.builtinCall(obj.Name, e)
		}
	}

	fv := fb.expr(e.Fun)
	args := make([]value, 0, len(e.Args))
	for _, a := range e.Args {
		v := fb.expr(a)
		if v == 0 {
			v = fb.unknown(ctypes.IntType, a.Pos())
		}
		args = append(args, v)
	}

	n := fb.node(op{kind: KCall, pos: e.TokPos}, 2+len(args))
	fb.connect(n, fv)
	fb.connect(n, fb.cur.store)
	for _, a := range args {
		fb.connect(n, a)
	}
	fb.cur.store = fb.output(n, nil, true)

	rt := fb.typeOf(e)
	if rt.Kind == ctypes.Void {
		return 0
	}
	return fb.output(n, rt, false)
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
func (fb *fnBuilder) builtinCall(name string, e *ast.Call) value {
	// Evaluate the arguments left to right for their effects.
	args := make([]value, 0, len(e.Args))
	for _, a := range e.Args {
		args = append(args, fb.expr(a))
	}
	pos := e.TokPos
	rt := fb.typeOf(e)

	arg := func(i int) value {
		if i < len(args) && args[i] != 0 {
			return args[i]
		}
		return fb.unknown(ctypes.IntType, pos)
	}

	switch name {
	case "malloc", "calloc", "fopen":
		return fb.alloc(name, 0, rt, pos)
	case "strdup":
		return fb.alloc(name, 0, rt, pos)
	case "realloc":
		// The result is either the original block or a fresh one.
		return fb.alloc(name, arg(0), rt, pos)

	case "strcpy", "strncpy", "strcat", "memcpy", "memset", "fgets", "strchr":
		// Identity on the store (they move only character/scalar data in
		// the subset); the result aliases the destination argument. The
		// node is effectful: it stays even when the result is unused.
		return fb.effectful(fb.primop(name, true, rt, pos, arg(0)))

	case "free", "fclose":
		// Identity on the store; under diagnostics the deallocation
		// becomes an explicit kill event the checkers key on.
		if fb.b.opts.Diagnostics {
			fb.freeEvent(arg(0), pos)
		}
		return 0

	case "exit", "abort", "srand":
		return 0 // void results, identity on the store

	default:
		// Everything else returns an opaque scalar (printf, strcmp,
		// strlen, math, ctype, ...). The call itself is effectful.
		if rt.Kind == ctypes.Void {
			return 0
		}
		return fb.effectful(fb.unknown(rt, pos))
	}
}

// alloc creates a heap allocation node. passThrough, when not 0, is a
// pointer whose pairs also flow to the result (realloc). Under
// diagnostics the node is kept even when its result is discarded, so
// the leak checker can see allocations whose pointer is dropped.
func (fb *fnBuilder) alloc(callName string, passThrough value, rt *ctypes.Type, pos token.Pos) value {
	base := fb.b.heapBaseFor(callName, pos)
	arity := 0
	if passThrough != 0 {
		arity = 1
	}
	n := fb.node(op{kind: KAlloc, pos: pos, path: fb.g.Universe.Root(base), effectful: fb.b.opts.Diagnostics}, arity)
	if passThrough != 0 {
		fb.connect(n, passThrough)
	}
	return fb.output(n, rt, false)
}

// freeEvent threads a KFree node through the store: input 0 the freed
// pointer, input 1 the store, output 0 the post-free store.
func (fb *fnBuilder) freeEvent(ptr value, pos token.Pos) {
	n := fb.node(op{kind: KFree, pos: pos, effectful: true}, 2)
	fb.connect(n, ptr)
	fb.connect(n, fb.cur.store)
	fb.cur.store = fb.output(n, nil, true)
}
