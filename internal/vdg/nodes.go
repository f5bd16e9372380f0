// Package vdg implements the value dependence graph intermediate
// representation used by the paper's analyses, and its construction
// from checked mini-C programs.
//
// The VDG is a sparse dataflow representation: computation is expressed
// by nodes consuming input values and producing output values, with
// memory state threaded as explicit first-class *store* values through
// lookup and update nodes. Non-addressed scalar variables never touch
// the store (the paper's "SSA-like transformation that removes
// non-addressed variables from the store"), which is what makes the
// representation sparse.
package vdg

import (
	"fmt"

	"aliaslab/internal/ctypes"
	"aliaslab/internal/paths"
	"aliaslab/internal/sema"
	"aliaslab/internal/token"
)

// NodeKind discriminates VDG node types.
type NodeKind uint8

const (
	// KParam is a formal parameter of a function; one output.
	KParam NodeKind = iota
	// KStoreParam is the store formal of a function; one store output.
	KStoreParam
	// KConst is an opaque scalar constant (integers, floats, null); one
	// output carrying no points-to pairs.
	KConst
	// KAddr is an address constant: its output is a pointer to the
	// attached base location's root path. Variable references, function
	// references, and string literals produce KAddr nodes.
	KAddr
	// KFieldAddr computes &(*p).f from p; input 0 is the pointer, the
	// field name is attached. Its transfer extends referent paths.
	KFieldAddr
	// KIndexAddr computes &p[i] from p; input 0 is the pointer. All
	// indices are merged into the [*] operator.
	KIndexAddr
	// KLookup reads storage: input 0 is the location (a pointer value),
	// input 1 the store; the output is the loaded value.
	KLookup
	// KUpdate writes storage: input 0 the location, input 1 the store,
	// input 2 the value; the output is the new store.
	KUpdate
	// KCall invokes a function value: input 0 the function, input 1 the
	// store, inputs 2.. the actuals. Output 0 is the post-call store;
	// output 1 (when present) the result value.
	KCall
	// KReturn is the unique return sink of a function: input 0 the
	// store, input 1 (when present) the return value. No outputs.
	KReturn
	// KGamma merges values (or stores) from alternative control paths;
	// all inputs, one output. Loops create gammas whose back-edge input
	// is filled in after the body is built.
	KGamma
	// KPrimop is a primitive operation over scalar/pointer values. When
	// Transparent is set, points-to pairs flow from pointer operands to
	// the output unchanged (pointer arithmetic stays within its array,
	// per the paper's standard caveat).
	KPrimop
	// KExtract projects a member out of an aggregate *value* (not
	// storage): pairs with offset paths beginning with the member's
	// operator are re-rooted at ε.
	KExtract
	// KAlloc is a heap allocation site; its output points to the
	// attached heap base location. For realloc, input 0 is the old
	// pointer and its pairs pass through as well.
	KAlloc
	// KUnknown produces an opaque value with no pairs (results of
	// unmodeled library calls).
	KUnknown
	// KFree is a deallocation event, built only under
	// Options.Diagnostics: input 0 is the freed pointer, input 1 the
	// store; output 0 is the post-free store. The store passes through
	// unchanged (freeing kills no pairs — a may-analysis must keep
	// them), but checkers treat the node as a kill event on the heap
	// bases its pointer input may denote.
	KFree
)

// OpChecked is the KPrimop operator of a guard-refinement filter: a
// transparent pass-through that drops pairs whose referent is a
// diagnostics marker (null or uninit). The builder inserts such nodes
// on branches guarded by a pointer test, e.g. the body of `if (p)`.
const OpChecked = "checked"

func (k NodeKind) String() string {
	switch k {
	case KParam:
		return "param"
	case KStoreParam:
		return "storeparam"
	case KConst:
		return "const"
	case KAddr:
		return "addr"
	case KFieldAddr:
		return "fieldaddr"
	case KIndexAddr:
		return "indexaddr"
	case KLookup:
		return "lookup"
	case KUpdate:
		return "update"
	case KCall:
		return "call"
	case KReturn:
		return "return"
	case KGamma:
		return "gamma"
	case KPrimop:
		return "primop"
	case KExtract:
		return "extract"
	case KAlloc:
		return "alloc"
	case KUnknown:
		return "unknown"
	case KFree:
		return "free"
	}
	return fmt.Sprintf("node(%d)", int(k))
}

// Input is one incoming edge of a node.
type Input struct {
	Node  *Node
	Index int
	Src   *Output

	// ID numbers the graph's inputs densely, node by node in build
	// order and slot by slot within a node; Graph.Input maps it back,
	// so solvers can queue arrivals without pointers.
	ID int
}

// Output is one value produced by a node. Points-to analysis attaches a
// pair set to every output.
type Output struct {
	Node  *Node
	Index int

	// Type is the C type of the value; nil for store outputs.
	Type    *ctypes.Type
	IsStore bool

	// Consumers are the inputs this output feeds.
	Consumers []*Input

	// ID numbers the graph's outputs densely, 0 to OutputCount()-1,
	// in the order the builder evaluated them.
	ID int
}

func (o *Output) String() string {
	return fmt.Sprintf("%s#%d.%d", o.Node.Kind, o.Node.ID, o.Index)
}

// Node is one VDG operation. Kind sits with the flags at the end, so a
// node is 136 bytes.
type Node struct {
	// ID numbers the graph's nodes densely, 0 to NodeCount()-1, in
	// build order: IDs increase along Graph.Funcs and FuncGraph.Nodes.
	ID  int
	Fn  *FuncGraph
	Pos token.Pos

	Inputs  []*Input
	Outputs []*Output

	// KAddr / KAlloc: the addressed path (root of a base location).
	Path *paths.Path

	// KFieldAddr / KExtract: the member name.
	Field string

	// KParam: the parameter object; KAddr for variables: the object.
	Obj *sema.Object

	// KPrimop: operator spelling, and whether pointer pairs pass through.
	Op          string
	Transparent bool

	// KLookup / KUpdate: set when the location input is not a constant
	// address chain (i.e. the operation dereferences a pointer); never
	// set on other kinds. Used by the Figure 4 statistics.
	Indirect bool

	// Effectful marks nodes that model library calls with I/O or other
	// side effects; they are kept even when their results are unused
	// (the paper's compress and span keep dead library results, which is
	// where their only spurious pointer pairs live).
	Effectful bool

	Kind NodeKind
}

// Loc returns the location input of a lookup/update node.
func (n *Node) Loc() *Output { return n.Inputs[0].Src }

// StoreIn returns the store input of a lookup/update/call node.
func (n *Node) StoreIn() *Output { return n.Inputs[1].Src }

// Value returns the value input of an update node.
func (n *Node) Value() *Output { return n.Inputs[2].Src }

// FuncGraph is the VDG of one function.
type FuncGraph struct {
	Fn    *sema.Function
	Graph *Graph

	Nodes []*Node

	// ParamOuts maps each parameter (in order) to its formal output.
	ParamOuts []*Output
	// StoreParam is the store formal output.
	StoreParam *Output
	// Return is the return sink; nil when no return path is reachable.
	Return *Node

	// Calls lists the KCall nodes in this function, for iteration.
	Calls []*Node
}

// ReturnStore returns the store input of the return sink, or nil.
func (fg *FuncGraph) ReturnStore() *Output {
	if fg.Return == nil {
		return nil
	}
	return fg.Return.Inputs[0].Src
}

// ReturnValue returns the value input of the return sink, or nil.
func (fg *FuncGraph) ReturnValue() *Output {
	if fg.Return == nil || len(fg.Return.Inputs) < 2 {
		return nil
	}
	return fg.Return.Inputs[1].Src
}

// Graph is the whole-program VDG plus the path universe.
type Graph struct {
	Prog     *sema.Program
	Universe *paths.Universe

	Funcs      []*FuncGraph
	FuncOf     map[*sema.Function]*FuncGraph
	FuncByBase map[*paths.Base]*FuncGraph

	// BaseOf maps store-resident variables to their base locations.
	BaseOf map[*sema.Object]*paths.Base

	// VarValues maps each source variable to the outputs that carry its
	// value somewhere in the program: every rvalue occurrence (the SSA
	// environment value, or the lookup that loads a store-resident
	// variable) and every value assigned to it. The demand query layer
	// anchors MayAlias/PointsTo expressions here. A value a trivial
	// gamma forwarded is recorded as the gamma's source, and a value
	// nothing reads is not recorded, so every entry is a built output.
	VarValues map[*sema.Object][]*Output

	// Entry is the graph of main.
	Entry *FuncGraph

	// The numbers of nodes and outputs built so far: the next ID of
	// each kind.
	nNodes, nOutputs int

	inputs []*Input // by Input.ID; its length is the next input ID
}

// NodeCount returns the number of nodes in the whole program, the
// length of a table indexed by node ID.
func (g *Graph) NodeCount() int { return g.nNodes }

// OutputCount returns the number of outputs in the whole program, the
// length of a table indexed by output ID.
func (g *Graph) OutputCount() int { return g.nOutputs }

// Outputs calls f for every output in deterministic (creation) order.
func (g *Graph) Outputs(f func(*Output)) {
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			for _, o := range n.Outputs {
				f(o)
			}
		}
	}
}

// Input returns the input with the given ID.
func (g *Graph) Input(id int) *Input { return g.inputs[id] }
