package vdg_test

import (
	"fmt"
	"testing"
	"unsafe"

	"aliaslab/internal/corpus"
	"aliaslab/internal/corpusgen"
	"aliaslab/internal/parser"
	"aliaslab/internal/sema"
	"aliaslab/internal/vdg"
)

// layoutOptions are the builds the well-formedness check covers: every
// option that changes which nodes the builder creates.
var layoutOptions = []struct {
	name string
	opts vdg.Options
}{
	{"plain", vdg.Options{}},
	{"diagnostics", vdg.Options{Diagnostics: true}},
	{"nossa", vdg.Options{NoSSA: true}},
	{"singleheap", vdg.Options{SingleHeapBase: true}},
}

// wellFormed checks the edge invariants of a built graph. The
// per-function node, output, input and edge-list arrays the builder
// emits must leave every edge where the builder's value table put it:
//   - each input of a live node records that node and its index, is
//     the graph's input for its ID, and appears exactly once among its
//     source's consumers;
//   - each output of a live node records that node and its index, and
//     each of its consumers reads from it and sits on a live node.
//
// It returns the first violation found, or nil.
func wellFormed(g *vdg.Graph) error {
	live := make(map[*vdg.Node]bool)
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			live[n] = true
		}
	}
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			for i, in := range n.Inputs {
				if in.Node != n || in.Index != i {
					return fmt.Errorf("%s#%d input %d records node %s#%d index %d", n.Kind, n.ID, i, in.Node.Kind, in.Node.ID, in.Index)
				}
				if got := g.Input(in.ID); got != in {
					return fmt.Errorf("%s#%d input %d: Graph.Input(%d) is another input", n.Kind, n.ID, i, in.ID)
				}
				seen := 0
				for _, c := range in.Src.Consumers {
					if c == in {
						seen++
					}
				}
				if seen != 1 {
					return fmt.Errorf("%s#%d input %d appears %d times among the consumers of %s", n.Kind, n.ID, i, seen, in.Src)
				}
			}
			for i, o := range n.Outputs {
				if o.Node != n || o.Index != i {
					return fmt.Errorf("%s#%d output %d records node #%d index %d", n.Kind, n.ID, i, o.Node.ID, o.Index)
				}
				for _, c := range o.Consumers {
					if c.Src != o {
						return fmt.Errorf("consumer of %s reads from %s", o, c.Src)
					}
					if !live[c.Node] {
						return fmt.Errorf("consumer of %s sits on deleted node %s#%d", o, c.Node.Kind, c.Node.ID)
					}
				}
			}
		}
	}
	return nil
}

// unit is one program the layout tests build.
type unit struct{ name, src string }

// layoutUnits are the corpus programs and the first 200 generated
// units of seed 42 (the seed-42 SweepKnobs population).
func layoutUnits() []unit {
	var units []unit
	for _, p := range corpus.All() {
		units = append(units, unit{p.Name, p.Source})
	}
	for _, p := range corpusgen.Sweep(42, 200) {
		units = append(units, unit{p.Name, p.Source})
	}
	return units
}

// check parses and checks a unit.
func (u unit) check(t *testing.T) *sema.Program {
	t.Helper()
	f, perrs := parser.ParseFile(u.name, u.src)
	if len(perrs) > 0 {
		t.Fatalf("%s: %v", u.name, perrs[0])
	}
	prog, serrs := sema.Check(f)
	if len(serrs) > 0 {
		t.Fatalf("%s: %v", u.name, serrs[0])
	}
	return prog
}

// buildProg builds a checked unit.
func buildProg(t *testing.T, name string, prog *sema.Program, opts vdg.Options) *vdg.Graph {
	t.Helper()
	g, berrs := vdg.Build(prog, opts)
	if len(berrs) > 0 {
		t.Fatalf("%s: %v", name, berrs[0])
	}
	return g
}

// TestGraphWellFormed runs the edge invariants and the numbering check
// over the layout units, under every layout option.
func TestGraphWellFormed(t *testing.T) {
	for _, u := range layoutUnits() {
		prog := u.check(t)
		for _, o := range layoutOptions {
			g := buildProg(t, u.name, prog, o.opts)
			if err := wellFormed(g); err != nil {
				t.Errorf("%s/%s: %v", u.name, o.name, err)
			}
			if err := denseIDs(g); err != nil {
				t.Errorf("%s/%s: %v", u.name, o.name, err)
			}
		}
	}
}

// denseIDs checks the graph's numbering. The builder numbers only what
// it builds, so every table indexed by an ID is exactly as long as its
// count: node, output and input IDs each cover [0, count) exactly once, node IDs increase along the
// function graphs' node lists, Graph.Input maps each input ID back to
// its input, and NodeCount and OutputCount are the walked totals. It
// returns the first violation found, or nil.
func denseIDs(g *vdg.Graph) error {
	var nodes, outputs []int
	var inputs []*vdg.Input
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if len(nodes) > 0 && n.ID <= nodes[len(nodes)-1] {
				return fmt.Errorf("%s#%d follows node #%d", n.Kind, n.ID, nodes[len(nodes)-1])
			}
			nodes = append(nodes, n.ID)
			for _, o := range n.Outputs {
				outputs = append(outputs, o.ID)
			}
			inputs = append(inputs, n.Inputs...)
		}
	}
	if g.NodeCount() != len(nodes) || g.OutputCount() != len(outputs) {
		return fmt.Errorf("NodeCount %d, OutputCount %d; the graph has %d nodes, %d outputs",
			g.NodeCount(), g.OutputCount(), len(nodes), len(outputs))
	}
	inputIDs := make([]int, len(inputs))
	for i, in := range inputs {
		inputIDs[i] = in.ID
	}
	for _, ids := range []struct {
		kind string
		ids  []int
	}{{"node", nodes}, {"output", outputs}, {"input", inputIDs}} {
		seen := make([]bool, len(ids.ids))
		for _, id := range ids.ids {
			if id < 0 || id >= len(seen) || seen[id] {
				return fmt.Errorf("%s ID %d repeats or falls outside [0, %d)", ids.kind, id, len(seen))
			}
			seen[id] = true
		}
	}
	for id := range inputs {
		if got := g.Input(id).ID; got != id {
			return fmt.Errorf("Graph.Input(%d) has ID %d", id, got)
		}
	}
	return nil
}

// pure reports whether a node has no effect beyond its outputs: such a
// node is worth building only if something reads one of them.
func pure(n *vdg.Node) bool {
	if n.Effectful {
		return false
	}
	switch n.Kind {
	case vdg.KConst, vdg.KAddr, vdg.KFieldAddr, vdg.KIndexAddr, vdg.KLookup, vdg.KPrimop,
		vdg.KExtract, vdg.KGamma, vdg.KUnknown, vdg.KAlloc, vdg.KUpdate:
		return true
	}
	return false
}

// TestEveryBuiltNodeIsRead checks, over the layout units as plain and
// diagnostics builds, that every pure node has a consumed output: the
// builder creates no node the analysis never reads, so a dead-node
// sweep over the graph would find nothing to delete.
func TestEveryBuiltNodeIsRead(t *testing.T) {
	for _, u := range layoutUnits() {
		prog := u.check(t)
		for _, o := range layoutOptions[:2] {
			g := buildProg(t, u.name, prog, o.opts)
			for _, fg := range g.Funcs {
				for _, n := range fg.Nodes {
					if !pure(n) {
						continue
					}
					read := false
					for _, out := range n.Outputs {
						read = read || len(out.Consumers) > 0
					}
					if !read {
						t.Errorf("%s/%s: %s#%d at %d:%d is built but never read",
							u.name, o.name, n.Kind, n.ID, n.Pos.Line, n.Pos.Col)
					}
				}
			}
		}
	}
}

// TestBuildAllocsPerNode bounds the heap allocations of one VDG build
// of bc per node it builds. With one allocation per node, output,
// input and edge-slice growth the figure was about 9 per created node;
// the slabs and the slot-indexed environment brought it to 0.87 per
// created node, 1.40 per built one, when a third of the created nodes
// were dead. The builder now builds only the nodes something reads,
// each function's nodes, outputs, inputs and edge lists in one array
// apiece: 881 allocations for 782 nodes, 1.13 per node (plain and
// diagnostics alike). 1.5 (about +33%) leaves room for toolchain drift
// while a return to per-node allocation fails; it allows 1,173
// allocations where the earlier bound of 1.2 per created node allowed
// 1,514.
func TestBuildAllocsPerNode(t *testing.T) {
	p, err := corpus.Get("bc")
	if err != nil {
		t.Fatal(err)
	}
	f, perrs := parser.ParseFile(p.Name, p.Source)
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	prog, serrs := sema.Check(f)
	if len(serrs) > 0 {
		t.Fatal(serrs[0])
	}
	const maxPerNode = 1.5
	for _, o := range layoutOptions[:2] {
		var g *vdg.Graph
		allocs := testing.AllocsPerRun(5, func() { g, _ = vdg.Build(prog, o.opts) })
		perNode := allocs / float64(g.NodeCount())
		t.Logf("%s: %.0f allocations for %d built nodes (%.2f per node)", o.name, allocs, g.NodeCount(), perNode)
		if perNode > maxPerNode {
			t.Errorf("%s: %.2f allocations per built node, want at most %.1f", o.name, perNode, maxPerNode)
		}
	}
}

// edgeOrder renders a graph's edge numbering: for every live node in
// creation order, the ID and source of each input, then the input IDs
// of each output's consumers, in order.
func edgeOrder(g *vdg.Graph) []int {
	var out []int
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			out = append(out, -1, n.ID)
			for _, in := range n.Inputs {
				out = append(out, in.ID, in.Src.ID)
			}
			for _, o := range n.Outputs {
				out = append(out, -2, o.ID)
				for _, c := range o.Consumers {
					out = append(out, c.ID)
				}
			}
		}
	}
	return out
}

// TestBuildIsDeterministic builds every layout unit three times under
// each layout option and requires the same node, output and input IDs
// and the same consumer order: the second build parses and checks the
// unit afresh, the third builds again from the first build's checked
// program, which a build must not write to. Loop headers once wired
// their back edges ranging over a map, which numbered the inputs
// differently from build to build; the builder's value table must keep
// its evaluation order, and the parser and checker must hand it the
// same expression and object numbering.
func TestBuildIsDeterministic(t *testing.T) {
	for _, u := range layoutUnits() {
		for _, o := range layoutOptions {
			prog := u.check(t)
			a := edgeOrder(buildProg(t, u.name, prog, o.opts))
			for _, again := range []struct {
				name string
				prog *sema.Program
			}{{"reparsed", u.check(t)}, {"rebuilt", prog}} {
				b := edgeOrder(buildProg(t, u.name, again.prog, o.opts))
				if len(a) != len(b) {
					t.Errorf("%s/%s %s: %d vs %d edge entries", u.name, o.name, again.name, len(a), len(b))
					continue
				}
				for i := range a {
					if a[i] != b[i] {
						t.Errorf("%s/%s %s: builds differ at edge entry %d (%d vs %d)", u.name, o.name, again.name, i, a[i], b[i])
						break
					}
				}
			}
		}
	}
}

// TestNodeSize pins the size of a graph node, built by the thousand
// per unit (a token.Pos without a file name is two words).
func TestNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(vdg.Node{}); got > 144 {
		t.Errorf("vdg.Node is %d bytes, want at most 144", got)
	}
}
