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

// wellFormed checks the edge invariants of a built graph. The node,
// output and input slabs and the edge slices carved from shared chunks
// must leave every edge where Connect, Rewire and the dead-node sweep
// put it:
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

// TestGraphWellFormed runs the edge invariants over the corpus and the
// first 200 generated units of seed 42, under every layout option.
func TestGraphWellFormed(t *testing.T) {
	type unit struct{ name, src string }
	var units []unit
	for _, p := range corpus.All() {
		units = append(units, unit{p.Name, p.Source})
	}
	for _, p := range corpusgen.Sweep(42, 200) {
		units = append(units, unit{p.Name, p.Source})
	}
	for _, o := range layoutOptions {
		for _, u := range units {
			f, perrs := parser.ParseFile(u.name, u.src)
			if len(perrs) > 0 {
				t.Fatalf("%s: %v", u.name, perrs[0])
			}
			prog, serrs := sema.Check(f)
			if len(serrs) > 0 {
				t.Fatalf("%s: %v", u.name, serrs[0])
			}
			g, berrs := vdg.Build(prog, o.opts)
			if len(berrs) > 0 {
				t.Fatalf("%s/%s: %v", u.name, o.name, berrs[0])
			}
			if err := wellFormed(g); err != nil {
				t.Errorf("%s/%s: %v", u.name, o.name, err)
			}
		}
	}
}

// TestBuildAllocsPerNode bounds the heap allocations of one VDG build
// of bc per node it creates. With one allocation per node, output,
// input and edge-slice growth the figure was about 9; the slabs bring
// it to about 2, and 4 leaves room for toolchain drift.
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
	const maxPerNode = 4
	for _, o := range layoutOptions[:2] {
		var g *vdg.Graph
		allocs := testing.AllocsPerRun(5, func() { g, _ = vdg.Build(prog, o.opts) })
		perNode := allocs / float64(g.NodeIDs())
		t.Logf("%s: %.0f allocations for %d created nodes (%.2f per node)", o.name, allocs, g.NodeIDs(), perNode)
		if perNode > maxPerNode {
			t.Errorf("%s: %.2f allocations per created node, want at most %d", o.name, perNode, maxPerNode)
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

// TestBuildIsDeterministic builds every corpus program twice under each
// layout option and requires the same node, output and input IDs and
// the same consumer order. Loop headers once wired their back edges
// ranging over a map, which numbered the inputs differently from build
// to build.
func TestBuildIsDeterministic(t *testing.T) {
	build := func(name, src string, opts vdg.Options) []int {
		f, perrs := parser.ParseFile(name, src)
		if len(perrs) > 0 {
			t.Fatalf("%s: %v", name, perrs[0])
		}
		prog, serrs := sema.Check(f)
		if len(serrs) > 0 {
			t.Fatalf("%s: %v", name, serrs[0])
		}
		g, berrs := vdg.Build(prog, opts)
		if len(berrs) > 0 {
			t.Fatalf("%s: %v", name, berrs[0])
		}
		return edgeOrder(g)
	}
	for _, o := range layoutOptions {
		for _, p := range corpus.All() {
			a, b := build(p.Name, p.Source, o.opts), build(p.Name, p.Source, o.opts)
			if len(a) != len(b) {
				t.Errorf("%s/%s: %d vs %d edge entries", p.Name, o.name, len(a), len(b))
				continue
			}
			for i := range a {
				if a[i] != b[i] {
					t.Errorf("%s/%s: builds differ at edge entry %d (%d vs %d)", p.Name, o.name, i, a[i], b[i])
					break
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
