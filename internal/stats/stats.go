// Package stats computes the statistics reported in the paper's figures:
// program sizes and alias-related outputs (Figure 2), points-to pair
// censuses by output type (Figures 3 and 6), the list of indirect
// memory operations and their read/write referent histograms (Figure
// 4), spurious-pair computation (Figure 6), and the path × referent
// type breakdown (Figure 7).
package stats

import (
	"sort"

	"aliaslab/internal/core"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/paths"
	"aliaslab/internal/vdg"
)

// OutputClass classifies node outputs as in Figures 3 and 6.
type OutputClass int

const (
	PointerOut OutputClass = iota
	FunctionOut
	AggregateOut
	StoreOut
	OtherOut // scalar outputs: never carry points-to pairs
)

func (c OutputClass) String() string {
	switch c {
	case PointerOut:
		return "pointer"
	case FunctionOut:
		return "function"
	case AggregateOut:
		return "aggregate"
	case StoreOut:
		return "store"
	}
	return "other"
}

// ClassifyOutput returns the Figure 3 class of an output.
func ClassifyOutput(o *vdg.Output) OutputClass {
	if o.IsStore {
		return StoreOut
	}
	t := o.Type
	if t == nil {
		return OtherOut
	}
	switch t.Kind {
	case ctypes.Pointer:
		if t.Elem.Kind == ctypes.Func {
			return FunctionOut
		}
		return PointerOut
	case ctypes.Func:
		return FunctionOut
	case ctypes.Struct, ctypes.Array:
		if t.CanHoldPointer() {
			return AggregateOut
		}
		return OtherOut
	}
	return OtherOut
}

// IsAliasRelated reports whether an output can carry pointer or function
// values (Figure 2's "alias-related outputs").
func IsAliasRelated(o *vdg.Output) bool {
	return ClassifyOutput(o) != OtherOut
}

// SizeStats is one Figure 2 row.
type SizeStats struct {
	Name         string
	Lines        int
	Nodes        int
	AliasOutputs int
}

// Sizes computes the Figure 2 row for a graph.
func Sizes(name string, lines int, g *vdg.Graph) SizeStats {
	s := SizeStats{Name: name, Lines: lines, Nodes: g.NodeCount()}
	g.Outputs(func(o *vdg.Output) {
		if IsAliasRelated(o) {
			s.AliasOutputs++
		}
	})
	return s
}

// PairCensus is one Figure 3/6 row: points-to pair counts by the type of
// the output they appear on.
type PairCensus struct {
	Pointer   int
	Function  int
	Aggregate int
	Store     int
	Total     int
}

// Add accumulates another census (for TOTAL rows).
func (c *PairCensus) Add(d PairCensus) {
	c.Pointer += d.Pointer
	c.Function += d.Function
	c.Aggregate += d.Aggregate
	c.Store += d.Store
	c.Total += d.Total
}

// Census counts pairs per output class over a solution.
func Census(g *vdg.Graph, sets map[*vdg.Output]*core.PairSet) PairCensus {
	var c PairCensus
	g.Outputs(func(o *vdg.Output) {
		s := sets[o]
		if s == nil || s.Len() == 0 {
			return
		}
		n := s.Len()
		switch ClassifyOutput(o) {
		case PointerOut:
			c.Pointer += n
		case FunctionOut:
			c.Function += n
		case AggregateOut:
			c.Aggregate += n
		case StoreOut:
			c.Store += n
		default:
			// Pairs on scalar outputs would indicate an analysis bug;
			// count them under pointer to keep totals honest.
			c.Pointer += n
		}
		c.Total += n
	})
	return c
}

// OpHistogram is half a Figure 4 row (reads or writes).
type OpHistogram struct {
	Total   int    // indirect operations of this kind
	N       [4]int // operations referencing 1, 2, 3, >=4 locations
	Zero    int    // operations referencing no location (null-only pointers)
	Max     int
	SumRefs int
}

// Avg returns the average number of locations referenced per operation.
func (h OpHistogram) Avg() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.SumRefs) / float64(h.Total)
}

// add records one operation with n referents.
func (h *OpHistogram) add(n int) {
	h.Total++
	h.SumRefs += n
	if n > h.Max {
		h.Max = n
	}
	switch {
	case n == 0:
		h.Zero++
	case n >= 4:
		h.N[3]++
	default:
		h.N[n-1]++
	}
}

// IndirectOps is one Figure 4 row pair.
type IndirectOps struct {
	Reads  OpHistogram
	Writes OpHistogram
}

// IndirectOp is one indirect memory operation, rendered: an indirect
// lookup is a read and an indirect update a write.
type IndirectOp struct {
	Kind      string // "read" or "write"
	Pos       string // source position
	Function  string
	Referents []string // sorted
}

// forIndirect calls f on every indirect memory operation of g, in
// function and node order. The builder marks only lookups and updates
// Indirect, so the flag alone picks the paper's Figure 4 subjects.
func forIndirect(g *vdg.Graph, f func(fg *vdg.FuncGraph, n *vdg.Node)) {
	for _, fg := range g.Funcs {
		for _, n := range fg.Nodes {
			if n.Indirect {
				f(fg, n)
			}
		}
	}
}

// ListIndirect lists every indirect memory operation of g with the
// locations its location input may reference under the given solution.
// Positions are rendered in file.
func ListIndirect(g *vdg.Graph, file string, sets map[*vdg.Output]*core.PairSet) []IndirectOp {
	var out []IndirectOp
	forIndirect(g, func(fg *vdg.FuncGraph, n *vdg.Node) {
		op := IndirectOp{Kind: "read", Pos: n.Pos.In(file), Function: fg.Fn.Name}
		if n.Kind == vdg.KUpdate {
			op.Kind = "write"
		}
		if s := sets[n.Loc()]; s != nil {
			for _, r := range s.Referents() {
				op.Referents = append(op.Referents, r.String())
			}
		}
		sort.Strings(op.Referents)
		out = append(out, op)
	})
	return out
}

// CountIndirect computes the Figure 4 statistics: for every indirect
// lookup (read) and update (write), the number of distinct locations its
// location input may reference under the given solution.
func CountIndirect(g *vdg.Graph, sets map[*vdg.Output]*core.PairSet) IndirectOps {
	var io IndirectOps
	forIndirect(g, func(_ *vdg.FuncGraph, n *vdg.Node) {
		refs := referentCount(sets[n.Loc()])
		if n.Kind == vdg.KLookup {
			io.Reads.add(refs)
		} else {
			io.Writes.add(refs)
		}
	})
	return io
}

// IndirectDiff lists the indirect operations whose referent sets differ
// between two solutions (the paper's headline comparison: it is empty
// for CI vs CS on every benchmark).
func IndirectDiff(g *vdg.Graph, a, b map[*vdg.Output]*core.PairSet) []*vdg.Node {
	var diff []*vdg.Node
	forIndirect(g, func(_ *vdg.FuncGraph, n *vdg.Node) {
		if !sameReferents(a[n.Loc()], b[n.Loc()]) {
			diff = append(diff, n)
		}
	})
	return diff
}

// referentCount returns the number of ε-path pairs of s (nil: none),
// one per referent, since pairs are distinct.
func referentCount(s *core.PairSet) int {
	if s == nil {
		return 0
	}
	n := 0
	for _, k := range s.Keys() {
		if k.EmptyPath() {
			n++
		}
	}
	return n
}

// sameReferents reports whether a and b (either may be nil) have the
// same ε-path pairs: as many of them, and each of a's in b.
func sameReferents(a, b *core.PairSet) bool {
	n := referentCount(a)
	if n != referentCount(b) {
		return false
	}
	if n == 0 {
		return true
	}
	for _, k := range a.Keys() {
		if k.EmptyPath() && !b.HasKey(k) {
			return false
		}
	}
	return true
}

// Spurious computes the pairs found by CI but not by CS, per output
// class (Figure 6's "percent spurious") and as a raw list for Figure 7.
type SpuriousPair struct {
	Output *vdg.Output
	Pair   core.Pair
}

// SpuriousPairs returns every (output, pair) present in ci but absent in
// cs, in deterministic order.
func SpuriousPairs(g *vdg.Graph, ci, cs map[*vdg.Output]*core.PairSet) []SpuriousPair {
	var out []SpuriousPair
	g.Outputs(func(o *vdg.Output) {
		cis := ci[o]
		if cis == nil {
			return
		}
		css := cs[o]
		for _, k := range cis.Keys() {
			if css == nil || !css.HasKey(k) {
				out = append(out, SpuriousPair{Output: o, Pair: cis.Pair(k)})
			}
		}
	})
	return out
}

// PathClass indexes Figure 7 rows.
var PathClasses = []paths.StorageClass{paths.OffsetClass, paths.LocalClass, paths.GlobalClass, paths.HeapClass}

// RefClasses indexes Figure 7 columns.
var RefClasses = []paths.StorageClass{paths.FuncClass, paths.LocalClass, paths.GlobalClass, paths.HeapClass}

// TypeMatrix is a Figure 7 table: counts of pairs by path class (row)
// and referent class (column).
type TypeMatrix struct {
	Counts map[paths.StorageClass]map[paths.StorageClass]int
	Total  int
}

// NewTypeMatrix returns an empty matrix.
func NewTypeMatrix() *TypeMatrix {
	m := &TypeMatrix{Counts: make(map[paths.StorageClass]map[paths.StorageClass]int)}
	for _, r := range PathClasses {
		m.Counts[r] = make(map[paths.StorageClass]int)
	}
	return m
}

// AddPair records one pair.
func (m *TypeMatrix) AddPair(p core.Pair) {
	pc := p.Path.Class()
	rc := p.Ref.Class()
	if _, ok := m.Counts[pc]; !ok {
		m.Counts[pc] = make(map[paths.StorageClass]int)
	}
	m.Counts[pc][rc]++
	m.Total++
}

// Merge accumulates src's counts into m.
func (m *TypeMatrix) Merge(src *TypeMatrix) {
	for pc, row := range src.Counts {
		if _, ok := m.Counts[pc]; !ok {
			m.Counts[pc] = make(map[paths.StorageClass]int)
		}
		for rc, n := range row {
			m.Counts[pc][rc] += n
			m.Total += n
		}
	}
}

// Percent returns the share of pairs in cell (path, ref), in percent.
func (m *TypeMatrix) Percent(path, ref paths.StorageClass) float64 {
	if m.Total == 0 {
		return 0
	}
	return 100 * float64(m.Counts[path][ref]) / float64(m.Total)
}

// BreakdownAll builds the Figure 7 matrix over every pair of a solution.
func BreakdownAll(g *vdg.Graph, sets map[*vdg.Output]*core.PairSet) *TypeMatrix {
	m := NewTypeMatrix()
	g.Outputs(func(o *vdg.Output) {
		if s := sets[o]; s != nil {
			for _, k := range s.Keys() {
				m.AddPair(s.Pair(k))
			}
		}
	})
	return m
}

// BreakdownSpurious builds the Figure 7 matrix over spurious pairs only.
func BreakdownSpurious(sp []SpuriousPair) *TypeMatrix {
	m := NewTypeMatrix()
	for _, s := range sp {
		m.AddPair(s.Pair)
	}
	return m
}

// CallGraphStats summarizes the discovered call graph (§5.1.2: sparse
// call graphs contribute to the lack of spurious pairs).
type CallGraphStats struct {
	Procedures   int // procedures with at least one caller
	Edges        int
	AvgCallers   float64
	SingleCaller int // procedures with exactly one call site
}

// CallGraph computes caller statistics from a CI result.
func CallGraph(res *core.Result) CallGraphStats {
	var s CallGraphStats
	totalCallers := 0
	for _, fg := range res.Graph.Funcs {
		callers := len(res.Callers[fg])
		if callers == 0 {
			continue
		}
		s.Procedures++
		totalCallers += callers
		s.Edges += callers
		if callers == 1 {
			s.SingleCaller++
		}
	}
	if s.Procedures > 0 {
		s.AvgCallers = float64(totalCallers) / float64(s.Procedures)
	}
	return s
}
