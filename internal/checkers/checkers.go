// Package checkers implements a suite of pointer-bug detectors driven
// by the context-insensitive points-to solution: use-after-free,
// dangling stack addresses, null dereferences, uninitialized pointer
// reads, and memory leaks.
//
// The checkers are may-analyses over may-information: a diagnostic
// means some abstract execution exhibits the bug, not that every
// concrete one does. They require a graph built with
// vdg.Options.Diagnostics, which instruments the program with marker
// locations (<null>, <uninit>) and explicit deallocation events
// (KFree); on an uninstrumented graph the null/uninit/free-based
// checkers are silently vacuous.
package checkers

import (
	"fmt"
	"sort"

	"aliaslab/internal/core"
	"aliaslab/internal/paths"
	"aliaslab/internal/sema"
	"aliaslab/internal/token"
	"aliaslab/internal/vdg"
)

// Severity ranks diagnostics.
type Severity int

const (
	// Warning marks likely bugs subject to may-analysis imprecision.
	Warning Severity = iota
	// Error marks bugs whose abstract witness is strong (e.g. a use
	// reached by a free of the same block along store dependences).
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Related is a secondary position attached to a diagnostic (the free
// site of a use-after-free, the allocation site of a leak, ...), in the
// diagnostic's file.
type Related struct {
	Pos     token.Pos
	Message string
}

// Diag is one diagnostic. File is the name of the translation unit
// the positions are in; Run sets it from the graph's program.
type Diag struct {
	File     string
	Pos      token.Pos
	Severity Severity
	Checker  string // the ID of the checker that produced it
	Message  string
	Related  []Related
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s: %s [%s]", d.Pos.In(d.File), d.Severity, d.Message, d.Checker)
}

// Context is the input every checker runs against: the instrumented
// whole-program VDG and its context-insensitive points-to solution.
type Context struct {
	Graph  *vdg.Graph
	Result *core.Result

	ownerOf map[*paths.Base]*vdg.FuncGraph // local base -> owning function
	objOf   map[*paths.Base]*sema.Object   // variable base -> declared object
}

// NewContext prepares a checker context.
func NewContext(g *vdg.Graph, res *core.Result) *Context {
	ctx := &Context{
		Graph:   g,
		Result:  res,
		ownerOf: make(map[*paths.Base]*vdg.FuncGraph),
		objOf:   make(map[*paths.Base]*sema.Object),
	}
	for obj, base := range g.BaseOf {
		ctx.objOf[base] = obj
		if obj.Owner != nil {
			if fg := g.FuncOf[obj.Owner]; fg != nil {
				ctx.ownerOf[base] = fg
			}
		}
	}
	return ctx
}

// localOwner returns the function whose frame holds the local base b,
// or nil when b is not local storage.
func (ctx *Context) localOwner(b *paths.Base) *vdg.FuncGraph {
	return ctx.ownerOf[b]
}

// storeReach runs the forward store-dependence walk from `from`,
// following interprocedural edges through the discovered call graph.
func (ctx *Context) storeReach(from *vdg.Output) map[*vdg.Output]bool {
	return vdg.ForwardStoreReach(from,
		func(call *vdg.Node) []*vdg.FuncGraph { return ctx.Result.Callees[call] },
		func(fg *vdg.FuncGraph) []*vdg.Node { return ctx.Result.Callers[fg] },
	)
}

// Checker is one registered detector.
type Checker struct {
	ID  string
	Doc string
	Run func(*Context) []Diag
}

// All lists the registered checkers in their canonical (reporting
// precedence) order.
var All = []*Checker{
	{ID: "uaf", Doc: "use of heap storage after it may have been freed, and double frees", Run: runUseAfterFree},
	{ID: "dangling", Doc: "address of a local escaping its frame (returned or stored globally)", Run: runDangling},
	{ID: "nullderef", Doc: "dereference of a pointer that may be null and is not null-checked", Run: runNullDeref},
	{ID: "uninit", Doc: "dereference of a pointer that may be uninitialized", Run: runUninit},
	{ID: "leak", Doc: "heap allocation unreachable from any root at program exit", Run: runLeak},
}

// IDs returns the canonical checker IDs in order.
func IDs() []string {
	ids := make([]string, len(All))
	for i, c := range All {
		ids[i] = c.ID
	}
	return ids
}

// Select resolves a list of checker IDs; an empty list selects all.
func Select(ids []string) ([]*Checker, error) {
	if len(ids) == 0 {
		return All, nil
	}
	byID := make(map[string]*Checker, len(All))
	for _, c := range All {
		byID[c.ID] = c
	}
	var out []*Checker
	seen := make(map[string]bool)
	for _, id := range ids {
		c, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown checker %q (have %v)", id, IDs())
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// Run executes the selected checkers over the context and returns the
// combined diagnostics in canonical order: by position, then checker
// ID, then message, with exact duplicates removed. The order is
// deterministic across runs — checkers iterate graph structures in
// creation order and never range over maps when emitting.
func Run(ctx *Context, selected []*Checker) []Diag {
	var diags []Diag
	for _, c := range selected {
		for _, d := range c.Run(ctx) {
			d.File = ctx.Graph.Prog.Name
			d.Checker = c.ID
			diags = append(diags, d)
		}
	}
	SortDiags(diags)
	return dedup(diags)
}

// SortDiags orders diagnostics by file, source position, checker ID,
// then message text.
func SortDiags(diags []Diag) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Checker != b.Checker {
			return a.Checker < b.Checker
		}
		return a.Message < b.Message
	})
}

func dedup(diags []Diag) []Diag {
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			prev := diags[i-1]
			if d.File == prev.File && d.Pos == prev.Pos && d.Checker == prev.Checker && d.Message == prev.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// sortedBaseNames renders a set of bases as a deterministic
// comma-separated list.
func sortedBaseNames(bases []*paths.Base) string {
	names := make([]string, len(bases))
	for i, b := range bases {
		names[i] = b.Name
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
