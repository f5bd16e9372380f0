// Package paths implements the access-path domain of the paper:
// base locations naming allocation sites, access operators for
// structure/union members and (collapsed) array elements, and interned
// access paths with the `+` (append), `-` (prefix subtraction), `dom`,
// and `strong-dom` operations of [Ruf95, Figure 1].
//
// A path with a base location denotes storage (a *location*); a path
// with no base is an *offset* denoting relative addressing into an
// aggregate value. Interning guarantees that two equal paths are the
// same pointer, so that a path is aliased only to its prefixes and path
// sets can be maps keyed by pointer.
package paths

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// BaseKind classifies base locations for the Figure 7 breakdowns.
type BaseKind int

const (
	// VarBase names a global or local variable (one base per variable).
	VarBase BaseKind = iota
	// HeapBase names a static invocation site of allocating library code.
	HeapBase
	// FuncBase names a function (function values are locations too).
	FuncBase
	// StrBase names the anonymous storage of a string literal. The paper
	// counts string literal storage as global (Figure 7 note).
	StrBase
	// NullBase is the marker location denoting the null pointer constant.
	// It exists only in graphs built with diagnostics instrumentation
	// (vdg.Options.Diagnostics); dereferencing a value that may denote it
	// is a candidate null-dereference bug.
	NullBase
	// UninitBase is the marker location denoting the value of an
	// uninitialized pointer. Like NullBase it appears only in
	// diagnostics-instrumented graphs.
	UninitBase
)

func (k BaseKind) String() string {
	switch k {
	case VarBase:
		return "var"
	case HeapBase:
		return "heap"
	case FuncBase:
		return "func"
	case StrBase:
		return "string"
	case NullBase:
		return "null"
	case UninitBase:
		return "uninit"
	}
	return "base"
}

// StorageClass is the locality used in the paper's Figure 7 tables.
type StorageClass int

const (
	OffsetClass StorageClass = iota // paths with no base location
	LocalClass                      // locals and parameters
	GlobalClass                     // globals, statics, string literals
	HeapClass                       // allocation-site storage
	FuncClass                       // function base locations (referent side)
)

func (c StorageClass) String() string {
	switch c {
	case OffsetClass:
		return "offset"
	case LocalClass:
		return "local"
	case GlobalClass:
		return "global"
	case HeapClass:
		return "heap"
	case FuncClass:
		return "function"
	}
	return "class"
}

// Base is a base location.
type Base struct {
	Kind BaseKind
	Name string // diagnostic name, e.g. "main.buf", "malloc@12", "f"

	// Local reports local/parameter storage (for StorageClass).
	Local bool

	// Summary marks bases that may denote multiple runtime locations
	// (heap sites, locals of recursive procedures under the weak scheme,
	// the "all older instances" base of the Cooper scheme). Summary
	// bases can never be strongly updated.
	Summary bool

	// ID is unique within a Universe, in creation order.
	ID int
}

func (b *Base) String() string { return b.Name }

// Marker reports whether the base is a diagnostics marker (null or
// uninit) rather than real storage.
func (b *Base) Marker() bool {
	return b.Kind == NullBase || b.Kind == UninitBase
}

// Class returns the storage class of the base. Marker bases report
// GlobalClass; they never appear outside diagnostics-instrumented runs.
func (b *Base) Class() StorageClass {
	switch b.Kind {
	case FuncBase:
		return FuncClass
	case HeapBase:
		return HeapClass
	case StrBase:
		return GlobalClass
	case VarBase:
		if b.Local {
			return LocalClass
		}
		return GlobalClass
	}
	return GlobalClass
}

// Op is one access operator: a member selection or a collapsed array
// subscript ([*], all indices merged — the paper performs no array
// dependence analysis). Union marks members of union types: distinct
// union members overlap in storage, which the dom relation must model
// (the paper's "static aliasing due to C's union types").
type Op struct {
	Field string // member name; empty for array access
	Array bool
	Union bool
}

func (o Op) String() string {
	if o.Array {
		return "[*]"
	}
	if o.Union {
		return "!" + o.Field
	}
	return "." + o.Field
}

// Overlaps reports whether two operators at the same position in a path
// may denote overlapping storage: identical operators always do, and so
// do distinct members of the same union.
func (o Op) Overlaps(p Op) bool {
	if o == p {
		return true
	}
	return o.Union && p.Union
}

// Path is an interned access path: an optional base location followed by
// a sequence of access operators. The zero-length offset path (no base,
// no operators) is the ε path denoting "the value itself".
type Path struct {
	base   *Base
	parent *Path // nil at the root
	op     Op    // valid when parent != nil

	depth int // number of operators
	id    int // unique within the Universe

	// ext interns extensions: ext[op] == the path this+op.
	ext map[Op]*Path
}

// Base returns the path's base location, or nil for offsets.
func (p *Path) Base() *Base { return p.base }

// IsOffset reports whether the path has no base location.
func (p *Path) IsOffset() bool { return p.base == nil }

// IsEmptyOffset reports whether p is the ε path.
func (p *Path) IsEmptyOffset() bool { return p.base == nil && p.parent == nil }

// Depth returns the number of access operators in the path.
func (p *Path) Depth() int { return p.depth }

// ID returns the path's unique id (creation order, deterministic for a
// deterministic construction sequence).
func (p *Path) ID() int { return p.id }

// Class returns the storage class used by the Figure 7 breakdown.
func (p *Path) Class() StorageClass {
	if p.base == nil {
		return OffsetClass
	}
	return p.base.Class()
}

// HasArrayOp reports whether any operator in the path is an array access.
func (p *Path) HasArrayOp() bool {
	for q := p; q.parent != nil; q = q.parent {
		if q.op.Array {
			return true
		}
	}
	return false
}

// StronglyUpdatable reports whether the path denotes at most one runtime
// location: its base names a single location and no operator is an
// array access ([Ruf95] strong-dom definition).
func (p *Path) StronglyUpdatable() bool {
	if p.base == nil || p.base.Summary {
		return false
	}
	return !p.HasArrayOp()
}

// String renders the path, e.g. "g.next[*].name" or "<.f>" for offsets.
func (p *Path) String() string {
	var ops []Op
	for q := p; q.parent != nil; q = q.parent {
		ops = append(ops, q.op)
	}
	var sb strings.Builder
	if p.base != nil {
		sb.WriteString(p.base.Name)
	} else {
		sb.WriteString("ε")
	}
	for i := len(ops) - 1; i >= 0; i-- {
		sb.WriteString(ops[i].String())
	}
	return sb.String()
}

// EmptyID is the ID of the ε path: NewUniverse interns it first, so a
// packed pair whose path half is EmptyID is an ε-path pair without any
// lookup.
const EmptyID = 0

// Universe creates and interns bases and paths for one analysis run.
// Interning is single-writer; ByID may run concurrently with it.
type Universe struct {
	bases []*Base
	roots map[*Base]*Path
	empty *Path

	// table maps ID → path; intern appends to it. byID publishes the
	// table's full-capacity view whenever intern moves it to a larger
	// array. A slot is written once, before its ID is handed out, and a
	// published array is never written again after a move, so ByID
	// never races an intern running on another goroutine (a demand
	// solve extending the universe while a finished result is read).
	table []*Path
	byID  atomic.Pointer[[]*Path]

	nullRoot   *Path
	uninitRoot *Path
}

// NewUniverse returns an empty universe containing only the ε path.
func NewUniverse() *Universe {
	u := &Universe{roots: make(map[*Base]*Path)}
	u.empty = u.intern(&Path{})
	return u
}

// intern assigns p the next ID and records it in the ID table.
func (u *Universe) intern(p *Path) *Path {
	p.id = len(u.table)
	if len(u.table) == cap(u.table) {
		grown := make([]*Path, len(u.table), max(64, 2*len(u.table)))
		copy(grown, u.table)
		u.table = grown
		all := grown[:cap(grown)]
		u.byID.Store(&all)
	}
	u.table = append(u.table, p)
	return p
}

// ByID returns the interned path with the given ID. The ID must come
// from a path of this universe.
func (u *Universe) ByID(id int) *Path { return (*u.byID.Load())[id] }

// Empty returns the ε offset path.
func (u *Universe) Empty() *Path { return u.empty }

// Bases returns all base locations in creation order.
func (u *Universe) Bases() []*Base { return u.bases }

// NewBase creates a base location.
func (u *Universe) NewBase(kind BaseKind, name string, local, summary bool) *Base {
	b := &Base{Kind: kind, Name: name, Local: local, Summary: summary, ID: len(u.bases)}
	u.bases = append(u.bases, b)
	return b
}

// NullRoot returns (creating on first use) the marker location of the
// null pointer constant. The base is a summary location so that writes
// through a maybe-null pointer never strongly update anything.
func (u *Universe) NullRoot() *Path {
	if u.nullRoot == nil {
		u.nullRoot = u.Root(u.NewBase(NullBase, "<null>", false, true))
	}
	return u.nullRoot
}

// UninitRoot returns (creating on first use) the marker location of
// uninitialized pointer values.
func (u *Universe) UninitRoot() *Path {
	if u.uninitRoot == nil {
		u.uninitRoot = u.Root(u.NewBase(UninitBase, "<uninit>", false, true))
	}
	return u.uninitRoot
}

// Root returns the interned path consisting of just base.
func (u *Universe) Root(base *Base) *Path {
	if p, ok := u.roots[base]; ok {
		return p
	}
	p := u.intern(&Path{base: base})
	u.roots[base] = p
	return p
}

// Extend returns the interned path p followed by op.
func (u *Universe) Extend(p *Path, op Op) *Path {
	if p.ext == nil {
		p.ext = make(map[Op]*Path)
	}
	if q, ok := p.ext[op]; ok {
		return q
	}
	q := u.intern(&Path{base: p.base, parent: p, op: op, depth: p.depth + 1})
	p.ext[op] = q
	return q
}

// Field returns p.name (a struct member access).
func (u *Universe) Field(p *Path, name string) *Path {
	return u.Extend(p, Op{Field: name})
}

// UnionField returns p!name (a union member access, which overlaps its
// sibling members).
func (u *Universe) UnionField(p *Path, name string) *Path {
	return u.Extend(p, Op{Field: name, Union: true})
}

// Index returns p[*].
func (u *Universe) Index(p *Path) *Path {
	return u.Extend(p, Op{Array: true})
}

// ops returns the operator sequence of p from root to leaf.
func (p *Path) ops() []Op {
	ops := make([]Op, p.depth)
	for q := p; q.parent != nil; q = q.parent {
		ops[q.depth-1] = q.op
	}
	return ops
}

// FirstOp returns the first (outermost) operator of p and true, or false
// when p has no operators.
func (p *Path) FirstOp() (Op, bool) {
	if p.depth == 0 {
		return Op{}, false
	}
	q := p
	for q.depth > 1 {
		q = q.parent
	}
	return q.op, true
}

// TailAfterFirst returns the offset path consisting of p's operators
// after the first one. p must have at least one operator.
func (u *Universe) TailAfterFirst(p *Path) *Path {
	ops := p.ops()
	if len(ops) == 0 {
		panic("paths: TailAfterFirst on empty path")
	}
	q := u.empty
	for _, op := range ops[1:] {
		q = u.Extend(q, op)
	}
	return q
}

// Append implements the paper's `+`: the path a extended by the offset
// b's operators. b must be an offset path.
func (u *Universe) Append(a, b *Path) *Path {
	if !b.IsOffset() {
		panic(fmt.Sprintf("paths: Append with non-offset %s", b))
	}
	p := a
	for _, op := range b.ops() {
		p = u.Extend(p, op)
	}
	return p
}

// IsPrefix reports whether a is an exact (non-strict) prefix of b:
// same base and a's operators lead b's, compared for identity.
func IsPrefix(a, b *Path) bool {
	if a.base != b.base {
		return false
	}
	if a.depth > b.depth {
		return false
	}
	q := b
	for q.depth > a.depth {
		q = q.parent
	}
	return q == a
}

// MayPrefix reports whether a is an overlap-prefix of b: same base,
// a.depth <= b.depth, and each of a's operators overlaps the operator at
// the same position in b (identical, or sibling union members).
func MayPrefix(a, b *Path) bool {
	if a.base != b.base || a.depth > b.depth {
		return false
	}
	q := b
	for q.depth > a.depth {
		q = q.parent
	}
	// Compare a and q position by position. Fast path: identical paths.
	if q == a {
		return true
	}
	pa, pb := a, q
	for pa.parent != nil {
		if !pa.op.Overlaps(pb.op) {
			return false
		}
		pa, pb = pa.parent, pb.parent
	}
	return true
}

// Subtract implements the paper's `-` (prefix subtraction): the offset
// o consisting of b's trailing operators below the length of prefix.
// When prefix is an exact prefix of a, prefix+Subtract(a,prefix) == a;
// for overlap-prefixes (union members) the remainder is taken
// positionally. It panics when prefix is not even an overlap-prefix.
func (u *Universe) Subtract(a, prefix *Path) *Path {
	if !MayPrefix(prefix, a) {
		panic(fmt.Sprintf("paths: Subtract(%s, %s): not a prefix", a, prefix))
	}
	// Collect the trailing operators below prefix's depth.
	n := a.depth - prefix.depth
	ops := make([]Op, n)
	q := a
	for i := n - 1; i >= 0; i-- {
		ops[i] = q.op
		q = q.parent
	}
	p := u.empty
	for _, op := range ops {
		p = u.Extend(p, op)
	}
	return p
}

// Dom implements the paper's `dom` relation: A dom B when a read (write)
// of A may observe (modify) a value written to B — true when A is an
// overlap-prefix of B (exact prefix, or differing only in sibling union
// members, which share storage).
func Dom(a, b *Path) bool { return MayPrefix(a, b) }

// StrongDom implements `strong-dom`: A strongly dominates B when A is
// strongly updateable and an exact prefix of B, so a write to A must
// overwrite the value at B. Union overlap never strong-dominates a
// *different* member: overwriting sibling storage is partial and the
// analysis must not kill those pairs.
func StrongDom(a, b *Path) bool {
	return a.StronglyUpdatable() && IsPrefix(a, b)
}
