// Package ctypes models the C type system of the mini-C subset.
//
// Types are canonicalized per translation unit: struct/union types are
// identified by tag (nominal), and derived types (pointers, arrays,
// functions) are built structurally. Layout (sizes, offsets) is not
// modeled — the alias analyses only need shape: which members can carry
// pointers, and whether a type may hold a pointer or function value at
// all ("alias-related" in the paper's terminology).
package ctypes

import (
	"errors"
	"fmt"
	"strings"
)

// Kind discriminates the type representations.
type Kind int

const (
	Void Kind = iota
	Char
	Int
	Long
	Float
	Double
	Pointer
	Array
	Struct // also covers unions; see Type.Union
	Func
)

// Type is a C type. Exactly the fields relevant to its Kind are set.
type Type struct {
	Kind Kind

	// Pointer and Array element type; Func result type.
	Elem *Type

	// Array length; -1 when unknown.
	Len int

	// Struct/union members, in declaration order.
	Tag    string
	Fields []Field
	Union  bool
	// Complete marks a struct whose body has been seen; incomplete
	// structs may be pointed to but not dereferenced for members.
	Complete bool

	// Function parameters.
	Params   []*Type
	Variadic bool
}

// Field is one struct/union member.
type Field struct {
	Name string
	Type *Type
}

// InternalError reports a misuse of the type API — a front-end bug,
// not a user error. Result panics with one so the driver's panic guard
// can attribute the failure; Basic returns one so callers can turn it
// into a source diagnostic.
type InternalError struct {
	Op     string // the operation that failed, e.g. "Basic", "Result"
	Detail string
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("ctypes: %s: %s", e.Op, e.Detail)
}

// AsInternal extracts an *InternalError from a recovered panic value
// or an error chain.
func AsInternal(v any) (*InternalError, bool) {
	switch v := v.(type) {
	case *InternalError:
		return v, true
	case error:
		var ie *InternalError
		if errors.As(v, &ie) {
			return ie, true
		}
	}
	return nil, false
}

// Singleton basic types. They are compared by pointer identity.
var (
	VoidType   = &Type{Kind: Void}
	CharType   = &Type{Kind: Char}
	IntType    = &Type{Kind: Int}
	LongType   = &Type{Kind: Long}
	FloatType  = &Type{Kind: Float}
	DoubleType = &Type{Kind: Double}
)

// Basic returns the singleton for a named basic type, or an
// *InternalError for a name the subset does not model. Callers decide
// whether that is a diagnostic (checker) or a bug (everything else).
func Basic(name string) (*Type, error) {
	switch name {
	case "void":
		return VoidType, nil
	case "char":
		return CharType, nil
	case "int":
		return IntType, nil
	case "long":
		return LongType, nil
	case "float":
		return FloatType, nil
	case "double":
		return DoubleType, nil
	}
	return nil, &InternalError{Op: "Basic", Detail: "unknown basic type " + name}
}

// PointerTo returns a pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Pointer, Elem: elem} }

// PointerCache hands out one pointer type per element type. Types
// compare structurally, so a front-end pass that asks for the same few
// pointer types over and over can share them instead of allocating one
// per use; each pass keeps its own cache.
type PointerCache map[*Type]*Type

// To returns the pointer type to elem, making it on first use.
func (c PointerCache) To(elem *Type) *Type {
	t, ok := c[elem]
	if !ok {
		t = PointerTo(elem)
		c[elem] = t
	}
	return t
}

// ArrayOf returns an array type of elem with the given length (-1 if
// unknown).
func ArrayOf(elem *Type, n int) *Type { return &Type{Kind: Array, Elem: elem, Len: n} }

// FuncOf returns a function type.
func FuncOf(params []*Type, variadic bool, result *Type) *Type {
	return &Type{Kind: Func, Params: params, Variadic: variadic, Elem: result}
}

// Result returns a function type's result type. Calling it on a
// non-function is a front-end bug: it panics with a typed
// *InternalError that the driver's per-stage guard recovers into a
// structured diagnostic rather than a process crash.
func (t *Type) Result() *Type {
	if t.Kind != Func {
		panic(&InternalError{Op: "Result", Detail: "receiver is " + t.String() + ", not a function"})
	}
	return t.Elem
}

// IsScalar reports whether t is an arithmetic (non-pointer) scalar.
func (t *Type) IsScalar() bool {
	switch t.Kind {
	case Char, Int, Long, Float, Double:
		return true
	}
	return false
}

// IsInteger reports whether t is an integer type.
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case Char, Int, Long:
		return true
	}
	return false
}

// IsPointerish reports whether a value of type t is pointer-valued for
// the analysis: pointers and functions (function designators decay to
// pointers).
func (t *Type) IsPointerish() bool {
	return t.Kind == Pointer || t.Kind == Func
}

// Field returns the member with the given name and true, or false when
// absent. Anonymous members are not supported by the subset.
func (t *Type) Field(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// CanHoldPointer reports whether storage of type t can contain a pointer
// or function value: pointers themselves, and aggregates with (possibly
// nested) pointer-typed members. This drives the paper's
// "alias-related output" classification (Figure 2).
func (t *Type) CanHoldPointer() bool {
	return canHoldPointer(t, make(map[*Type]bool))
}

func canHoldPointer(t *Type, seen map[*Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind {
	case Pointer, Func:
		return true
	case Array:
		return canHoldPointer(t.Elem, seen)
	case Struct:
		for _, f := range t.Fields {
			if canHoldPointer(f.Type, seen) {
				return true
			}
		}
	}
	return false
}

// IsAggregate reports whether t is a struct, union, or array.
func (t *Type) IsAggregate() bool { return t.Kind == Struct || t.Kind == Array }

// Equal reports type compatibility for the purposes of the checker:
// structural for derived types, nominal (by identity) for structs.
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Pointer, Array:
		return Equal(a.Elem, b.Elem)
	case Func:
		if !Equal(a.Elem, b.Elem) || len(a.Params) != len(b.Params) || a.Variadic != b.Variadic {
			return false
		}
		for i := range a.Params {
			if !Equal(a.Params[i], b.Params[i]) {
				return false
			}
		}
		return true
	case Struct:
		return false // nominal: identical only by pointer equality
	}
	return true // same basic kind
}

// String renders the type in C-ish syntax for diagnostics.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Void:
		return "void"
	case Char:
		return "char"
	case Int:
		return "int"
	case Long:
		return "long"
	case Float:
		return "float"
	case Double:
		return "double"
	case Pointer:
		return t.Elem.String() + "*"
	case Array:
		if t.Len < 0 {
			return t.Elem.String() + "[]"
		}
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case Struct:
		kw := "struct"
		if t.Union {
			kw = "union"
		}
		if t.Tag != "" {
			return kw + " " + t.Tag
		}
		return kw + " <anon>"
	case Func:
		var sb strings.Builder
		sb.WriteString(t.Elem.String())
		sb.WriteString(" (")
		for i, p := range t.Params {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(p.String())
		}
		if t.Variadic {
			if len(t.Params) > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("...")
		}
		sb.WriteString(")")
		return sb.String()
	}
	return fmt.Sprintf("Type(kind=%d)", t.Kind)
}
