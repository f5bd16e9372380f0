package ctypes

import (
	"strings"
	"testing"
)

func TestBasicSingletons(t *testing.T) {
	for name, want := range map[string]*Type{"int": IntType, "char": CharType, "void": VoidType} {
		got, err := Basic(name)
		if err != nil || got != want {
			t.Fatalf("Basic(%q) = %v, %v; want the singleton", name, got, err)
		}
	}
}

func TestBasicUnknownReturnsInternalError(t *testing.T) {
	typ, err := Basic("quux")
	if typ != nil || err == nil {
		t.Fatalf("Basic(quux) = %v, %v; want nil, error", typ, err)
	}
	ie, ok := AsInternal(err)
	if !ok || ie.Op != "Basic" || !strings.Contains(ie.Detail, "quux") {
		t.Fatalf("error not a typed InternalError: %#v", err)
	}
}

func TestPredicates(t *testing.T) {
	ip := PointerTo(IntType)
	fn := FuncOf([]*Type{IntType}, false, VoidType)
	cases := []struct {
		t          *Type
		scalar     bool
		integer    bool
		pointerish bool
		aggregate  bool
	}{
		{IntType, true, true, false, false},
		{CharType, true, true, false, false},
		{DoubleType, true, false, false, false},
		{ip, false, false, true, false},
		{fn, false, false, true, false},
		{ArrayOf(IntType, 4), false, false, false, true},
	}
	for _, c := range cases {
		if c.t.IsScalar() != c.scalar || c.t.IsInteger() != c.integer ||
			c.t.IsPointerish() != c.pointerish || c.t.IsAggregate() != c.aggregate {
			t.Errorf("predicates wrong for %s", c.t)
		}
	}
}

func TestCanHoldPointer(t *testing.T) {
	ip := PointerTo(IntType)
	withPtr := &Type{Kind: Struct, Tag: "a", Complete: true,
		Fields: []Field{{Name: "p", Type: ip}, {Name: "n", Type: IntType}}}
	without := &Type{Kind: Struct, Tag: "b", Complete: true,
		Fields: []Field{{Name: "n", Type: IntType}}}
	nested := &Type{Kind: Struct, Tag: "c", Complete: true,
		Fields: []Field{{Name: "inner", Type: ArrayOf(withPtr, 3)}}}

	if !ip.CanHoldPointer() || !withPtr.CanHoldPointer() || !nested.CanHoldPointer() {
		t.Error("pointer-bearing types misclassified")
	}
	if without.CanHoldPointer() || IntType.CanHoldPointer() || ArrayOf(DoubleType, 8).CanHoldPointer() {
		t.Error("pointer-free types misclassified")
	}
}

func TestCanHoldPointerRecursiveType(t *testing.T) {
	// A self-referential struct (through a pointer) must not loop.
	node := &Type{Kind: Struct, Tag: "node", Complete: true}
	node.Fields = []Field{{Name: "next", Type: PointerTo(node)}, {Name: "v", Type: IntType}}
	if !node.CanHoldPointer() {
		t.Fatal("list node holds a pointer")
	}
}

func TestEqual(t *testing.T) {
	a := &Type{Kind: Struct, Tag: "s", Complete: true}
	b := &Type{Kind: Struct, Tag: "s", Complete: true}
	cases := []struct {
		x, y *Type
		want bool
	}{
		{IntType, IntType, true},
		{IntType, LongType, false},
		{PointerTo(IntType), PointerTo(IntType), true},
		{PointerTo(IntType), PointerTo(CharType), false},
		{ArrayOf(IntType, 3), ArrayOf(IntType, 5), true}, // lengths ignored
		{a, a, true},
		{a, b, false}, // structs are nominal
		{FuncOf([]*Type{IntType}, false, VoidType), FuncOf([]*Type{IntType}, false, VoidType), true},
		{FuncOf([]*Type{IntType}, true, VoidType), FuncOf([]*Type{IntType}, false, VoidType), false},
		{FuncOf(nil, false, IntType), FuncOf(nil, false, VoidType), false},
	}
	for i, c := range cases {
		if got := Equal(c.x, c.y); got != c.want {
			t.Errorf("case %d: Equal(%s, %s) = %v", i, c.x, c.y, got)
		}
	}
}

func TestString(t *testing.T) {
	fp := PointerTo(FuncOf([]*Type{IntType, PointerTo(CharType)}, true, VoidType))
	if got := fp.String(); got != "void (int, char*, ...)*" {
		t.Errorf("String = %q", got)
	}
	u := &Type{Kind: Struct, Union: true, Tag: "u"}
	if u.String() != "union u" {
		t.Errorf("union renders as %q", u.String())
	}
	if ArrayOf(IntType, -1).String() != "int[]" {
		t.Errorf("unsized array renders as %q", ArrayOf(IntType, -1).String())
	}
}

func TestFieldLookup(t *testing.T) {
	s := &Type{Kind: Struct, Tag: "s", Complete: true,
		Fields: []Field{{Name: "a", Type: IntType}, {Name: "b", Type: CharType}}}
	if f, ok := s.Field("b"); !ok || f.Type != CharType {
		t.Error("field b lookup failed")
	}
	if _, ok := s.Field("z"); ok {
		t.Error("phantom field found")
	}
}

func TestResultPanicsTypedOnNonFunction(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Result on non-function must panic")
		}
		ie, ok := AsInternal(r)
		if !ok || ie.Op != "Result" {
			t.Fatalf("panic value is %#v, want *InternalError{Op: Result}", r)
		}
	}()
	IntType.Result()
}

func TestPointerCacheSharesPerElement(t *testing.T) {
	c := make(PointerCache)
	p := c.To(IntType)
	if c.To(IntType) != p {
		t.Fatal("second To(int) made a new type")
	}
	if !Equal(p, PointerTo(IntType)) || p.String() != "int*" {
		t.Fatalf("To(int) = %v, want a pointer to int", p)
	}
	if q := c.To(CharType); q == p || !Equal(q, PointerTo(CharType)) {
		t.Fatalf("To(char) = %v, want a distinct pointer to char", q)
	}
}
