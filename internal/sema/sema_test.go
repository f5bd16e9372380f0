package sema_test

import (
	"strings"
	"testing"

	"aliaslab/internal/ast"
	"aliaslab/internal/ctypes"
	"aliaslab/internal/parser"
	"aliaslab/internal/sema"
)

// check parses and checks src, expecting success.
func check(t *testing.T, src string) *sema.Program {
	t.Helper()
	f, perrs := parser.ParseFile("t.c", src)
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs)
	}
	prog, errs := sema.Check(f)
	if len(errs) > 0 {
		t.Fatalf("check: %v", errs)
	}
	return prog
}

// checkErr parses and checks src, expecting at least one error whose
// message contains want.
func checkErr(t *testing.T, src, want string) {
	t.Helper()
	f, perrs := parser.ParseFile("t.c", src)
	if len(perrs) > 0 {
		t.Fatalf("parse: %v", perrs)
	}
	_, errs := sema.Check(f)
	for _, e := range errs {
		if strings.Contains(e.Error(), want) {
			return
		}
	}
	t.Fatalf("no error containing %q; got %v", want, errs)
}

func findObj(t *testing.T, prog *sema.Program, fn, name string) *sema.Object {
	t.Helper()
	if fn == "" {
		for _, o := range prog.Globals {
			if o.Name == name {
				return o
			}
		}
		t.Fatalf("global %s not found", name)
	}
	f := prog.FuncMap[fn]
	if f == nil {
		t.Fatalf("function %s not found", fn)
	}
	for _, o := range f.Params {
		if o.Name == name {
			return o
		}
	}
	for _, o := range f.Locals {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("object %s.%s not found", fn, name)
	return nil
}

func TestAddressTaken(t *testing.T) {
	prog := check(t, `
int g;
void f(void) {
	int taken;
	int clean;
	int arr[4];
	int *p;
	p = &taken;
	clean = *p + arr[0];
}
`)
	if !findObj(t, prog, "f", "taken").AddrTaken {
		t.Error("taken must be address-taken")
	}
	if findObj(t, prog, "f", "clean").AddrTaken {
		t.Error("clean must not be address-taken")
	}
	if !findObj(t, prog, "f", "arr").AddrTaken {
		t.Error("arrays are always store-resident")
	}
	if findObj(t, prog, "f", "p").AddrTaken {
		t.Error("p's address is never taken")
	}
}

func TestAddressTakenThroughMember(t *testing.T) {
	prog := check(t, `
struct s { int x; };
void f(void) {
	struct s v;
	int *p;
	p = &v.x;
	v.x = *p;
}
`)
	if !findObj(t, prog, "f", "v").AddrTaken {
		t.Error("&v.x exposes v")
	}
}

func TestEnumConstants(t *testing.T) {
	prog := check(t, `
enum { A, B = 5, C };
int f(void) { return A + B + C; }
`)
	// The return value parses as (A + B) + C.
	ret := prog.FuncMap["f"].Body.Stmts[0].(*ast.Return).Value.(*ast.Binary)
	uses := []ast.Expr{ret.X.(*ast.Binary).X, ret.X.(*ast.Binary).Y, ret.Y}
	found := 0
	for i, want := range []int64{0, 5, 6} {
		id := uses[i].(*ast.Ident)
		if v, ok := prog.ConstOf(id); ok && v == want && prog.ObjOf(id) == nil {
			found++
		}
	}
	if found != 3 {
		t.Errorf("enum constants resolved %d/3 uses", found)
	}
}

func TestRecursionMarking(t *testing.T) {
	prog := check(t, `
int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
int even(int n);
int odd(int n) { if (n == 0) return 0; return even(n - 1); }
int even(int n) { if (n == 0) return 1; return odd(n - 1); }
int plain(int n) { return fact(n); }
int main(void) { return plain(3) + odd(4); }
`)
	wants := map[string]bool{"fact": true, "even": true, "odd": true, "plain": false, "main": false}
	for name, want := range wants {
		if got := prog.FuncMap[name].Recursive; got != want {
			t.Errorf("%s.Recursive = %v, want %v", name, got, want)
		}
	}
}

func TestTypeErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"int f(void) { return g; }", "undefined: g"},
		{"int x; int x;", "redeclared"},
		{"void f(void) { int v; v.x = 1; }", "member access on non-struct"},
		{"struct s { int a; }; void f(struct s *p) { p->b = 1; }", "no member b"},
		{"void f(int x) { *x = 1; }", "cannot dereference"},
		{"void f(void) { 3 = 4; }", "not an lvalue"},
		{"int *f(int x) { return x ? &x : 0; }", ""},
		{"void f(int *p) { int x; x = p; }", "cannot assign pointer"},
		{"void f(int *p, int x) { p = x; }", "cannot assign"},
		{"void f(void) { undefined_fn(1); }", "undefined"},
		{"int f(int a) { return f(a, a); }", "wrong number of arguments"},
		{"void f(void) { return 3; }", "return with value in void function"},
		{"void f(float g) { int x; x = (int)(char *)&x; }", "outside the subset"},
		{"struct s; void f(struct s *p) { p->x = 1; }", "incomplete struct"},
	}
	for _, c := range cases {
		if c.want == "" {
			check(t, c.src)
			continue
		}
		checkErr(t, c.src, c.want)
	}
}

func TestPointerCompatibility(t *testing.T) {
	// Any pointer-to-pointer conversion is tolerated (void* idioms), and
	// the constant 0 is a null pointer.
	check(t, `
struct s { int v; };
struct s *f(void) {
	struct s *p;
	p = (struct s *) malloc(sizeof(struct s));
	if (p == 0) return 0;
	free(p);
	return p;
}
`)
}

func TestStaticLocalBecomesGlobal(t *testing.T) {
	prog := check(t, `
int counter(void) {
	static int n = 0;
	n++;
	return n;
}
`)
	found := false
	for _, g := range prog.Globals {
		if g.Name == "n" {
			found = true
			if g.Owner != nil {
				t.Error("static local must have global lifetime (no owner)")
			}
		}
	}
	if !found {
		t.Fatal("static local not promoted to Globals")
	}
}

func TestBuiltinsAvailable(t *testing.T) {
	check(t, `
int main(void) {
	char buf[32];
	char *p;
	p = (char *) malloc(16);
	strcpy(buf, "hi");
	printf("%s %d\n", buf, (int) strlen(buf));
	free(p);
	return abs(-2) + atoi("3");
}
`)
	checkErr(t, "int main(void) { return (int) printf; }", "")
}

func TestBuiltinAddressRejected(t *testing.T) {
	checkErr(t, `
int main(void) {
	void *p;
	p = (void *) &printf;
	return 0;
}
`, "library function")
}

func TestFunctionPointerTyping(t *testing.T) {
	prog := check(t, `
int twice(int x) { return 2 * x; }
int apply(int (*f)(int), int v) { return f(v); }
int main(void) { return apply(twice, 4); }
`)
	f := prog.FuncMap["apply"]
	if f.Params[0].Type.Kind != ctypes.Pointer || f.Params[0].Type.Elem.Kind != ctypes.Func {
		t.Fatalf("apply's first param is %s", f.Params[0].Type)
	}
}

func TestArrayParamDecay(t *testing.T) {
	prog := check(t, `void f(int a[], int m[4]) { a[0] = m[0]; }`)
	f := prog.FuncMap["f"]
	for i, p := range f.Params {
		if p.Type.Kind != ctypes.Pointer {
			t.Errorf("param %d type %s; arrays must decay in parameters", i, p.Type)
		}
	}
}

func TestUnsizedArrayCompletedByInitializer(t *testing.T) {
	prog := check(t, `int table[] = {1, 2, 3, 4, 5};`)
	g := findObj(t, prog, "", "table")
	if g.Type.Kind != ctypes.Array || g.Type.Len != 5 {
		t.Fatalf("table type %s", g.Type)
	}
}

func TestVariadicBuiltinArity(t *testing.T) {
	check(t, `int main(void) { printf("%d %d %d\n", 1, 2, 3); return 0; }`)
	checkErr(t, `int main(void) { printf(); return 0; }`, "wrong number of arguments")
}

func TestVoidCast(t *testing.T) {
	check(t, `int g(void); int main(void) { (void) g(); return 0; }`)
}
