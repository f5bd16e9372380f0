package core_test

// Language-feature coverage: every construct of the mini-C subset driven
// end to end through the pipeline and the context-insensitive analysis,
// with assertions about the points-to outcome.

import (
	"sort"
	"strings"
	"testing"

	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/vdg"
)

// finalRefs returns base -> sorted referent names in main's return store.
func finalRefs(t *testing.T, u *driver.Unit, res *core.Result) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	ret := u.Graph.Entry.ReturnStore()
	if ret == nil {
		t.Fatal("no return store")
	}
	for _, p := range res.Pairs(ret).List() {
		out[p.Path.String()] = append(out[p.Path.String()], p.Ref.String())
	}
	for k := range out {
		sort.Strings(out[k])
	}
	return out
}

func analyzeSrc(t *testing.T, src string) (*driver.Unit, *core.Result) {
	t.Helper()
	u := load(t, src)
	return u, core.AnalyzeInsensitive(u.Graph)
}

func expectRefs(t *testing.T, refs map[string][]string, path, want string) {
	t.Helper()
	if got := strings.Join(refs[path], ","); got != want {
		t.Errorf("%s -> %q, want %q (all: %v)", path, got, want, refs)
	}
}

func TestTernaryMergesPointers(t *testing.T) {
	u, res := analyzeSrc(t, `
int a, b;
int *p;
int main(void) {
	int c;
	c = 1;
	p = c ? &a : &b;
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "a,b")
}

func TestShortCircuitSideEffects(t *testing.T) {
	// The right operand of && executes conditionally; its assignment
	// must be merged, not treated as unconditional (soundness of strong
	// updates).
	u, res := analyzeSrc(t, `
int a, b;
int *p;
int main(void) {
	int c;
	c = 0;
	p = &a;
	(c && (p = &b));
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "a,b")
}

func TestCommaOperator(t *testing.T) {
	u, res := analyzeSrc(t, `
int a, b;
int *p, *q;
int main(void) {
	p = (q = &a, &b);
	return 0;
}
`)
	refs := finalRefs(t, u, res)
	expectRefs(t, refs, "p", "b")
	expectRefs(t, refs, "q", "a")
}

func TestSwitchFallthroughMerges(t *testing.T) {
	u, res := analyzeSrc(t, `
int a, b, c;
int *p;
int main(void) {
	int k;
	k = 1;
	switch (k) {
	case 0:
		p = &a;
		/* falls through */
	case 1:
		p = &b;
		break;
	default:
		p = &c;
	}
	return 0;
}
`)
	// All cases assign; fallthrough from 0 lands in 1 which reassigns, a
	// strong update. Exit merges {b} (cases 0,1) with {c} (default).
	expectRefs(t, finalRefs(t, u, res), "p", "b,c")
}

func TestSwitchWithoutDefaultKeepsEntryState(t *testing.T) {
	u, res := analyzeSrc(t, `
int a, b;
int *p;
int main(void) {
	int k;
	k = 9;
	p = &a;
	switch (k) {
	case 0:
		p = &b;
		break;
	}
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "a,b")
}

func TestDoWhileBody(t *testing.T) {
	u, res := analyzeSrc(t, `
int a;
int *p;
int main(void) {
	int i;
	i = 0;
	do {
		p = &a;
		i++;
	} while (i < 3);
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "a")
}

func TestPointerArithmeticStaysInArray(t *testing.T) {
	u, res := analyzeSrc(t, `
int arr[10];
int *p;
int main(void) {
	p = arr + 3;
	p++;
	p += 2;
	return *p;
}
`)
	// Every arithmetic form keeps the array referent.
	expectRefs(t, finalRefs(t, u, res), "p", "arr")
}

func TestAddressOfArrayElement(t *testing.T) {
	u, res := analyzeSrc(t, `
int arr[10];
int *p;
int main(void) {
	p = &arr[4];
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "arr[*]")
}

func TestTwoDimensionalArrays(t *testing.T) {
	u, res := analyzeSrc(t, `
int m[3][4];
int *p;
int main(void) {
	m[1][2] = 7;
	p = &m[0][0];
	return m[1][2] + *p;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "m[*][*]")
}

func TestNestedStructsAndArrows(t *testing.T) {
	u, res := analyzeSrc(t, `
struct inner { int *ptr; };
struct outer { struct inner in; struct outer *next; };
int g;
struct outer o1, o2;
int main(void) {
	o1.next = &o2;
	o1.next->in.ptr = &g;
	return 0;
}
`)
	refs := finalRefs(t, u, res)
	expectRefs(t, refs, "o1.next", "o2")
	expectRefs(t, refs, "o2.in.ptr", "g")
}

func TestStructAssignmentCopiesPointers(t *testing.T) {
	u, res := analyzeSrc(t, `
struct pack { int *a; int *b; };
int x, y;
struct pack src, dst;
int main(void) {
	src.a = &x;
	src.b = &y;
	dst = src;
	return 0;
}
`)
	refs := finalRefs(t, u, res)
	expectRefs(t, refs, "dst.a", "x")
	expectRefs(t, refs, "dst.b", "y")
}

func TestStructReturnByValue(t *testing.T) {
	u, res := analyzeSrc(t, `
struct pair { int *fst; int *snd; };
int x, y;
int *p;
struct pair mk(void) {
	struct pair v;
	v.fst = &x;
	v.snd = &y;
	return v;
}
int main(void) {
	p = mk().snd;
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "y")
}

func TestStructParamByValueIsolation(t *testing.T) {
	// Mutating a by-value struct parameter must not affect the caller's
	// copy.
	u, res := analyzeSrc(t, `
struct box { int *p; };
int x, y;
struct box gb;
void mutate(struct box b) {
	b.p = &y;
}
int main(void) {
	gb.p = &x;
	mutate(gb);
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "gb.p", "x")
}

func TestReallocKeepsBothPossibilities(t *testing.T) {
	u, res := analyzeSrc(t, `
int main(void) {
	int *p;
	int *q;
	p = (int *) malloc(8);
	q = (int *) realloc(p, 16);
	return *q;
}
`)
	// q may be the original block or the realloc site's fresh one.
	var qRefs []string
	for _, fg := range u.Graph.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KLookup && n.Indirect {
				for _, r := range res.LocReferents(n) {
					qRefs = append(qRefs, r.String())
				}
			}
		}
	}
	sort.Strings(qRefs)
	if len(qRefs) != 2 || !strings.HasPrefix(qRefs[0], "malloc@") || !strings.HasPrefix(qRefs[1], "realloc@") {
		t.Fatalf("q dereferences %v, want the malloc and realloc sites", qRefs)
	}
}

func TestStringLiteralStorage(t *testing.T) {
	u, res := analyzeSrc(t, `
char *msg;
int main(void) {
	msg = "hello";
	return 0;
}
`)
	refs := finalRefs(t, u, res)
	got := strings.Join(refs["msg"], ",")
	if !strings.HasPrefix(got, "str@") {
		t.Fatalf("msg -> %q, want string-literal storage", got)
	}
}

func TestStrcpyAliasesDestination(t *testing.T) {
	u, res := analyzeSrc(t, `
char buf[16];
char *r;
int main(void) {
	r = strcpy(buf, "x");
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "r", "buf")
}

func TestFunctionPointerTable(t *testing.T) {
	u, res := analyzeSrc(t, `
int inc(int x) { return x + 1; }
int dec(int x) { return x - 1; }
int (*ops[2])(int) = {inc, dec};
int main(void) {
	return ops[0](3) + ops[1](3);
}
`)
	// Both table calls may reach both functions (one merged element).
	for _, fg := range u.Graph.Funcs {
		for _, call := range fg.Calls {
			names := calleeNames(res.Callees[call])
			sort.Strings(names)
			if strings.Join(names, ",") != "dec,inc" {
				t.Fatalf("table call resolves to %v", names)
			}
		}
	}
}

func TestFunctionPointerParameter(t *testing.T) {
	u, res := analyzeSrc(t, `
int g;
void setg(int v) { g = v; }
void apply(void (*f)(int), int v) { f(v); }
int main(void) {
	apply(setg, 4);
	apply(&setg, 5);
	return g;
}
`)
	found := false
	for _, fg := range u.Graph.Funcs {
		if fg.Fn.Name != "apply" {
			continue
		}
		for _, call := range fg.Calls {
			found = true
			if names := calleeNames(res.Callees[call]); len(names) != 1 || names[0] != "setg" {
				t.Fatalf("apply's call resolves to %v", names)
			}
		}
	}
	if !found {
		t.Fatal("no call found in apply")
	}
}

func TestNullGuardedDeref(t *testing.T) {
	u, res := analyzeSrc(t, `
int main(void) {
	int *p;
	p = 0;
	if (p != 0) {
		return *p;
	}
	return 0;
}
`)
	// The guarded read references no location (the paper's footnote on
	// backprop/bc reads that would reference only the null value).
	for _, fg := range u.Graph.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind == vdg.KLookup && n.Indirect {
				if refs := res.LocReferents(n); len(refs) != 0 {
					t.Fatalf("null-only read references %v", refs)
				}
			}
		}
	}

	// Under diagnostics p = 0 points p at <null>, and the guard is an
	// OpChecked filter: the read it guards drops <null>, while an
	// unguarded read of the same pointer keeps it.
	d, err := driver.LoadString("test.c", `
int main(void) {
	int *p;
	int x;
	p = 0;
	x = *p;
	if (p != 0) {
		return *p;
	}
	return x;
}
`, vdg.Options{Diagnostics: true})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	dres := core.AnalyzeInsensitive(d.Graph)
	readsNull := map[int]bool{} // by source line
	for _, fg := range d.Graph.Funcs {
		for _, n := range fg.Nodes {
			if n.Kind != vdg.KLookup {
				continue
			}
			readsNull[n.Pos.Line] = false
			for _, r := range dres.LocReferents(n) {
				if core.IsNullRef(r) {
					readsNull[n.Pos.Line] = true
				}
			}
		}
	}
	if null, ok := readsNull[6]; !ok || !null {
		t.Errorf("unguarded read on line 6: reads <null> %v (found %v), want true", null, ok)
	}
	if null, ok := readsNull[8]; !ok || null {
		t.Errorf("guarded read on line 8: reads <null> %v (found %v), want false", null, ok)
	}
}

func TestGlobalInitializerChains(t *testing.T) {
	u, res := analyzeSrc(t, `
int x;
int *p = &x;
int **pp = &p;
char *names[2] = {"a", "b"};
int main(void) {
	return **pp;
}
`)
	refs := finalRefs(t, u, res)
	expectRefs(t, refs, "p", "x")
	expectRefs(t, refs, "pp", "p")
	if got := refs["names[*]"]; len(got) != 2 {
		t.Fatalf("names[*] -> %v, want two literals", got)
	}
}

func TestStaticLocalPersists(t *testing.T) {
	u, res := analyzeSrc(t, `
int a;
int *remember(int *v) {
	static int *saved = 0;
	if (v != 0) saved = v;
	return saved;
}
int *r;
int main(void) {
	remember(&a);
	r = remember(0);
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "r", "a")
}

func TestEnumAndSizeofAreScalars(t *testing.T) {
	_, res := analyzeSrc(t, `
enum { SZ = 8 };
int main(void) {
	long n;
	n = SZ + (long) sizeof(int);
	return (int) n;
}
`)
	if res.Engine.PairInserts != 0 {
		t.Fatalf("pure scalar program produced %d pairs", res.Engine.PairInserts)
	}
}

func TestVoidPointerLaundering(t *testing.T) {
	u, res := analyzeSrc(t, `
int a;
void *vp;
int *ip;
int main(void) {
	vp = (void *) &a;
	ip = (int *) vp;
	return *ip;
}
`)
	refs := finalRefs(t, u, res)
	expectRefs(t, refs, "vp", "a")
	expectRefs(t, refs, "ip", "a")
}

func TestTypedefsAreTransparent(t *testing.T) {
	u, res := analyzeSrc(t, `
typedef struct node { struct node *next; } Node;
typedef Node *NodePtr;
Node a, b;
NodePtr head;
int main(void) {
	head = &a;
	head->next = &b;
	return 0;
}
`)
	refs := finalRefs(t, u, res)
	expectRefs(t, refs, "head", "a")
	expectRefs(t, refs, "a.next", "b")
}

func TestBreakAndContinueStates(t *testing.T) {
	u, res := analyzeSrc(t, `
int a, b, c;
int *p;
int main(void) {
	int i;
	p = &a;
	for (i = 0; i < 10; i++) {
		if (i == 3) {
			p = &b;
			break;
		}
		if (i == 2) {
			continue;
		}
		p = &c;
	}
	return 0;
}
`)
	expectRefs(t, finalRefs(t, u, res), "p", "a,b,c")
}
