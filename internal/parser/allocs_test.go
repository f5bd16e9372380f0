package parser_test

import (
	"reflect"
	"testing"

	"aliaslab/internal/ast"
	"aliaslab/internal/corpus"
	"aliaslab/internal/lexer"
	"aliaslab/internal/parser"
)

// astNodes counts the distinct AST nodes reachable from f: every
// pointer to a struct of package ast, f itself excluded.
func astNodes(f *ast.File) int {
	astPkg := reflect.TypeOf(ast.File{}).PkgPath()
	seen := make(map[uintptr]bool)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Pointer:
			if v.IsNil() || v.Elem().Kind() != reflect.Struct || v.Elem().Type().PkgPath() != astPkg {
				return
			}
			if seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			walk(v.Elem())
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(*f))
	return len(seen)
}

// TestParseAllocsPerNode bounds the heap allocations of one parse of
// bc (from its tokens) per AST node it builds. One allocation per node
// but identifiers, plus the growth of statement and argument lists,
// made 2,201 allocations for 2,227 nodes (0.99 per node); the per-type
// node chunks and the exact list carves bring it to 406 (0.18), and
// 0.25 (about +36%) leaves room for toolchain drift while a return to
// one allocation per node fails.
func TestParseAllocsPerNode(t *testing.T) {
	p, err := corpus.Get("bc")
	if err != nil {
		t.Fatal(err)
	}
	toks := lexer.New(p.Name, p.Source).All()
	f, perrs := parser.ParseTokens(p.Name, toks, nil)
	if len(perrs) > 0 {
		t.Fatal(perrs[0])
	}
	nodes := astNodes(f)
	const maxPerNode = 0.25
	allocs := testing.AllocsPerRun(5, func() { parser.ParseTokens(p.Name, toks, nil) })
	perNode := allocs / float64(nodes)
	t.Logf("%.0f allocations for %d AST nodes (%.2f per node)", allocs, nodes, perNode)
	if perNode > maxPerNode {
		t.Errorf("%.2f allocations per AST node, want at most %.2f", perNode, maxPerNode)
	}
}
