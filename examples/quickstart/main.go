// Quickstart: analyze a small C program with the context-insensitive
// points-to analysis and print what each pointer may reference.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aliaslab/internal/core"
	"aliaslab/internal/driver"
	"aliaslab/internal/vdg"
)

const program = `
int a, b;
int *p;
int **pp;

struct pairs { int *first; int *second; } s;

int main(void) {
	p = &a;          // p -> a
	pp = &p;         // pp -> p
	*pp = &b;        // strong update through pp: p -> b now
	s.first = p;     // s.first -> b
	s.second = &a;   // s.second -> a
	return *p;
}
`

func main() {
	// 1. Run the front end: lex, parse, typecheck, build the VDG.
	unit, err := driver.LoadString("quickstart.c", program, vdg.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built a VDG with %d nodes for %d functions\n\n",
		unit.Graph.NodeCount(), len(unit.Graph.Funcs))

	// 2. Run the paper's context-insensitive analysis (Figure 1).
	res := core.AnalyzeInsensitive(unit.Graph)
	fmt.Printf("analysis converged after %d transfer functions\n\n", res.Engine.Steps)

	// 3. Inspect the store reaching main's return: every (location ->
	// referent) pair the analysis believes may hold there.
	fmt.Println("points-to pairs in the final store:")
	ret := unit.Graph.Entry.ReturnStore()
	for _, pair := range res.Pairs(ret).Sorted() {
		fmt.Printf("  %-10s -> %s\n", pair.Path, pair.Ref)
	}

	// 4. Ask what the indirect operations dereference.
	fmt.Println("\nindirect memory operations:")
	for _, fg := range unit.Graph.Funcs {
		for _, n := range fg.Nodes {
			if (n.Kind != vdg.KLookup && n.Kind != vdg.KUpdate) || !n.Indirect {
				continue
			}
			kind := "read "
			if n.Kind == vdg.KUpdate {
				kind = "write"
			}
			fmt.Printf("  %s at %-16s may touch:", kind, n.Pos.In(unit.Name))
			for _, r := range res.LocReferents(n) {
				fmt.Printf(" %s", r)
			}
			fmt.Println()
		}
	}
}
