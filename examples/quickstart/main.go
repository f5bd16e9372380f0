// Quickstart: analyze a small C program with the context-insensitive
// points-to analysis and print what each pointer may reference.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aliaslab"
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
	prog, err := aliaslab.ParseProgram("quickstart.c", program, aliaslab.Options{})
	if err != nil {
		log.Fatal(err)
	}
	lines, nodes, _ := prog.Sizes()
	fmt.Printf("built a VDG with %d nodes for %d source lines\n\n", nodes, lines)

	// 2. Run the paper's context-insensitive analysis (Figure 1).
	res, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis converged after %d transfer functions\n\n", res.TransferFns)

	// 3. Inspect the store reaching main's return: every (location ->
	// referent) pair the analysis believes may hold there.
	fmt.Println("points-to pairs in the final store:")
	for _, pt := range res.StoreAtExit() {
		fmt.Printf("  %-10s -> %s\n", pt.Path, pt.Referent)
	}

	// 4. Ask what the indirect operations dereference.
	fmt.Println("\nindirect memory operations:")
	for _, op := range res.IndirectOps() {
		fmt.Printf("  %-5s at %-16s may touch:", op.Kind, op.Pos)
		for _, r := range op.Referents {
			fmt.Printf(" %s", r)
		}
		fmt.Println()
	}
}
