// Sensitivity: reproduce the paper's central comparison on two small
// programs — one crafted so that context sensitivity wins, and one
// (shaped like the paper's `part` benchmark) where the extra precision
// evaporates because the data genuinely mixes at run time.
//
// Run with: go run ./examples/sensitivity
package main

import (
	"fmt"
	"log"
	"slices"

	"aliaslab"
)

// sensitiveWins: a single setter serving two unrelated callers. The
// context-insensitive analysis merges both call sites, so it believes
// pa may point to b (and pb to a); the context-sensitive analysis keeps
// the sites apart.
const sensitiveWins = `
int a, b;
int *pa, *pb;
void set(int **r, int *v) { *r = v; }
int main(void) {
	set(&pa, &a);
	set(&pb, &b);
	return *pa;   // CI says this may read b; CS knows it reads only a
}
`

// mixingNeutralizes: the part phenomenon (paper §5.2). Two lists share
// push/pop — and exchange elements, so each list's cells really can
// hold the other's values. The "pollution" is the truth.
const mixingNeutralizes = `
struct cell { struct cell *next; int v; };
struct cell *xs, *ys;
void push(struct cell **l, struct cell *c) { c->next = *l; *l = c; }
struct cell *pop(struct cell **l) {
	struct cell *c;
	c = *l;
	if (c) *l = c->next;
	return c;
}
int main(void) {
	int i;
	for (i = 0; i < 3; i++) {
		push(&xs, (struct cell *) malloc(sizeof(struct cell)));
		push(&ys, (struct cell *) malloc(sizeof(struct cell)));
	}
	push(&xs, pop(&ys)); // exchange: the lists really mix
	push(&ys, pop(&xs));
	return 0;
}
`

func compare(name, src string) {
	prog, err := aliaslab.ParseProgram(name+".c", src, aliaslab.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ci, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	cs, err := prog.AnalyzeContextSensitive(10_000_000)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	spurious, diffs := aliaslab.Compare(ci, cs)

	fmt.Printf("== %s\n", name)
	fmt.Printf("   pairs: CI %d, CS %d  (%d spurious, %.1f%%)\n",
		ci.TotalPairs(), cs.TotalPairs(), spurious,
		100*float64(spurious)/float64(ci.TotalPairs()))

	if diffs == 0 {
		fmt.Printf("   indirect operations: identical referents under CI and CS\n")
	} else {
		fmt.Printf("   indirect operations: %d differ — context sensitivity buys precision here:\n", diffs)
		// Both results list the same operations in the same order.
		csOps := cs.IndirectOps()
		for i, op := range ci.IndirectOps() {
			if !slices.Equal(op.Referents, csOps[i].Referents) {
				fmt.Printf("     %s at %s: CI %d referents, CS %d\n", op.Kind, op.Pos, len(op.Referents), len(csOps[i].Referents))
			}
		}
	}
	fmt.Println()
}

func main() {
	fmt.Println("The paper's question: does context sensitivity buy precision where")
	fmt.Println("it matters (at indirect memory operations)?")
	fmt.Println()
	compare("sensitive-wins", sensitiveWins)
	compare("mixing-neutralizes", mixingNeutralizes)
	fmt.Println("The corpus programs behave like the second case: run")
	fmt.Println("  go run ./cmd/experiments -fig 6")
	fmt.Println("to see the full-benchmark version of this comparison.")
}
