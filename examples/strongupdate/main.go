// Strongupdate: demonstrate the strong-update machinery — the
// singleton-set-as-definite rule of [CWZ90] that the analyses inherit —
// and the ablation switches that weaken it.
//
// Run with: go run ./examples/strongupdate
package main

import (
	"fmt"
	"log"

	"aliaslab"
)

const program = `
int a, b, c;
int *p;
int *q;

int main(void) {
	int cond;
	cond = 1;

	p = &a;     // p -> {a}
	p = &b;     // strong update: p -> {b}, the a-pair is killed

	q = &a;
	if (cond) {
		q = &c; // one arm reassigns...
	}
	*q = 1;     // ...so q -> {a, c}: two possible locations, and the
	            // write through q cannot strongly update either

	return 0;
}
`

func describe(label string, opts aliaslab.Options) {
	prog, err := aliaslab.ParseProgram("strong.c", program, opts)
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== %s\n", label)
	for _, pt := range res.StoreAtExit() {
		if pt.Path == "p" || pt.Path == "q" {
			fmt.Printf("   %s -> %s\n", pt.Path, pt.Referent)
		}
	}
	fmt.Println()
}

func main() {
	fmt.Println("Strong updates: a write through a pointer that definitely refers")
	fmt.Println("to a single location kills that location's previous contents.")
	fmt.Println()

	// Default build: p is a single-location global, so 'p = &b' kills
	// the earlier a-pair and only p -> b remains.
	describe("default (strong updates apply)", aliaslab.Options{})

	// Ablation: KeepScalarsInStore (the CLI's -nossa) keeps every
	// scalar in the store. The result for p and q is unchanged (they
	// are globals either way), but the store now also tracks cond and
	// the locals — the representation the paper's SSA-like
	// transformation removes.
	describe("nossa ablation (scalars stay in the store)", aliaslab.Options{KeepScalarsInStore: true})

	fmt.Println("Note how q keeps both referents in every variant: with two")
	fmt.Println("possible targets the write '*q = 1' must be a weak update.")
}
