// Modref: use the points-to solution the way a compiler would — compute
// which locations every function may read (ref) and write (mod), the
// client application the paper's Figure 4 is about.
//
// Run with: go run ./examples/modref
package main

import (
	"fmt"
	"log"
	"strings"

	"aliaslab"
)

const program = `
struct account {
	struct account *next;
	int balance;
	int id;
};

struct account *accounts;
int audit_total;

struct account *open_account(int id) {
	struct account *a;
	a = (struct account *) malloc(sizeof(struct account));
	a->id = id;
	a->balance = 0;
	a->next = accounts;
	accounts = a;
	return a;
}

void deposit(struct account *a, int amount) {
	a->balance += amount;
}

int audit(void) {
	struct account *a;
	int sum;
	sum = 0;
	for (a = accounts; a != 0; a = a->next) {
		sum += a->balance;
	}
	audit_total = sum;
	return sum;
}

int main(void) {
	struct account *first;
	struct account *second;
	first = open_account(1);
	second = open_account(2);
	deposit(first, 100);
	deposit(second, 250);
	return audit();
}
`

func main() {
	prog, err := aliaslab.ParseProgram("bank.c", program, aliaslab.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := prog.Analyze()
	if err != nil {
		log.Fatal(err)
	}
	mod, ref, err := res.ModRef()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-function side effects (transitive, from points-to):")
	for _, fn := range []string{"open_account", "deposit", "audit", "main"} {
		fmt.Printf("\n%s:\n", fn)
		fmt.Printf("  may write: %s\n", strings.Join(mod[fn], " "))
		fmt.Printf("  may read:  %s\n", strings.Join(ref[fn], " "))
	}

	// The optimization question a compiler asks: can the two deposit
	// calls be reordered? Only if neither may write what the other
	// reads. Both write the same abstract location (the allocation
	// site), so the analysis must say no.
	fmt.Println("\ndeposit() writes the heap accounts; audit() reads them and")
	fmt.Println("writes audit_total — so calls to deposit cannot move past audit.")
}
