// Quickstart: compile a small MC program with the memory-profiling
// options, run it under collect with hardware-counter overflow profiling
// and apropos backtracking, and print the paper-style reports — the
// whole §2 user model in one file.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dsprof/internal/analyzer"
	"dsprof/internal/cc"
	"dsprof/internal/core"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

// The target: sums a linked list (poor locality: every step is a
// potential E$ miss) and an array (good locality) so the data-object
// profile clearly separates the two structures.
const src = `
struct cell { long value; struct cell *next; long pad1; long pad2;
              long pad3; long pad4; long pad5; long pad6; };
struct cell *cells;
long *table;
long ncells;

void build() {
	long i;
	long j;
	cells = (struct cell *) malloc(ncells * sizeof(struct cell));
	table = (long *) malloc(ncells * 8 * sizeof(long));
	j = 0;
	for (i = 0; i < ncells; i++) {
		cells[j].value = i;
		cells[j].next = &cells[(j + 97) % ncells];
		j = (j + 97) % ncells;
	}
	for (i = 0; i < ncells * 8; i++) { table[i] = i; }
}

long chase(long steps) {
	struct cell *p;
	long sum;
	sum = 0;
	p = cells;
	while (steps > 0) {
		sum += p->value;
		p = p->next;
		steps--;
	}
	return sum;
}

long scan(long reps) {
	long r;
	long i;
	long sum;
	sum = 0;
	for (r = 0; r < reps; r++) {
		for (i = 0; i < ncells * 8; i++) { sum += table[i]; }
	}
	return sum;
}

long main() {
	ncells = read_long();
	build();
	write_long(chase(ncells * 4));
	write_long(scan(3));
	return 0;
}
`

func main() {
	// Step 1 (§2.1): compile with -xhwcprof -xdebugformat=dwarf.
	prog, err := core.Compile("quickstart", []cc.Source{{Name: "quickstart.mc", Text: src}}, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Step 2 (§2.2): collect. Two counter registers per run; run the
	// paper's two experiments and merge them.
	cfg := machine.ScaledConfig()
	input := []int64{30000}
	a, resA, _, err := core.ProfilePaperStyle(context.Background(), prog, input, &cfg, core.PaperIntervals{
		ECStall: 20011, ECRdMiss: 1009, ECRef: 4001, DTLBMiss: 503,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("program output: %v\n", resA.Machine.OutputLongs())
	fmt.Printf("simulated time: %.3f s (%d cycles)\n\n",
		resA.Machine.Seconds(resA.Machine.Stats().Cycles), resA.Machine.Stats().Cycles)

	// Step 3 (§2.3): analyze.
	fmt.Println("==== <Total> metrics (like paper Figure 1) ====")
	a.TotalReport(os.Stdout)

	fmt.Println("\n==== Function list (like paper Figure 2) ====")
	a.FunctionList(os.Stdout, analyzer.ByUserCPU)

	fmt.Println("\n==== Data objects (like paper Figure 6) ====")
	a.DataObjectList(os.Stdout, analyzer.ByEvent(hwc.EvECStall))

	fmt.Println("\n==== struct cell members (like paper Figure 7) ====")
	if err := a.MemberList(os.Stdout, "cell"); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n==== Annotated source of chase (like paper Figure 3) ====")
	if err := a.AnnotatedSource(os.Stdout, "chase"); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n==== Backtracking effectiveness ====")
	a.EffectivenessReport(os.Stdout)
}
