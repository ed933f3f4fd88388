// pagesize reproduces the paper's §3.3 large-page experiment: MCF's
// pointer-chasing working set overwhelms the DTLB with the default 8 KB
// pages; rebuilding with -xpagesize_heap=512k multiplies each TLB entry's
// reach by 64 and recovers the paper's ~3.9% of run time. The example
// sweeps several heap page sizes and reports DTLB misses and run time.
//
//	go run ./examples/pagesize [-trips 600]
package main

import (
	"flag"
	"fmt"
	"log"

	"dsprof/internal/cc"
	"dsprof/internal/core"
	"dsprof/internal/mcf"
)

func main() {
	trips := flag.Int("trips", 600, "instance size; the paper-scale study uses 1200")
	flag.Parse()

	ins := mcf.Generate(mcf.DefaultGenParams(*trips, 20030717))
	cfg := core.StudyMachine()
	// Scale the TLB with the instance so the demo shows the paper's
	// effect at small sizes too (the paper-scale study, `dsprof
	// speedups`, uses the standard 128-entry TLB with 1200-trip
	// instances).
	if *trips < 1000 {
		cfg.TLB.Entries = 16
	}

	fmt.Printf("MCF with %d trips on the scaled machine (%d-entry DTLB):\n\n", *trips, cfg.TLB.Entries)
	fmt.Printf("%10s %14s %14s %10s %9s\n", "heap page", "cycles", "DTLB misses", "TLB reach", "vs 8K")
	var base uint64
	for _, ps := range []uint64{8 << 10, 64 << 10, 512 << 10, 4 << 20} {
		prog, err := mcf.Program(mcf.LayoutPaper, cc.Options{HWCProf: true, PageSizeHeap: ps})
		if err != nil {
			log.Fatal(err)
		}
		m, err := core.RunOnce(prog, ins.Encode(), &cfg)
		if err != nil {
			log.Fatal(err)
		}
		st := m.Stats()
		if base == 0 {
			base = st.Cycles
		}
		fmt.Printf("%9dK %14d %14d %9dM %+8.1f%%\n",
			ps>>10, st.Cycles, st.DTLBMisses,
			(ps*uint64(cfg.TLB.Entries))>>20,
			100*(float64(st.Cycles)-float64(base))/float64(base))
	}
	fmt.Println("\n(the paper measured a 3.9% improvement going from 8K to 512K pages)")
}
