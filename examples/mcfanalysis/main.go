// mcfanalysis reproduces the paper's §3 walk-through end to end: it
// compiles the MCF benchmark with memory profiling, collects the two
// experiments of §3.1, and prints every figure of the evaluation
// (Figures 1-7) plus the §4 address-space reports.
//
//	go run ./examples/mcfanalysis [-trips 600]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dsprof/internal/analyzer"
	"dsprof/internal/core"
	"dsprof/internal/hwc"
)

func main() {
	trips := flag.Int("trips", 600, "instance size (timetabled trips); the paper-scale study uses 1200")
	flag.Parse()

	p := core.DefaultStudy(core.MCF)
	p.Size = *trips
	fmt.Printf("Running the MCF study: trips=%d layout=%v (two collect runs)...\n\n", p.Size, p.Layout)
	s, err := core.RunStudy(p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MCF solved: cost=%d, %d pivots, %d potential refreshes, %d price-out rounds\n",
		s.Output.Cost, s.Output.Pivots, s.Output.Refreshes, s.Output.PriceOuts)
	fmt.Printf("run time: %.3f simulated seconds\n\n", s.Seconds)

	for _, fig := range s.Figures() {
		if !strings.HasPrefix(fig.File, "fig") {
			continue // the §4 reports follow, at this example's sizes
		}
		if err := fig.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	fmt.Println("==== §4 future-work reports: address-space breakdown ====")
	s.Analyzer.AddressSpaceReport(os.Stdout, analyzer.ByEvent(hwc.EvECRdMiss), 8)

	fmt.Println("\n==== §4 future-work reports: hottest node instances ====")
	inst, err := s.Analyzer.Instances("node", analyzer.ByEvent(hwc.EvECRdMiss), 8)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range inst {
		split := ""
		if r.Split {
			split = "  (split across E$ lines)"
		}
		fmt.Printf("  node instance #%d at 0x%08x: %d E$ read-miss events%s\n",
			r.Index, r.Addr, r.M.Events[hwc.EvECRdMiss], split)
	}
}
