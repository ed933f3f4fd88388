// structlayout reproduces the paper's §3.3 struct-layout optimization:
// re-ordering the node/arc members by reference frequency, padding the
// node to a power-of-two size and aligning the array so no object
// straddles an E$ line. The paper measured a 16.2% speedup on MCF; this
// example measures the same experiment on the scaled system and shows
// the split-object statistic that motivates it (§3.2.5).
//
//	go run ./examples/structlayout [-trips 600]
package main

import (
	"flag"
	"fmt"
	"log"

	"dsprof/internal/core"
	"dsprof/internal/mcf"
)

func main() {
	trips := flag.Int("trips", 600, "instance size; the paper-scale study uses 1200")
	flag.Parse()

	base := core.DefaultStudy(core.MCF)
	base.Size = *trips

	fmt.Println("Profiling the baseline to expose the layout problem...")
	study, err := core.RunStudy(base)
	if err != nil {
		log.Fatal(err)
	}
	split, err := study.Analyzer.SplitObjects("node")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d-byte node objects split across %d-byte E$ lines: %d of %d (%.0f%%)\n",
		split.Size, split.LineBytes, split.Split, split.Total, 100*split.Fraction())
	fmt.Println("  (the paper found 28% of its 120-byte nodes split this way)")

	fmt.Println("\nTiming both layouts without profiling...")
	baseStats, baseOut, err := core.TimeMCF(base)
	if err != nil {
		log.Fatal(err)
	}
	opt := base
	opt.Layout = mcf.LayoutOptimized.String()
	optStats, optOut, err := core.TimeMCF(opt)
	if err != nil {
		log.Fatal(err)
	}
	if baseOut.Cost != optOut.Cost {
		log.Fatalf("layouts computed different answers: %d vs %d", baseOut.Cost, optOut.Cost)
	}
	gain := 100 * (float64(baseStats.Cycles) - float64(optStats.Cycles)) / float64(baseStats.Cycles)
	fmt.Printf("  paper layout:     %12d cycles\n", baseStats.Cycles)
	fmt.Printf("  optimized layout: %12d cycles\n", optStats.Cycles)
	fmt.Printf("  improvement:      %.1f%%  (paper: 16.2%%)\n", gain)
	fmt.Printf("  identical result: cost=%d\n", baseOut.Cost)
}
