// Command dsprof is the one-shot reproduction driver: it runs the paper's
// MCF case study end to end and writes every figure of the evaluation
// section to a directory, or reruns the §3.3 optimization experiments.
//
//	dsprof study    [-trips 1200] [-o figures/]   # Figures 1-7 + §4 reports
//	dsprof speedups [-trips 1200]                 # §2.1 overhead + §3.3 speedups
//
// At the default 1200 trips, `dsprof study -o docs/sample-figures`
// regenerates the checked-in figures byte for byte (TestSampleFigures
// compares them) and speedups prints the cycle counts TestPaperNumbers
// pins. Each takes seconds to a minute of simulation; use -trips 400
// for a quick look.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"dsprof/internal/cli"
	"dsprof/internal/core"
	"dsprof/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dsprof: ")
	cli.Main("dsprof", run)
}

func run() error {
	if len(os.Args) < 2 {
		return usage()
	}
	if os.Args[1] == "-version" {
		version.Print(os.Stdout, "dsprof")
		return nil
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	trips := fs.Int("trips", 1200, "instance size (timetabled trips)")
	outDir := fs.String("o", "figures", "output directory (study)")
	if err := fs.Parse(os.Args[2:]); err != nil {
		return cli.UsageError{Err: err}
	}
	switch cmd {
	case "study":
		return runStudy(*trips, *outDir)
	case "speedups":
		return runSpeedups(*trips)
	default:
		return usage()
	}
}

func usage() error {
	fmt.Fprintln(os.Stderr, "usage: dsprof {study|speedups} [-trips N] [-o dir]")
	fmt.Fprintln(os.Stderr, "       dsprof -version")
	return cli.Usagef("unknown or missing subcommand")
}

func runStudy(trips int, outDir string) error {
	p := core.DefaultStudy(core.MCF)
	p.Size = trips
	log.Printf("running the two-experiment study (trips=%d)...", trips)
	s, err := core.RunStudy(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, fig := range s.Figures() {
		if err := writeFigure(outDir, fig); err != nil {
			return err
		}
	}
	log.Printf("solved: cost=%d pivots=%d (%.3f simulated seconds)", s.Output.Cost, s.Output.Pivots, s.Seconds)
	return nil
}

func writeFigure(dir string, fig core.Figure) error {
	path := filepath.Join(dir, fig.File)
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fig.Render(file); err != nil {
		file.Close()
		return fmt.Errorf("%s: %w", fig.File, err)
	}
	if err := file.Close(); err != nil {
		return err
	}
	log.Printf("wrote %s", path)
	return nil
}

func runSpeedups(trips int) error {
	base := core.DefaultStudy(core.MCF)
	base.Size = trips
	fmt.Printf("timing MCF variants (trips=%d, unprofiled)...\n", trips)
	for _, v := range core.PaperVariants(base) {
		st, out, err := core.TimeMCF(v.Params)
		if err != nil {
			return fmt.Errorf("%s: %w", v.Name, err)
		}
		fmt.Printf("%-36s %14d cycles  cost=%d\n", v.Name, st.Cycles, out.Cost)
	}
	return nil
}
