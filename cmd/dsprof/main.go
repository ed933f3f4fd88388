// Command dsprof is the one-shot reproduction driver: it runs the paper's
// MCF case study end to end and writes every figure of the evaluation
// section to a directory, or reruns the §3.3 optimization experiments.
//
//	dsprof study    [-trips 1200] [-o figures/]   # Figures 1-7 + §4 reports
//	dsprof speedups [-trips 1200]                 # §2.1 overhead + §3.3 speedups
//
// The study takes minutes of simulation at the default paper-scale
// configuration; use -trips 400 for a quick look.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"dsprof/internal/analyzer"
	"dsprof/internal/cli"
	"dsprof/internal/core"
	"dsprof/internal/hwc"
	"dsprof/internal/mcf"
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
	write := func(name string, f func(io.Writer) error) error {
		path := filepath.Join(outDir, name)
		file, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := f(file); err != nil {
			file.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := file.Close(); err != nil {
			return err
		}
		log.Printf("wrote %s", path)
		return nil
	}
	figures := []struct {
		name string
		f    func(io.Writer) error
	}{
		{"fig1-total.txt", func(f io.Writer) error { s.Figure1(f); return nil }},
		{"fig2-functions.txt", func(f io.Writer) error { s.Figure2(f); return nil }},
		{"fig3-annotated-source.txt", s.Figure3},
		{"fig4-annotated-disasm.txt", s.Figure4},
		{"fig5-pcs.txt", func(f io.Writer) error { s.Figure5(f, 17); return nil }},
		{"fig6-data-objects.txt", func(f io.Writer) error { s.Figure6(f); return nil }},
		{"fig7-node-members.txt", s.Figure7},
		{"addrspace.txt", func(f io.Writer) error {
			s.Analyzer.AddressSpaceReport(f, analyzer.ByEvent(hwc.EvECRdMiss), 10)
			return nil
		}},
		{"lines.txt", func(f io.Writer) error {
			s.Analyzer.LineList(f, analyzer.ByEvent(hwc.EvECStall), 20)
			return nil
		}},
		{"feedback.txt", func(f io.Writer) error {
			s.Analyzer.WriteFeedbackFile(f, 0.01)
			return nil
		}},
	}
	for _, fig := range figures {
		if err := write(fig.name, fig.f); err != nil {
			return err
		}
	}
	log.Printf("solved: cost=%d pivots=%d (%.3f simulated seconds)", s.Output.Cost, s.Output.Pivots, s.Seconds)
	return nil
}

func runSpeedups(trips int) error {
	base := core.DefaultStudy(core.MCF)
	base.Size = trips
	variant := func(name string, p core.StudyParams) error {
		cycles, out, err := core.TimeMCF(p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("%-36s %14d cycles  cost=%d\n", name, cycles, out.Cost)
		return nil
	}
	fmt.Printf("timing MCF variants (trips=%d, unprofiled)...\n", trips)
	noProf := base
	noProf.HWCProf = false
	opt := base
	opt.Layout = mcf.LayoutOptimized.String()
	pages := base
	pages.PageSizeHeap = 512 << 10
	both := opt
	both.PageSizeHeap = 512 << 10
	variants := []struct {
		name string
		p    core.StudyParams
	}{
		{"baseline (-xhwcprof, paper layout)", base},
		{"without -xhwcprof (§2.1)", noProf},
		{"optimized struct layout (§3.3)", opt},
		{"-xpagesize_heap=512k (§3.3)", pages},
		{"combined (§3.3)", both},
	}
	for _, v := range variants {
		if err := variant(v.name, v.p); err != nil {
			return err
		}
	}
	return nil
}
