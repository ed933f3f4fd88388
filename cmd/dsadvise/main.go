// Command dsadvise is the closed-loop data-layout advisor: it turns a
// data-space profile into ranked struct layout recommendations
// (member reordering, hot/cold splitting, padding) and validates them
// by recompiling with the proposed layout and measuring the re-run.
//
//	dsadvise advice [-pools] [-n 20] [-o FILE] expt.er...
//	    render the advice report for existing experiments
//	    (byte-identical to `erprint advice` and profd's /reports/advice);
//	    -pools renders allocation-site split-pool advice instead, which
//	    needs experiments collected with provenance enabled
//
//	dsadvise loop [-workload mcf] [-size N] [-seed S] [-layout L]
//	              [-machine study] [-window 16] [-minshare 0.05] [-n 20]
//	              [-o FILE]
//	    full loop on a bundled workload (mcf or nbody): profile a
//	    baseline, derive recommendations, re-run each with the layout
//	    override applied, and report measured accepted/rejected verdicts;
//	    -size is the instance size (MCF trips, n-body papers; 0 selects
//	    the workload's default) and -layout the baseline layout in the
//	    workload's own names (mcf: paper or optimized; nbody: baseline
//	    or compressed)
//
// -o FILE is all-or-nothing: a failed run leaves FILE untouched.
//
// Exit status: 0 on success, 1 on runtime failure, 2 on usage errors
// (unknown command, bad token, an option out of its range) — erprint's
// conventions.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dsprof/internal/advisor"
	"dsprof/internal/analyzer"
	"dsprof/internal/cli"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/version"
)

func main() {
	cli.Main("dsadvise", run)
}

func run() error {
	if len(os.Args) >= 2 && os.Args[1] == "-version" {
		version.Print(os.Stdout, "dsadvise")
		return nil
	}
	if len(os.Args) < 2 {
		return usage()
	}
	switch os.Args[1] {
	case "advice":
		return runAdvice(os.Args[2:])
	case "loop":
		return runLoop(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "dsadvise: unknown command %q\n", os.Args[1])
		return usage()
	}
}

func usage() error {
	fmt.Fprintln(os.Stderr, `usage: dsadvise {advice|loop} [flags]
  advice [-pools] [-n 20] [-o FILE] expt.er...           advise from existing experiments
  loop   [-workload mcf|nbody] [-size N] [-seed S]       closed loop on a bundled workload
         [-layout L] [-machine M] [-window W]
         [-minshare F] [-n 20] [-o FILE]
  -version                                               print the suite version`)
	return cli.Usagef("unknown or missing subcommand")
}

func runAdvice(args []string) error {
	fs := flag.NewFlagSet("advice", flag.ContinueOnError)
	topN := fs.Int("n", 20, "maximum recommendations")
	pools := fs.Bool("pools", false, "allocation-site split-pool advice (needs provenance in the experiments)")
	outPath := fs.String("o", "", "write the report to FILE instead of stdout")
	if err := fs.Parse(args); err != nil {
		return cli.UsageError{Err: err}
	}
	if *topN < 0 {
		return cli.Usagef("negative -n %d", *topN)
	}
	var dirs []string
	for _, arg := range fs.Args() {
		if strings.HasSuffix(arg, ".er") || dirExists(arg) {
			dirs = append(dirs, arg)
			continue
		}
		fmt.Fprintf(os.Stderr, "valid reports:\n%s", analyzer.ReportUsage())
		return cli.Usagef("%q is not an experiment directory", arg)
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dsadvise advice [-n 20] [-o FILE] expt.er...")
		return cli.Usagef("no experiments given")
	}
	var exps []*experiment.Experiment
	for _, d := range dirs {
		// Open streams v2 counter events from disk during reduction.
		e, err := experiment.Open(d)
		if err != nil {
			return err
		}
		exps = append(exps, e)
	}
	a, err := analyzer.New(exps...)
	if err != nil {
		return err
	}
	report := "advice"
	if *pools {
		report = "pool-advice"
	}
	return cli.WriteOutput(*outPath, func(out io.Writer) error {
		return a.Render(out, report, analyzer.RenderOpts{TopN: *topN})
	})
}

func runLoop(args []string) error {
	fs := flag.NewFlagSet("loop", flag.ContinueOnError)
	workload := fs.String("workload", core.MCF.Name, "bundled workload: mcf or nbody")
	size := fs.Int("size", 0, "instance size: MCF trips, n-body papers (0 = the workload's default)")
	seed := fs.Uint64("seed", core.DefaultSeed, "instance seed")
	layout := fs.String("layout", "", "baseline struct layout, in the workload's names (default: its first)")
	machineName := fs.String("machine", "study", "machine configuration: study, scaled or default")
	window := fs.Int("window", 16, "co-access affinity window (events)")
	minShare := fs.Float64("minshare", 0.05, "minimum metric share for a struct to be considered")
	topN := fs.Int("n", 20, "maximum recommendations")
	outPath := fs.String("o", "", "write the report to FILE instead of stdout")
	if err := fs.Parse(args); err != nil {
		return cli.UsageError{Err: err}
	}
	if fs.NArg() > 0 {
		return cli.Usagef("loop takes no positional arguments, got %q", fs.Arg(0))
	}
	w, err := core.LookupWorkload(*workload)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	if _, err := w.Layout(*layout); err != nil {
		return cli.UsageError{Err: err}
	}
	if *size < 0 {
		return cli.Usagef("negative size %d", *size)
	}
	opts := advisor.Options{Window: *window, MinShare: *minShare, MaxRecs: *topN}
	if err := opts.Check(); err != nil {
		return cli.UsageError{Err: err}
	}
	if *size == 0 {
		*size = w.DefaultSize
	}
	cfg, err := core.MachineConfig(*machineName)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	run, err := core.Advise(context.Background(), core.AdviseParams{
		Study: core.StudyParams{
			Workload: w, Layout: *layout, Size: *size, Seed: *seed, HWCProf: true, Machine: &cfg,
		},
		Intervals: w.Intervals(*size),
		Advisor:   opts,
	})
	if err != nil {
		return err
	}
	return cli.WriteOutput(*outPath, func(out io.Writer) error {
		return run.WriteReport(out, *topN)
	})
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
