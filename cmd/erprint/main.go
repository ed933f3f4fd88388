// Command erprint analyzes experiments, like the paper's er_print:
//
//	erprint [-sort metric] [-n 20] [-o FILE] report... expt.er...
//	erprint -recover expt.er...
//
// Reports:
//
//	total       <Total> metrics (paper Figure 1)
//	functions   the function list (Figure 2)
//	source=FN   annotated source of function FN (Figure 3)
//	disasm=FN   annotated disassembly of FN (Figure 4)
//	pcs         hot PCs with data-object descriptors (Figure 5)
//	lines       hot source lines
//	objects     data objects (Figure 6)
//	members=T   struct T member expansion (Figure 7)
//	callers=FN  callers/callees of FN
//	addrspace   segment/page/cache-line breakdown (paper §4)
//	feedback    prefetch feedback file (paper §4)
//	effect      apropos backtracking effectiveness
//	advice      ranked data-layout recommendations (internal/advisor)
//
// With allocation-site provenance collected (collect -prov on):
//
//	site-heat        allocation sites ranked by joined counter events
//	obj-timeline=FN  per-instance access timelines for blocks born in FN
//	dead-objects     dead-on-arrival / write-only / single-use blocks
//	pool-advice      allocation-site split-pool recommendations
//
// -recover salvages experiment directories left behind by a crashed or
// interrupted collect/save before analyzing them: the manifest's
// checksums pick the longest validated shard prefix, the directory is
// rewritten in place, and the losses are reported. With no reports,
// -recover just salvages and exits.
//
// -o FILE is all-or-nothing: reports render into memory and reach FILE
// through a same-directory temp file and rename, so a rendering failure
// can never leave a truncated report behind (or clobber a previous one).
//
// Multiple experiments merge, as with the paper's two collect runs.
// Unknown report names are rejected up front with the list of valid
// reports; an argument that is neither a known report nor an existing
// experiment directory is an error, never silently ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	_ "dsprof/internal/advisor" // registers the "advice" and "pool-advice" reports
	"dsprof/internal/analyzer"
	"dsprof/internal/cli"
	"dsprof/internal/experiment"
	"dsprof/internal/hwc"
	_ "dsprof/internal/objtrack" // registers the object-centric reports
	"dsprof/internal/version"
)

func main() {
	cli.Main("erprint", run)
}

func run() error {
	sortName := flag.String("sort", "", "sort metric: cpu, ecstall, ecrm, ecref, dtlbm, ...")
	topN := flag.Int("n", 20, "rows in top-N reports")
	outPath := flag.String("o", "", "write report output to FILE instead of stdout")
	doRecover := flag.Bool("recover", false, "salvage interrupted experiment directories before analyzing (usable with no reports)")
	showVersion := flag.Bool("version", false, "print the suite version and exit")
	flag.Parse()
	if *showVersion {
		version.Print(os.Stdout, "erprint")
		return nil
	}

	var reports []string
	var dirs []string
	for _, arg := range flag.Args() {
		name, _ := analyzer.SplitReport(arg)
		switch {
		case analyzer.ValidReport(name):
			reports = append(reports, arg)
		case strings.HasSuffix(arg, ".er") || dirExists(arg):
			dirs = append(dirs, arg)
		default:
			fmt.Fprintf(os.Stderr, "valid reports:\n%s", analyzer.ReportUsage())
			return cli.Usagef("%q is neither a report nor an experiment directory", arg)
		}
	}
	if len(dirs) == 0 || (len(reports) == 0 && !*doRecover) {
		fmt.Fprintln(os.Stderr, "usage: erprint [flags] report... experiment.er...")
		fmt.Fprintln(os.Stderr, "       erprint -recover experiment.er...")
		fmt.Fprintf(os.Stderr, "valid reports:\n%s", analyzer.ReportUsage())
		flag.Usage()
		return cli.Usagef("nothing to do")
	}
	if *doRecover {
		// Salvage each directory in place before analysis: validate the
		// manifest, keep the longest good shard prefix, rewrite the
		// directory, and say exactly what (if anything) was lost.
		for _, d := range dirs {
			rep, err := experiment.Recover(d)
			if err != nil {
				return fmt.Errorf("recovering %s: %w", d, err)
			}
			if rep.Clean {
				fmt.Fprintf(os.Stderr, "erprint: %s: intact, nothing to recover\n", d)
			} else {
				fmt.Fprintf(os.Stderr, "erprint: %s: %s\n", d, rep.Summary())
			}
		}
		if len(reports) == 0 {
			return nil
		}
	}
	var exps []*experiment.Experiment
	for _, d := range dirs {
		// Open, not Load: format-v2 counter events stay on disk and the
		// analyzer's sharded reduction streams them in parallel.
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

	opts := analyzer.RenderOpts{TopN: *topN}
	if *sortName != "" {
		sortBy := analyzer.ByUserCPU
		if *sortName != "cpu" {
			ev, err := hwc.ParseEvent(*sortName)
			if err != nil {
				return cli.UsageError{Err: err}
			}
			sortBy = analyzer.ByEvent(ev)
		}
		opts.Sort = &sortBy
	}

	render := func(out io.Writer) error {
		// A single report renders bare (byte-identical to the profd HTTP
		// report endpoint, and pipeable); multiple reports get banners.
		for _, rep := range reports {
			if len(reports) > 1 {
				fmt.Fprintf(out, "==== %s ====\n", rep)
			}
			if err := a.Render(out, rep, opts); err != nil {
				return err
			}
			if len(reports) > 1 {
				fmt.Fprintln(out)
			}
		}
		return nil
	}
	return cli.WriteOutput(*outPath, render)
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}
