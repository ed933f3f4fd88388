// Command gen writes a bundled workload's inputs (see core.Workload): a
// seeded instance (the program's input vector), the workload's MC
// source, or the Go reference's answer for an instance. MCF instances
// (single-depot vehicle scheduling as min-cost flow) are sized in trips,
// n-body citation graphs in papers (rounded up to even):
//
//	gen -workload mcf -size 1200 -seed 7 -o mcf.in                  # instance (input vector)
//	gen -workload mcf -emit-source -layout paper -o mcf.mc          # the MC program
//	gen -workload mcf -size 100 -reference                          # the native solvers' optimum
//	gen -workload nbody -emit-source -layout compressed -o nbody.mc
//	gen -workload nbody -size 200 -reference                        # the Go model's output
//
// Every flag is checked before anything is written, and -o FILE is
// all-or-nothing: a failure leaves FILE untouched.
package main

import (
	"flag"
	"fmt"
	"io"

	"dsprof/internal/cli"
	"dsprof/internal/core"
)

func main() {
	cli.Main("gen", run)
}

func run() error {
	workload := flag.String("workload", core.MCF.Name, "bundled workload: mcf or nbody")
	size := flag.Int("size", 0, "instance size: MCF trips, n-body papers (0 = the workload's default)")
	seed := flag.Uint64("seed", core.DefaultSeed, "generator seed")
	layout := flag.String("layout", "", "struct layout for -emit-source, in the workload's names (default: its first)")
	emitSource := flag.Bool("emit-source", false, "write the program source instead of an instance")
	reference := flag.Bool("reference", false, "solve the generated instance with the Go reference and print its answer")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	if flag.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", flag.Arg(0))
	}
	w, err := core.LookupWorkload(*workload)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	l, err := w.Layout(*layout)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	if *size < 0 {
		return cli.Usagef("negative size %d", *size)
	}
	if *size == 0 {
		*size = w.DefaultSize
	}
	if *emitSource && *reference {
		return cli.Usagef("-emit-source and -reference are mutually exclusive")
	}

	return cli.WriteOutput(*out, func(out io.Writer) error {
		switch {
		case *emitSource:
			for _, src := range w.Sources(l) {
				io.WriteString(out, src.Text)
			}
		case *reference:
			text, err := w.Reference(*size, *seed)
			io.WriteString(out, text)
			return err
		default:
			for _, v := range w.Generate(*size, *seed) {
				fmt.Fprintln(out, v)
			}
		}
		return nil
	})
}
