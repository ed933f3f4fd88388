// Command collect runs a compiled program under profiling, like the
// paper's collect(1):
//
//	collect [-o expt.er] [-p on|off] [-h +ecstall,lo,+ecrm,on]
//	        [-prov on|off] [-scaled]
//	        [-cpuprofile host.pprof] [-memprofile heap.pprof]
//	        [-input file] prog.obj
//
// With no arguments it lists the available hardware counters, as the
// paper describes. The -h counter specification takes up to two
// counters (the chip has two counter registers); a "+" prefix requests
// apropos backtracking for memory-related counters. The input file holds
// one integer per line (the program's input vector).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dsprof/internal/asm"
	"dsprof/internal/cli"
	"dsprof/internal/collect"
	"dsprof/internal/hwc"
	"dsprof/internal/machine"
)

func listCounters() {
	fmt.Println("Available hardware counters (use with -h name,interval[,name,interval]):")
	for _, name := range hwc.EventNames() {
		ev, _ := hwc.ParseEvent(name)
		kind := "events"
		if ev.CountsCycles() {
			kind = "cycles"
		}
		bt := ""
		if ev.MemoryRelated() {
			bt = " (memory-related; prefix with + for apropos backtracking)"
		}
		fmt.Printf("  %-8s %-28s counts %s%s\n", name, ev.Desc(), kind, bt)
	}
	fmt.Println("Intervals: 'on', 'high', 'low' or a numeric count (primes recommended).")
}

func readInput(path string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		for _, fld := range strings.Fields(sc.Text()) {
			v, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad input value %q", fld)
			}
			out = append(out, v)
		}
	}
	return out, sc.Err()
}

// onOff parses an on|off flag value; anything else is a usage error, so
// a misspelt value never silently turns a profiling mode off.
func onOff(name, v string) (bool, error) {
	switch v {
	case "on":
		return true, nil
	case "off":
		return false, nil
	}
	return false, cli.Usagef("%s %q: want on or off", name, v)
}

func main() {
	cli.Main("collect", run)
}

func run() error {
	out := flag.String("o", "test.1.er", "experiment directory to write")
	clock := flag.String("p", "on", "clock profiling: on or off")
	counters := flag.String("h", "", "hardware counter spec, e.g. +ecstall,lo,+ecrm,on")
	prov := flag.String("prov", "off", "allocation-site provenance recording: on or off")
	inputPath := flag.String("input", "", "program input file (whitespace-separated integers)")
	scaled := flag.Bool("scaled", false, "use the scaled machine configuration")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the collection run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile of the collector at run end to this file")
	flag.Parse()

	if flag.NArg() == 0 && *counters == "" {
		listCounters()
		return nil
	}
	if flag.NArg() != 1 {
		return cli.Usagef("exactly one program object expected")
	}
	clockOn, err := onOff("-p", *clock)
	if err != nil {
		return err
	}
	provOn, err := onOff("-prov", *prov)
	if err != nil {
		return err
	}
	prog, err := asm.LoadFile(flag.Arg(0))
	if err != nil {
		return err
	}
	specs, err := collect.ParseCounterSpec(*counters)
	if err != nil {
		return cli.UsageError{Err: err}
	}
	var input []int64
	if *inputPath != "" {
		input, err = readInput(*inputPath)
		if err != nil {
			return err
		}
	}
	cfg := machine.DefaultConfig()
	if *scaled {
		cfg = machine.ScaledConfig()
	}
	// Spool counter events straight into the output directory as they
	// are produced: memory stays flat on long runs, and Save finds the
	// shard files already in place.
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	res, err := collect.Run(prog, collect.Options{
		ClockProfile: clockOn,
		Counters:     specs,
		Machine:      &cfg,
		Input:        input,
		SpoolDir:     *out,
		Provenance:   provOn,
		CPUProfile:   *cpuprofile,
		MemProfile:   *memprofile,
	})
	if err != nil {
		if res == nil {
			return fmt.Errorf("target failed: %w", err)
		}
		// The target trapped but the partial experiment is still worth
		// saving; report the failure on stderr and fall through.
		fmt.Fprintf(os.Stderr, "collect: target failed: %v\n", err)
	}
	if err := res.Exp.Save(*out); err != nil {
		return err
	}
	st := res.Machine.Stats()
	fmt.Printf("collect: %s: %d instructions, %d cycles (%.3f s simulated)\n",
		prog.Name, st.Instrs, st.Cycles, res.Machine.Seconds(st.Cycles))
	fmt.Printf("collect: wrote experiment %s (%d clock ticks, %d+%d counter events)\n",
		*out, len(res.Exp.Clock), res.Exp.EventCount(0), res.Exp.EventCount(1))
	if text := res.Machine.OutputText(); text != "" {
		fmt.Print(text)
	}
	if longs := res.Machine.OutputLongs(); len(longs) > 0 {
		fmt.Printf("program output: %v\n", longs)
	}
	return nil
}
