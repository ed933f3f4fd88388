// Command dsbench is dsprof's pipeline benchmark (package dsprof/bench).
//
// One workload, one run — the form BENCHMARK.json's command takes:
//
//	dsbench --workload mcf-profile --seed 1 --seconds 20 --trace 0
//
// prints every metric by name with its unit, then, as its last line, a
// JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 spans
// are recorded and the metrics are the per-layer ones (--trace-out
// writes the spans).
//
// A set — every workload, each run in a fresh child process, untraced
// and traced runs alternating — written to a file:
//
//	dsbench -seed 20030717 -o set.json [-runs 3] [-trace-out trace.json]
//
// Two sets compared metric by metric, with the bounds in
// BENCHMARK.json (exit status 1 when any metric got worse):
//
//	dsbench compare [-spec BENCHMARK.json] base.json change.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"dsprof/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dsbench:", err)
		os.Exit(1)
	}
}

// errWorse is the compare command's result when a metric got worse.
var errWorse = errors.New("at least one metric is worse than its bound allows")

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:])
	}
	fs := flag.NewFlagSet("dsbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload: "+strings.Join(bench.Workloads, ", "))
	seed := fs.Uint64("seed", 20030717, "seed the workload inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measuring time per run, after set-up and one warm-up iteration")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "write the spans of a traced run to this file")
	all := fs.Bool("all", false, "report end-to-end and per-layer metrics together")
	workDir := fs.String("workdir", "", "directory for scratch files (default: the system temp dir)")
	out := fs.String("o", "", "run every workload and write the set to this file")
	runs := fs.Int("runs", 1, "untraced and traced runs of each workload in a set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("usage: dsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] | dsbench -o SET.json [-seed N] | dsbench compare BASE.json CHANGE.json")
	}
	if *workload != "" {
		return runOne(bench.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: *workDir,
		}, *trace == 1 || *all, *trace == 0 || *all, *traceOut)
	}
	if *out == "" {
		return fmt.Errorf("name a --workload, or a set file with -o")
	}
	return runSet(*seed, *seconds, *runs, *workDir, *out, *traceOut)
}

// runOne runs one workload in this process and prints its metrics.
func runOne(opts bench.Options, perLayer, endToEnd bool, traceOut string) error {
	rep, err := bench.Run(opts)
	if err != nil {
		return err
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, rep.Spans); err != nil {
			return err
		}
	}
	fmt.Printf("# %s seed %d\n", opts.Workload, opts.Seed)
	rep.WriteText(os.Stdout, endToEnd, perLayer)
	line, err := json.Marshal(rep.Select(endToEnd, perLayer))
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(line, '\n'))
	return err
}

func writeTrace(path string, spans []bench.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// child runs one workload in a fresh process, so its peak RSS and GC
// state belong to that workload alone, and returns its result line.
func child(args ...string) (*bench.Result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	// The child dies with this process, so an interrupted set leaves no
	// run behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("dsbench %s: %w", strings.Join(args, " "), err)
	}
	os.Stderr.Write(stdout.Bytes())
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		last = sc.Text()
	}
	var res bench.Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("dsbench %s: result line: %w", strings.Join(args, " "), err)
	}
	return &res, nil
}

// runSet runs every workload -runs times untraced (end-to-end numbers)
// and as often traced (per-layer numbers), alternating so that both see
// the same host conditions, and writes the set.
func runSet(seed uint64, seconds float64, runs int, workDir, out, traceOut string) error {
	if workDir == "" {
		workDir = os.TempDir()
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	set := &bench.Set{
		Seed: seed, Seconds: seconds, Workloads: make(map[string]*bench.SetWorkload),
		Host: bench.Host{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			OS: runtime.GOOS, Arch: runtime.GOARCH,
		},
	}
	for _, w := range bench.Workloads {
		set.Workloads[w] = &bench.SetWorkload{}
	}
	var spans []bench.Span
	for i := 0; i < runs; i++ {
		for _, w := range bench.Workloads {
			args := []string{"--workload", w, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--workdir", workDir, "--all"}
			sw := set.Workloads[w]
			res, err := child(append(args, "--trace", "0")...)
			if err != nil {
				return err
			}
			sw.Runs = append(sw.Runs, *res)
			// The first round's traced runs write the spans.
			tf := ""
			if i == 0 && traceOut != "" {
				tf = filepath.Join(workDir, "trace-"+w+".json")
				args = append(args, "--trace-out", tf)
			}
			if res, err = child(append(args, "--trace", "1")...); err != nil {
				return err
			}
			sw.Traced = append(sw.Traced, *res)
			if tf == "" {
				continue
			}
			f, err := os.Open(tf)
			if err != nil {
				return err
			}
			s, err := bench.ReadTrace(f)
			f.Close()
			os.Remove(tf)
			if err != nil {
				return err
			}
			spans = append(spans, s...)
		}
	}
	for _, sw := range set.Workloads {
		if m := bench.Median(bench.Values(sw.Runs, "wall_s")); m > 0 {
			sw.TracingOverheadPct = 100 * (bench.Median(bench.Values(sw.Traced, "wall_s"))/m - 1)
		}
	}
	if traceOut != "" {
		if err := writeTrace(traceOut, spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, w := range bench.Workloads {
		sw := set.Workloads[w]
		var fails int64
		for _, r := range sw.Runs {
			fails += r.Failed
		}
		fmt.Printf("%-13s", w)
		for _, m := range bench.EndToEnd {
			fmt.Printf("  %s %.4g", m.Name, bench.Median(bench.Values(sw.Runs, m.Name)))
		}
		fmt.Printf("  failed %d  tracing overhead %+.1f%%\n", fails, sw.TracingOverheadPct)
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func compare(args []string) error {
	fs := flag.NewFlagSet("dsbench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description with the metric bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: dsbench compare [-spec BENCHMARK.json] base.json change.json")
	}
	spec, err := bench.ReadSpec(*specPath)
	if err != nil {
		return err
	}
	base, err := bench.ReadSet(fs.Arg(0))
	if err != nil {
		return err
	}
	change, err := bench.ReadSet(fs.Arg(1))
	if err != nil {
		return err
	}
	rows := bench.Compare(spec, base, change)
	if err := bench.WriteRows(os.Stdout, rows); err != nil {
		return err
	}
	for _, r := range rows {
		if r.Verdict == bench.VerdictWorse {
			return errWorse
		}
	}
	return nil
}
