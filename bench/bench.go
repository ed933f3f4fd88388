// Package bench is dsbench, the pipeline benchmark of the dsprof
// profiler. It drives the profiler from outside, through its public
// functions and the profd HTTP API, on four workloads that stress
// different layers:
//
//   - mcf-profile: the paper's two-experiment (A+B) collection on MCF,
//     spooled, saved, reopened, reduced, and every registered report
//     rendered — the run every profiler user pays for;
//   - mcf-unarmed: the five §2.1/§3.3 MCF variants run with no counter
//     armed — the same machine layer without the arming path;
//   - nbody-advise: the closed advisor loop on the n-body kernel at dense
//     sampling intervals — event delivery, reduction and the advisor;
//   - profd-serve: one profd node taking a stream of profiling jobs while
//     a second client queries reports — the service path.
//
// A run sets up several times (reporting the median set-up time), runs
// one warm-up iteration, then measures iterations for a fixed time and
// reports medians. Every run checks the profiler's outputs against
// independent oracles and counts failed operations. With tracing on, a
// span is recorded around every public call the benchmark makes, and
// per-layer self times come from those spans.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Workload names.
const (
	MCFProfile  = "mcf-profile"
	MCFUnarmed  = "mcf-unarmed"
	NBodyAdvise = "nbody-advise"
	ProfdServe  = "profd-serve"
)

// Workloads lists every workload in presentation order.
var Workloads = []string{MCFProfile, MCFUnarmed, NBodyAdvise, ProfdServe}

// MetricDef names a metric and its unit. Direction and bound live in
// BENCHMARK.json, which the compare command reads.
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd are the metrics of an untraced run: what a user of the
// profiler sees, reported by every workload.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_mips", "Minstr/s"},
	{"peak_rss_mb", "MB"},
}

// PerLayer are the metrics of a traced run. Names ending in _s are span
// self time summed per iteration (median over iterations); counts and
// simulated statistics are per iteration, averaged over the workload's
// inputs, and deterministic. A layer a workload does not exercise
// reports 0.
var PerLayer = []MetricDef{
	{"cc.compile_s", "s"},
	{"cc.compiles", "count"},
	{"machine.run_s", "s"},
	{"machine.ns_per_instr", "ns/instr"},
	{"machine.instrs", "count"},
	{"machine.sim_cycles", "count"},
	{"machine.sim_ipc", "instr/cycle"},
	{"machine.ec_stall_share", "ratio"},
	{"machine.ec_rd_misses", "count"},
	{"machine.dtlb_misses", "count"},
	{"machine.layout_speedup_pct", "%"},
	{"machine.pagesize_speedup_pct", "%"},
	{"machine.combined_speedup_pct", "%"},
	{"machine.hwcprof_overhead_pct", "%"},
	{"collect.run_s", "s"},
	{"collect.ns_per_instr", "ns/instr"},
	{"collect.instrs", "count"},
	{"collect.runs", "count"},
	{"collect.hwc_events", "count"},
	{"collect.clock_ticks", "count"},
	{"collect.sample_coverage", "ratio"},
	{"experiment.save_s", "s"},
	{"experiment.open_s", "s"},
	{"experiment.bytes", "B"},
	{"experiment.shards", "count"},
	{"analyzer.reduce_s", "s"},
	{"analyzer.events", "count"},
	{"analyzer.ns_per_event", "ns/event"},
	{"analyzer.render_s", "s"},
	{"analyzer.render_bytes", "B"},
	{"analyzer.effect_ecstall", "ratio"},
	{"analyzer.effect_ecref", "ratio"},
	{"analyzer.effect_dtlbm", "ratio"},
	{"advisor.analyze_s", "s"},
	{"advisor.recs", "count"},
	{"advisor.validate_s", "s"},
	{"advisor.reruns", "count"},
	{"advisor.accepted", "count"},
	{"advisor.combined_delta_pct", "%"},
	{"profd.job_p50_s", "s"},
	{"profd.job_queue_s", "s"},
	{"profd.job_run_s", "s"},
	{"profd.query_p50_ms", "ms"},
	{"profd.query_p99_ms", "ms"},
	{"profd.query_qps", "1/s"},
	{"profd.query_cold_ms", "ms"},
	{"profd.query_warm_ms", "ms"},
	{"profd.analyzer_hit_ratio", "ratio"},
	{"profd.shard_hit_ratio", "ratio"},
}

// spanMetrics maps the span names the workloads record to the per-layer
// self-time metric each one feeds.
var spanMetrics = map[string]string{
	"cc.compile":       "cc.compile_s",
	"machine.run":      "machine.run_s",
	"collect.run":      "collect.run_s",
	"experiment.save":  "experiment.save_s",
	"experiment.open":  "experiment.open_s",
	"analyzer.reduce":  "analyzer.reduce_s",
	"analyzer.render":  "analyzer.render_s",
	"advisor.analyze":  "advisor.analyze_s",
	"advisor.validate": "advisor.validate_s",
}

// preset sizes the workloads.
type preset struct {
	ProfileTrips     int // MCF trips per mcf-profile instance
	ProfileInstances int // MCF instances mcf-profile iterations cycle through
	UnarmedTrips     int // MCF trips per mcf-unarmed instance
	UnarmedInstances int // MCF instances mcf-unarmed iterations cycle through
	AdvisePapers     int // n-body papers in the nbody-advise loop
	JobPapers        int // n-body papers per profd-serve job
	BatchJobs        int // profd-serve jobs per iteration (an even number: A+B pairs)
}

// standard is the preset BENCHMARK.json runs: an iteration takes half a
// second to two seconds on a 2-core host, so a 20 s run measures ten to
// forty. MCF's simulated work varies by several percent between
// generated instances, so the MCF workloads cycle through five
// instances and the median stays put across seeds.
var standard = preset{
	ProfileTrips:     150,
	ProfileInstances: 5,
	UnarmedTrips:     150,
	UnarmedInstances: 5,
	AdvisePapers:     300,
	JobPapers:        300,
	BatchJobs:        8,
}

// tiny is the smoke-test preset: every workload in a few seconds.
var tiny = preset{
	ProfileTrips:     60,
	ProfileInstances: 1,
	UnarmedTrips:     60,
	UnarmedInstances: 1,
	AdvisePapers:     100,
	JobPapers:        100,
	BatchJobs:        4,
}

// A run measures at least minIters iterations, and at least one per
// unit, even past Seconds.
const minIters = 3

// A run sets up minSetups times before it measures, and a workload
// whose set-up needs no teardown sets up again for interleavedSetup
// after every iteration; setup_s is the median of all of them.
const (
	minSetups        = 5
	interleavedSetup = 50 * time.Millisecond
)

// Options configure one benchmark run of one workload.
type Options struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measuring time, after set-up and the warm-up iteration
	Trace    bool
	WorkDir  string // parent of the run's scratch directory ("" = os.TempDir)
	preset   preset // zero value = standard; tests pick tiny

	// hooks lets tests tamper with the oracles' expectations.
	hooks hooks
}

type hooks struct {
	afterSetup  func(*run) // after the last set-up
	afterWarmup func(*run) // after the warm-up iteration
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is a run's outcome, printed as the last line of dsbench's
// output.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// ErrorRate is failed ÷ attempted operations.
func (r *Result) ErrorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Report is everything a run measured: the end-to-end and per-layer
// metrics, the spans (traced runs), and the human-readable notes
// printed next to the metrics (quartiles, sample counts, base counts).
type Report struct {
	Result
	EndToEnd map[string]Value
	PerLayer map[string]Value
	Notes    []string
	Spans    []Span
}

// Select returns the run's result carrying the named metric lists.
func (rep *Report) Select(endToEnd, perLayer bool) Result {
	res := rep.Result
	res.Metrics = make(map[string]Value)
	if endToEnd {
		for k, v := range rep.EndToEnd {
			res.Metrics[k] = v
		}
	}
	if perLayer {
		for k, v := range rep.PerLayer {
			res.Metrics[k] = v
		}
	}
	return res
}

// WriteText prints one line per metric — name, value, unit — followed
// by the notes.
func (rep *Report) WriteText(w io.Writer, endToEnd, perLayer bool) {
	print := func(defs []MetricDef, vals map[string]Value) {
		for _, d := range defs {
			fmt.Fprintf(w, "%-30s %16.6f %s\n", d.Name, vals[d.Name].Value, d.Unit)
		}
	}
	if endToEnd {
		print(EndToEnd, rep.EndToEnd)
	}
	if perLayer {
		print(PerLayer, rep.PerLayer)
	}
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "# "+n)
	}
	fmt.Fprintf(w, "# ops attempted %d, failed %d\n", rep.Attempted, rep.Failed)
}

// iterRec is what one iteration measured.
type iterRec struct {
	// wall is the iteration's host seconds; the runner times the whole
	// iteration unless iterate sets it to time only part of it.
	wall   float64
	instrs uint64 // simulated instructions, all machine runs of the iteration
	// counts are the iteration's deterministic per-layer values; every
	// iteration over the same unit must produce the same ones.
	counts map[string]float64
	// digest covers the iteration's rendered output and counts; nil
	// means the workload checks consistency its own way.
	digest []byte
}

// workload is one benchmark workload. setup may be called several
// times; each call replaces the previous state, whose teardown the
// runner calls first. A nil teardown means the state is plain data
// that a repeated set-up rebuilds identically. Iterations cycle through
// the workload's units — its inputs — so that a run's median covers
// several inputs while each iteration stays short.
type workload interface {
	setup(r *run) (teardown func(), err error)
	units() int
	iterate(r *run, it, unit, root int) (iterRec, error)
	// finish adds workload-specific metrics and notes after the last
	// iteration.
	finish(r *run, rep *Report)
}

// run is the state of one benchmark run.
type run struct {
	opts   Options
	preset preset
	ctx    context.Context
	tr     *tracer
	w      workload
	dir    string // scratch directory, removed when the run ends

	attempted atomic.Int64
	failed    atomic.Int64
	logged    atomic.Int64

	refDigest  map[int][]byte             // per unit, from its first iteration
	unitCounts map[int]map[string]float64 // per unit, from its first iteration
	counts     map[string]float64         // per iteration, averaged over the units
	iters      []iterRec
}

// call runs one public call of the profiler as an operation: it is
// traced under parent, counted as attempted, and counted as failed when
// it returns an error.
func (r *run) call(parent, it int, name string, fn func() error) error {
	id := r.tr.Begin(parent, it, name)
	err := fn()
	r.tr.End(id)
	r.attempted.Add(1)
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", name, err))
	}
	return err
}

// fail counts a failed operation: an error, or an oracle finding wrong
// output from an operation already counted as attempted.
func (r *run) fail(err error) {
	r.failed.Add(1)
	if r.logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "dsbench: %s: %v\n", r.opts.Workload, err)
	}
}

// check counts err, if any, as a failed operation.
func (r *run) check(err error) {
	if err != nil {
		r.fail(err)
	}
}

// iterDir returns a fresh scratch directory for iteration it; the
// runner removes it after the iteration.
func (r *run) iterDir(it int) (string, error) {
	d := r.iterPath(it)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", err
	}
	return d, nil
}

func (r *run) iterPath(it int) string { return fmt.Sprintf("%s/iter-%d", r.dir, it) }

func newWorkload(name string) (workload, error) {
	switch name {
	case MCFProfile:
		return &mcfProfile{}, nil
	case MCFUnarmed:
		return &mcfUnarmed{}, nil
	case NBodyAdvise:
		return &nbodyAdvise{}, nil
	case ProfdServe:
		return &profdServe{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

// Run runs one workload and returns what it measured. An error means
// the run could not be set up or measured at all; failed operations and
// oracle violations are counted in the report instead.
func Run(opts Options) (*Report, error) {
	w, err := newWorkload(opts.Workload)
	if err != nil {
		return nil, err
	}
	r := &run{opts: opts, preset: opts.preset, ctx: context.Background(), tr: newTracer(opts.Trace, opts.Workload), w: w}
	if r.preset == (preset{}) {
		r.preset = standard
	}
	parent := opts.WorkDir
	if parent == "" {
		parent = os.TempDir()
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	r.dir, err = os.MkdirTemp(parent, "dsbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)

	var setups []float64
	setup := func() (func(), error) {
		t0 := time.Now()
		td, err := w.setup(r)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", opts.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return td, nil
	}
	var teardown func()
	for range minSetups {
		if teardown != nil {
			teardown()
		}
		if teardown, err = setup(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if teardown != nil {
			teardown()
		}
	}()
	if h := opts.hooks.afterSetup; h != nil {
		h(r)
	}

	// One untimed warm-up iteration fills the caches. The first
	// iteration over each unit records its reference digest and counts.
	r.refDigest = make(map[int][]byte)
	r.unitCounts = make(map[int]map[string]float64)
	units := w.units()
	observe := func(it, u int, rec iterRec) {
		ref, seen := r.refDigest[u]
		if !seen {
			r.refDigest[u], r.unitCounts[u] = rec.digest, rec.counts
			return
		}
		if rec.digest != nil && string(rec.digest) != string(ref) {
			r.fail(fmt.Errorf("iteration %d: output digest differs from the first iteration's over the same input", it))
		}
	}
	warm, err := r.iteration(w, 0, 0)
	if err != nil {
		return nil, err
	}
	observe(0, 0, warm)
	if h := opts.hooks.afterWarmup; h != nil {
		h(r)
	}
	start := time.Now()
	for it := 1; ; it++ {
		if it > max(minIters, units) {
			last := r.iters[len(r.iters)-1].wall
			if time.Since(start).Seconds()+last > opts.Seconds {
				break
			}
		}
		u := (it - 1) % units
		rec, err := r.iteration(w, it, u)
		if err != nil {
			return nil, err
		}
		observe(it, u, rec)
		r.iters = append(r.iters, rec)
		// A set-up without teardown leaves nothing running, so it is
		// repeated between iterations: its samples then span the whole
		// run, like the iterations', instead of one moment of it.
		if teardown == nil {
			for t0 := time.Now(); time.Since(t0) < interleavedSetup; {
				if _, err := setup(); err != nil {
					return nil, err
				}
			}
		}
	}
	// Sum in unit order, so the averages are bit-identical run to run.
	r.counts = make(map[string]float64)
	for u := range units {
		for k, v := range r.unitCounts[u] {
			r.counts[k] += v
		}
	}
	for k := range r.counts {
		r.counts[k] /= float64(len(r.unitCounts))
	}
	rep := r.report(setups)
	w.finish(r, rep)
	return rep, nil
}

// iteration runs and times one iteration, then removes its scratch
// files outside the timed region.
func (r *run) iteration(w workload, it, unit int) (iterRec, error) {
	// Start every iteration from a collected heap, so when the garbage
	// collector runs does not depend on what the previous iteration left.
	runtime.GC()
	root := r.tr.Begin(-1, it, "bench.iteration")
	t0 := time.Now()
	rec, err := w.iterate(r, it, unit, root)
	if rec.wall == 0 {
		rec.wall = time.Since(t0).Seconds()
	}
	r.tr.End(root)
	os.RemoveAll(r.iterPath(it))
	if err != nil {
		return rec, fmt.Errorf("%s: iteration %d: %w", r.opts.Workload, it, err)
	}
	return rec, nil
}

// report computes the generic metrics from the measured iterations.
func (r *run) report(setups []float64) *Report {
	rep := &Report{EndToEnd: make(map[string]Value), PerLayer: make(map[string]Value)}
	var walls, mips []float64
	for _, it := range r.iters {
		walls = append(walls, it.wall)
		mips = append(mips, float64(it.instrs)/it.wall/1e6)
	}
	set := func(m map[string]Value, defs []MetricDef, name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		for _, d := range defs {
			if d.Name == name {
				m[name] = Value{v, d.Unit}
				return
			}
		}
		panic("bench: unknown metric " + name)
	}
	set(rep.EndToEnd, EndToEnd, "setup_s", Median(setups))
	set(rep.EndToEnd, EndToEnd, "wall_s", Median(walls))
	set(rep.EndToEnd, EndToEnd, "sim_mips", Median(mips))
	set(rep.EndToEnd, EndToEnd, "peak_rss_mb", peakRSSMB())

	for _, d := range PerLayer {
		set(rep.PerLayer, PerLayer, d.Name, r.counts[d.Name])
	}
	spans := r.tr.Finish()
	perIter := func(name string) []float64 {
		self := selfSeconds(spans, name)
		out := make([]float64, 0, len(r.iters))
		for it := 1; it <= len(r.iters); it++ {
			out = append(out, self[it])
		}
		return out
	}
	for span, metric := range spanMetrics {
		set(rep.PerLayer, PerLayer, metric, Median(perIter(span)))
	}
	// Host time per unit of deterministic work, median over iterations.
	perUnit := func(span, count string, scale float64) float64 {
		var xs []float64
		for i, s := range perIter(span) {
			if n := r.iters[i].counts[count]; n > 0 {
				xs = append(xs, s*scale/n)
			}
		}
		return Median(xs)
	}
	set(rep.PerLayer, PerLayer, "machine.ns_per_instr", perUnit("machine.run", "machine.instrs", 1e9))
	set(rep.PerLayer, PerLayer, "collect.ns_per_instr", perUnit("collect.run", "collect.bench_instrs", 1e9))
	set(rep.PerLayer, PerLayer, "analyzer.ns_per_event", perUnit("analyzer.reduce", "analyzer.events", 1e9))
	rep.Spans = spans

	q1, med, q3 := quartiles(walls)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("wall_s median %.6f q1 %.6f q3 %.6f n %d (spread %.1f%%)", med, q1, q3, len(walls), 100*spread(walls)),
		fmt.Sprintf("sim_mips spread %.1f%%; setup_s over %d set-ups: spread %.1f%%", 100*spread(mips), len(setups), 100*spread(setups)))
	rep.Attempted = r.attempted.Load()
	rep.Failed = min(r.failed.Load(), rep.Attempted)
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep
}

// peakRSSMB returns this process's peak resident set in MB. It reads
// VmHWM, the high-water mark of the process's own address space:
// getrusage's maxrss survives exec, so a process started by a large
// parent would report the parent's peak.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // KiB on Linux
	return float64(ru.Maxrss) / 1024
}

// digest hashes an iteration's rendered output together with its
// deterministic counts, so any drift in either shows.
func digest(rendered []byte, counts map[string]float64) []byte {
	h := sha256.New()
	h.Write(rendered)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if volatile[k] {
			continue
		}
		h.Write([]byte(k))
		binary.Write(h, binary.LittleEndian, counts[k])
	}
	return h.Sum(nil)
}

// volatile are the per-iteration values that legitimately drift: saved
// experiment headers carry the collection time and gob map order, so
// directory sizes differ by a few bytes from run to run.
var volatile = map[string]bool{"experiment.bytes": true}

// deriveSeed expands the run's seed into the seed of its k-th generated
// instance (splitmix64), so instances differ from each other and from
// run to run.
func deriveSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
