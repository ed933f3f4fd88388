package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/core"
	"dsprof/internal/experiment"
	"dsprof/internal/nbody"
	"dsprof/internal/profd"
)

// profdQueries are the report queries the reader cycles through, over
// every A+B pair stored so far.
var profdQueries = []string{
	"total", "functions", "pcs", "objects", "lines",
	"source=force_pass", "callers=force_pass", "members=lnode",
	"effect", "addrspace",
}

// profdSeedPairs is how many A+B experiment pairs set-up stores before
// the first query.
const profdSeedPairs = 2

// pollInterval is the writer's pause between job-status polls.
const pollInterval = 2 * time.Millisecond

type jobSample struct {
	client, queue, run float64 // seconds
}

type querySample struct {
	lat  float64 // seconds
	cold bool
}

// profdServe is the profd-serve workload: one profd node with a single
// VM worker, served over loopback HTTP. A writer connection submits
// n-body jobs one at a time, alternating the A and B counter sets, and
// polls each until done; an iteration is one batch of jobs. Meanwhile a
// reader connection issues report queries back to back, each over one
// stored A+B pair. Both loops are closed.
type profdServe struct {
	dir    string
	store  *profd.Store
	sched  *profd.Scheduler
	hs     *http.Server
	served chan struct{}
	base   string
	writer *http.Client
	reader *http.Client
	pair   int // next pair index to submit

	mu      sync.Mutex
	sets    []string          // "idA,idB" of every stored pair
	queried map[string]bool   // sets the reader has queried
	bodies  map[string][]byte // first body per (query, set)

	batch      atomic.Int64 // batch being measured; -1 stops recording
	stop       chan struct{}
	readerDone chan struct{}
	queries    []querySample // written by the reader until readerDone
	jobs       []jobSample
	winStart   time.Time
	winEnd     time.Time
	before     map[string]float64 // /metrics at the start of the measured window
}

func newClient() *http.Client {
	// One connection per client: the workload uses exactly two.
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func (w *profdServe) setup(r *run) (func(), error) {
	var err error
	w.pair = 0
	w.sets, w.queried, w.bodies = nil, make(map[string]bool), make(map[string][]byte)
	w.queries, w.jobs = nil, nil
	w.dir, err = os.MkdirTemp(r.dir, "profd-*")
	if err != nil {
		return nil, err
	}
	if w.store, err = profd.OpenStore(w.dir); err != nil {
		return nil, err
	}
	w.sched = profd.NewScheduler(w.store, profd.SchedulerConfig{Workers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.sched.Close()
		return nil, err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = profd.NewHTTPServer(ln.Addr().String(), profd.NewServer(w.sched, w.store).Handler())
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.hs.Serve(ln)
	}()
	w.writer, w.reader = newClient(), newClient()
	teardown := w.teardown
	for range profdSeedPairs {
		if err := w.submitPair(r, -1, 0); err != nil {
			teardown()
			return nil, err
		}
	}
	return teardown, nil
}

// teardown stops the reader (if running), the server and the scheduler,
// and removes the store.
func (w *profdServe) teardown() {
	w.stopReader()
	w.hs.Shutdown(context.Background())
	<-w.served
	w.sched.Close()
	w.writer.CloseIdleConnections()
	w.reader.CloseIdleConnections()
	os.RemoveAll(w.dir)
}

func (w *profdServe) stopReader() {
	if w.stop == nil {
		return
	}
	w.batch.Store(-1)
	close(w.stop)
	<-w.readerDone
	w.stop = nil
}

// jobSpec is the n-body job of pair p: A or B counters, same instance,
// at the intervals the n-body study uses for graphs of this size.
func (w *profdServe) jobSpec(r *run, p int, b bool) profd.JobSpec {
	iv := core.NBodyIntervals(r.preset.JobPapers)
	spec := profd.JobSpec{
		Program:       profd.ProgramNBody,
		Trips:         r.preset.JobPapers,
		Seed:          deriveSeed(r.opts.Seed, p),
		MachineConfig: "study",
	}
	if b {
		spec.Counters = fmt.Sprintf("+ecref,%d,+dtlbm,%d", iv.ECRef, iv.DTLBMiss)
	} else {
		spec.Clock = true
		spec.ClockIntervalCycles = iv.ClockTick
		spec.Counters = fmt.Sprintf("+ecstall,%d,+ecrm,%d", iv.ECStall, iv.ECRdMiss)
	}
	return spec
}

// submitPair runs the next pair's A and B jobs, one at a time, and
// publishes the pair to the reader once both are stored.
func (w *profdServe) submitPair(r *run, root, it int) error {
	var ids []string
	for _, b := range []bool{false, true} {
		st, sample, err := w.runJob(r, root, it, w.jobSpec(r, w.pair, b))
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, sample)
		ids = append(ids, st.Experiment)
	}
	w.pair++
	w.mu.Lock()
	w.sets = append(w.sets, strings.Join(ids, ","))
	w.mu.Unlock()
	return nil
}

// runJob submits one job and polls it to a terminal state.
func (w *profdServe) runJob(r *run, root, it int, spec profd.JobSpec) (profd.JobStatus, jobSample, error) {
	var st profd.JobStatus
	body, err := json.Marshal(spec)
	if err != nil {
		return st, jobSample{}, err
	}
	t0 := time.Now()
	if err := r.call(root, it, "profd.submit", func() error {
		return doJSON(w.writer, http.MethodPost, w.base+"/jobs", body, http.StatusAccepted, &st)
	}); err != nil {
		return st, jobSample{}, err
	}
	for !st.State.Terminal() {
		time.Sleep(pollInterval)
		if err := r.call(root, it, "profd.poll", func() error {
			return doJSON(w.writer, http.MethodGet, w.base+"/jobs/"+st.ID, nil, http.StatusOK, &st)
		}); err != nil {
			return st, jobSample{}, err
		}
	}
	sample := jobSample{
		client: time.Since(t0).Seconds(),
		queue:  st.Started.Sub(st.Submitted).Seconds(),
		run:    st.Finished.Sub(st.Started).Seconds(),
	}
	if st.State != profd.JobDone {
		err := fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		r.fail(err)
		return st, sample, err
	}
	return st, sample, nil
}

// doJSON performs one request and decodes a JSON response with the
// expected status code.
func doJSON(c *http.Client, method, url string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// get performs one GET and returns the body of a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// scrape reads the service counters from /metrics.
func (w *profdServe) scrape(r *run) map[string]float64 {
	out := make(map[string]float64)
	var body []byte
	if r.call(-1, 0, "profd.metrics", func() (err error) {
		body, err = get(w.writer, w.base+"/metrics")
		return err
	}) != nil {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

// nextQuery picks the reader's next (query, set): a set no query has
// touched yet goes first, so each new pair's first (cold) query lands
// right after it is stored; otherwise the reader cycles through every
// query on each set in turn.
func (w *profdServe) nextQuery(n int) (query, set string, cold bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.sets {
		if !w.queried[s] {
			w.queried[s] = true
			return profdQueries[n%len(profdQueries)], s, true
		}
	}
	s := w.sets[(n/len(profdQueries))%len(w.sets)]
	return profdQueries[n%len(profdQueries)], s, false
}

// readLoop is the reader: closed-loop report queries until stopped.
func (w *profdServe) readLoop(r *run) {
	defer close(w.readerDone)
	for n := 0; ; n++ {
		select {
		case <-w.stop:
			return
		default:
		}
		query, set, cold := w.nextQuery(n)
		name, arg := analyzer.SplitReport(query)
		url := w.base + "/reports/" + name + "?exp=" + set
		if arg != "" {
			url += "&arg=" + arg
		}
		batch := int(w.batch.Load())
		var body []byte
		t0 := time.Now()
		err := r.call(-1, batch, "profd.query", func() (err error) {
			body, err = get(w.reader, url)
			return err
		})
		lat := time.Since(t0).Seconds()
		if batch >= 1 && w.batch.Load() >= 1 {
			w.queries = append(w.queries, querySample{lat: lat, cold: cold})
		}
		if err == nil {
			r.check(w.checkBody(query+" "+set, body))
		}
	}
}

// checkBody is the service oracle: every body returned for the same
// (report, experiment set) must equal the first one.
func (w *profdServe) checkBody(key string, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	first, ok := w.bodies[key]
	if !ok {
		w.bodies[key] = body
		return nil
	}
	if !bytes.Equal(first, body) {
		return fmt.Errorf("profd: %s: body differs from the first one returned", key)
	}
	return nil
}

func (w *profdServe) units() int { return 1 }

func (w *profdServe) iterate(r *run, it, _, root int) (iterRec, error) {
	var rec iterRec
	if w.stop == nil {
		w.stop, w.readerDone = make(chan struct{}), make(chan struct{})
		go w.readLoop(r)
	}
	if it == 1 {
		w.before = w.scrape(r)
		w.winStart = time.Now()
	}
	w.batch.Store(int64(it))
	first := w.pair
	t0 := time.Now()
	for range r.preset.BatchJobs / 2 {
		if err := w.submitPair(r, root, it); err != nil {
			return rec, nil
		}
	}
	// The drain time excludes the oracle checks below.
	rec.wall = time.Since(t0).Seconds()
	w.mu.Lock()
	sets := slices.Clone(w.sets[len(w.sets)-(w.pair-first):])
	w.mu.Unlock()
	for i, set := range sets {
		want := nbody.Simulate(nbody.Generate(nbody.DefaultGenParams(r.preset.JobPapers, deriveSeed(r.opts.Seed, first+i))))
		for _, id := range strings.Split(set, ",") {
			meta, err := w.meta(id)
			if err != nil {
				r.fail(err)
				continue
			}
			rec.instrs += meta.Stats.Instrs
			r.check(checkNBody(meta.Output, want))
		}
	}
	w.winEnd = time.Now()
	return rec, nil
}

// meta reads a stored experiment's header from the store's directory.
func (w *profdServe) meta(id string) (*experiment.Meta, error) {
	er, ok := w.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("profd: experiment %s not in the store", id)
	}
	return experiment.ReadMeta(filepath.Join(w.store.Root(), er.Dir))
}

func (w *profdServe) finish(r *run, rep *Report) {
	w.batch.Store(-1)
	w.winEnd = time.Now()
	after := w.scrape(r)
	w.stopReader()
	var jobs, queue, runs, lats, cold, warm []float64
	// Set-up's seed jobs and the warm-up batch are not measured.
	for _, j := range w.jobs[min(len(w.jobs), 2*profdSeedPairs+r.preset.BatchJobs):] {
		jobs, queue, runs = append(jobs, j.client), append(queue, j.queue), append(runs, j.run)
	}
	for _, q := range w.queries {
		lats = append(lats, q.lat*1e3)
		if q.cold {
			cold = append(cold, q.lat*1e3)
		} else {
			warm = append(warm, q.lat*1e3)
		}
	}
	window := w.winEnd.Sub(w.winStart).Seconds()
	p99 := 99.0
	if p, ok := tailPercentile(len(lats)); !ok || p < 99 {
		p99 = 100 // too few samples for a p99: report the maximum
	}
	ratio := func(hits, misses string) (float64, string) {
		h, m := after[hits]-w.before[hits], after[misses]-w.before[misses]
		if h+m == 0 {
			return 0, "0/0"
		}
		return h / (h + m), fmt.Sprintf("%.0f/%.0f", h, h+m)
	}
	aRatio, aBase := ratio("profd_analyzer_cache_hits", "profd_analyzer_cache_misses")
	sRatio, sBase := ratio("profd_shard_cache_hits", "profd_shard_cache_misses")
	qps := 0.0
	if window > 0 {
		qps = float64(len(lats)) / window
	}
	for name, v := range map[string]float64{
		"profd.job_p50_s":          Median(jobs),
		"profd.job_queue_s":        Median(queue),
		"profd.job_run_s":          Median(runs),
		"profd.query_p50_ms":       Median(lats),
		"profd.query_p99_ms":       percentile(lats, p99),
		"profd.query_qps":          qps,
		"profd.query_cold_ms":      Median(cold),
		"profd.query_warm_ms":      Median(warm),
		"profd.analyzer_hit_ratio": aRatio,
		"profd.shard_hit_ratio":    sRatio,
	} {
		rep.PerLayer[name] = Value{v, rep.PerLayer[name].Unit}
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("profd: %d jobs measured (job p50 %.4f s), %d queries in %.2f s (%d cold, %d warm), p99 taken at percentile %g",
			len(jobs), Median(jobs), len(lats), window, len(cold), len(warm), p99),
		fmt.Sprintf("profd: analyzer memo hits %s, shard cache hits %s over the measured window", aBase, sBase))
}
