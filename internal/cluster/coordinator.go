package cluster

// coordinator.go is the cluster's control plane. The coordinator owns
// a normal profd scheduler + store, but its scheduler executes jobs
// through Run — the remote executor — instead of a local VM pool:
//
//	Acquire a worker slot (least-loaded live node, bounded per node)
//	POST the spec to the worker's /jobs, poll to completion
//	fetch the experiment archive, verify its manifest, admit a replica
//
// A worker that dies mid-job (submit, poll, or fetch failure) is
// marked dead and the job is reassigned to another node; deterministic
// job failures are retried on other nodes up to the assignment budget
// and then fail for real. Admitted replicas record their origin node,
// which the distributed reduce uses to fan per-shard
// partial computation out to the nodes that already hold the data.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
	"dsprof/internal/faultfs"
	"dsprof/internal/profd"
)

// Config tunes the coordinator.
type Config struct {
	// PollInterval is the delay between job-status polls of a worker
	// (default 25ms).
	PollInterval time.Duration
	// AssignRetries is how many distinct node assignments a job gets
	// before failing (default 3).
	AssignRetries int
	// PollFailLimit is how many consecutive poll failures declare the
	// node dead and reassign the job (default 3).
	PollFailLimit int
	// HealthInterval is the delay between health-probe rounds
	// (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
	// MaxNodeFails is how many consecutive failed probes kill a node
	// (default 3).
	MaxNodeFails int
	// PartialFanout bounds concurrent partial fetches during a
	// distributed reduce (default 8).
	PartialFanout int
	// PartialTimeout bounds one partial fetch (default 30s).
	PartialTimeout time.Duration
	// Clock injects a fake clock in tests.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.AssignRetries <= 0 {
		c.AssignRetries = 3
	}
	if c.PollFailLimit <= 0 {
		c.PollFailLimit = 3
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.MaxNodeFails <= 0 {
		c.MaxNodeFails = 3
	}
	if c.PartialFanout <= 0 {
		c.PartialFanout = 8
	}
	if c.PartialTimeout <= 0 {
		c.PartialTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = RealClock{}
	}
	return c
}

// origin records which worker first produced an experiment and what
// the experiment is called in that worker's store — the address the
// distributed reduce sends partial requests to.
type origin struct {
	NodeID string
	ExpID  string
}

// Coordinator fans profd jobs out to worker nodes and reduces report
// queries across them. Its Run is the scheduler's profd.Runner, and
// Mount installs its distributed reduce as the store's reducer.
type Coordinator struct {
	store  *profd.Store
	reg    *Registry
	cfg    Config
	client *http.Client

	originMu sync.Mutex
	origins  map[string]origin // by config hash

	replBytes      atomic.Uint64
	partialsRemote atomic.Uint64
	partialsLocal  atomic.Uint64
	reassigned     atomic.Uint64
	replRejected   atomic.Uint64

	// onPartial, when set, observes every remote partial fetch before
	// it is issued — the test seam for killing a worker mid-reduce.
	onPartialMu sync.Mutex
	onPartial   func(r analyzer.UnitRef, nodeID string)
}

// NewCoordinator builds a coordinator over the store that will hold
// the experiment replicas.
func NewCoordinator(store *profd.Store, cfg Config) *Coordinator {
	return &Coordinator{
		store:   store,
		reg:     NewRegistry(),
		cfg:     cfg.withDefaults(),
		client:  &http.Client{},
		origins: make(map[string]origin),
	}
}

// Registry returns the coordinator's node table.
func (c *Coordinator) Registry() *Registry { return c.reg }

// Mount installs the coordinator's cluster surface on a profd server
// over the coordinator's store: the store's analyzer memo reduces
// through the cluster, /metrics grows the cluster gauges, and
// /cluster/register + /cluster/nodes appear.
func (c *Coordinator) Mount(srv *profd.Server) {
	c.store.SetReducer(c.reduce)
	srv.SetMetricsExtra(c.writeMetrics)
	srv.SetExtraRoutes(c.routes)
}

func (c *Coordinator) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /cluster/register", c.handleRegister)
	mux.HandleFunc("GET /cluster/nodes", c.handleNodes)
}

// Start runs the health loop until ctx ends.
func (c *Coordinator) Start(ctx context.Context) {
	go c.healthLoop(ctx)
}

// healthLoop probes every registered node each interval (with
// per-node exponential backoff for nodes that stay dead) and feeds
// the outcomes to the registry.
func (c *Coordinator) healthLoop(ctx context.Context) {
	for ctx.Err() == nil {
		for _, info := range c.reg.probeTargets() {
			pctx, cancel := context.WithTimeout(ctx, c.cfg.HealthTimeout)
			var stats WorkerStats
			err := getJSON(pctx, c.client, info.URL+"/cluster/stats", &stats)
			cancel()
			if ctx.Err() != nil {
				return
			}
			c.reg.probeResult(info.ID, stats, err, c.cfg.MaxNodeFails)
		}
		c.cfg.Clock.Sleep(ctx, c.cfg.HealthInterval)
	}
}

// --- dispatch (the remote profd.Runner) ---

// Run executes one job on the cluster: assign, remote-run, replicate,
// verify. A node failure reassigns the job to another node; the
// returned result carries only the experiment (no machine), and the
// coordinator's scheduler stores it like any local run.
func (c *Coordinator) Run(ctx context.Context, spec *profd.JobSpec) (*collect.Result, error) {
	tried := make(map[string]bool)
	var lastErr error
	for attempt := 0; attempt < c.cfg.AssignRetries; attempt++ {
		if attempt > 0 {
			c.reassigned.Add(1)
		}
		n, err := c.reg.Acquire(ctx, tried)
		if err != nil {
			return nil, err
		}
		exp, expID, err := c.runOn(ctx, n, spec)
		c.reg.Release(n)
		if err == nil {
			c.setOrigin(spec.ConfigHash(), origin{NodeID: n.ID(), ExpID: expID})
			return &collect.Result{Exp: exp}, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		tried[n.ID()] = true
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: job failed after %d assignments: %w", c.cfg.AssignRetries, lastErr)
}

func (c *Coordinator) setOrigin(hash string, o origin) {
	c.originMu.Lock()
	c.origins[hash] = o
	c.originMu.Unlock()
}

func (c *Coordinator) getOrigin(hash string) (origin, bool) {
	c.originMu.Lock()
	o, ok := c.origins[hash]
	c.originMu.Unlock()
	return o, ok
}

// nodeDown marks the node dead and wraps err as a node failure.
func (c *Coordinator) nodeDown(n *Node, stage string, err error) error {
	c.reg.MarkDead(n.ID(), stage+": "+err.Error())
	return fmt.Errorf("cluster: node %s %s: %w", n.ID(), stage, err)
}

// runOn drives one job on one worker node to completion and returns
// the verified experiment replica plus the worker's experiment ID.
func (c *Coordinator) runOn(ctx context.Context, n *Node, spec *profd.JobSpec) (*experiment.Experiment, string, error) {
	// Submit; a 503 is worker back-pressure, not failure — wait and
	// resubmit while the job's context allows.
	var st profd.JobStatus
	for {
		err := postJSON(ctx, c.client, n.URL()+"/jobs", spec, &st)
		if err == nil {
			break
		}
		if statusCode(err) == http.StatusServiceUnavailable {
			c.cfg.Clock.Sleep(ctx, c.cfg.PollInterval)
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			continue
		}
		if code := statusCode(err); code != 0 && code < 500 {
			// The worker is alive and rejected the spec: not a node fault.
			return nil, "", fmt.Errorf("cluster: node %s rejected job: %w", n.ID(), err)
		}
		return nil, "", c.nodeDown(n, "submitting job", err)
	}

	// Poll to a terminal state; consecutive poll failures mean the
	// node is gone and the job must be reassigned.
	fails := 0
	for !st.State.Terminal() {
		c.cfg.Clock.Sleep(ctx, c.cfg.PollInterval)
		if ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		if err := getJSON(ctx, c.client, n.URL()+"/jobs/"+st.ID, &st); err != nil {
			if ctx.Err() != nil {
				return nil, "", ctx.Err()
			}
			if fails++; fails >= c.cfg.PollFailLimit {
				return nil, "", c.nodeDown(n, "polling job "+st.ID, err)
			}
			continue
		}
		fails = 0
	}
	switch st.State {
	case profd.JobDone:
	case profd.JobCanceled:
		return nil, "", fmt.Errorf("cluster: node %s canceled job %s: %s", n.ID(), st.ID, st.Error)
	default:
		return nil, "", fmt.Errorf("cluster: node %s job %s failed: %s", n.ID(), st.ID, st.Error)
	}

	exp, err := c.fetchExperiment(ctx, n, st.Experiment)
	if err != nil {
		return nil, "", err
	}
	return exp, st.Experiment, nil
}

// fetchExperiment replicates one experiment from its worker:
// streaming archive → checksummed unpack → manifest verification →
// load. The replica is admitted only if every file and shard checksum
// in its manifest verifies; a replica that fails verification counts
// as a node failure (the data cannot be trusted), not a job failure.
func (c *Coordinator) fetchExperiment(ctx context.Context, n *Node, expID string) (*experiment.Experiment, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		n.URL()+"/cluster/experiments/"+expID+"/archive", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, c.nodeDown(n, "fetching archive "+expID, err)
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, c.nodeDown(n, "fetching archive "+expID, err)
	}

	// Stage under the store root with the .tmp suffix the store sweeps
	// on open, so a crash mid-replication never leaks a directory.
	staging, err := os.MkdirTemp(c.store.Root(), "replica-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("cluster: staging replica: %w", err)
	}
	defer os.RemoveAll(staging)

	cr := &countingReader{r: resp.Body}
	if err := experiment.ReadArchive(faultfs.OS, cr, staging); err != nil {
		c.replRejected.Add(1)
		return nil, c.nodeDown(n, "replicating "+expID, err)
	}
	c.replBytes.Add(cr.n)
	if err := experiment.VerifyDir(staging); err != nil {
		c.replRejected.Add(1)
		return nil, c.nodeDown(n, "verifying replica "+expID, err)
	}
	// Load eagerly: the staging directory is removed on return, and
	// the coordinator's store re-persists the experiment on commit.
	exp, err := experiment.Load(staging)
	if err != nil {
		c.replRejected.Add(1)
		return nil, c.nodeDown(n, "loading replica "+expID, err)
	}
	return exp, nil
}

type countingReader struct {
	r io.Reader
	n uint64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += uint64(n)
	return n, err
}

// --- distributed reduce (the store's reducer on a coordinator) ---

// reduce performs one distributed reduction over the ID set: each
// work unit's partial is fetched from the experiment's origin node
// (which computes it over its local replica, memoized) and merged in
// canonical order; units whose origin is dead or failing are
// recomputed locally. The result is byte-identical to the store's
// local reduction, and the store's analyzer memo memoizes it.
func (c *Coordinator) reduce(ids []string) (*analyzer.Analyzer, error) {
	dirs, err := c.store.Dirs(ids)
	if err != nil {
		return nil, err
	}
	hashes := make([]string, len(ids))
	for i, id := range ids {
		rec, ok := c.store.Get(id)
		if !ok {
			return nil, fmt.Errorf("cluster: no experiment %q", id)
		}
		hashes[i] = rec.Hash
	}
	exps := make([]*experiment.Experiment, len(dirs))
	for i, d := range dirs {
		exp, err := experiment.Open(d)
		if err != nil {
			return nil, err
		}
		exps[i] = exp
	}
	a, err := analyzer.NewContext(analyzer.Config{}, exps...)
	if err != nil {
		return nil, err
	}
	refs := analyzer.Units(exps)
	wires := make([][]byte, len(refs))
	errs := make([]error, len(refs))
	sem := make(chan struct{}, c.cfg.PartialFanout)
	var wg sync.WaitGroup
	for i, r := range refs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, r analyzer.UnitRef) {
			defer wg.Done()
			defer func() { <-sem }()
			wires[i], errs[i] = c.partialFor(a, hashes[r.Exp], r)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: unit %v: %w", refs[i], err)
		}
	}
	if err := a.ReduceFromPartials(wires); err != nil {
		return nil, err
	}
	return a, nil
}

// partialFor obtains one unit's serialized partial: from the
// experiment's origin node when it is known and live, locally
// otherwise (including when the remote fetch fails mid-reduce — the
// local replica is always authoritative enough to recompute).
func (c *Coordinator) partialFor(a *analyzer.Analyzer, hash string, r analyzer.UnitRef) ([]byte, error) {
	if o, ok := c.getOrigin(hash); ok && c.reg.Live(o.NodeID) {
		c.onPartialMu.Lock()
		hook := c.onPartial
		c.onPartialMu.Unlock()
		if hook != nil {
			hook(r, o.NodeID)
		}
		if w, err := c.remotePartial(o, r); err == nil {
			c.partialsRemote.Add(1)
			return w, nil
		}
	}
	c.partialsLocal.Add(1)
	return a.ReducePartial(r)
}

// partialRequest asks a worker for one unit's partial over its local
// replica of the experiment (so Exp is the worker's experiment ID and
// the unit's experiment index is implicitly 0).
type partialRequest struct {
	Exp   string `json:"exp"`
	Clock bool   `json:"clock,omitempty"`
	PIC   int    `json:"pic"`
	Shard int    `json:"shard"`
}

// remotePartial fetches one serialized partial from a worker node.
func (c *Coordinator) remotePartial(o origin, r analyzer.UnitRef) ([]byte, error) {
	node, ok := c.nodeURL(o.NodeID)
	if !ok {
		return nil, fmt.Errorf("cluster: node %s not registered", o.NodeID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PartialTimeout)
	defer cancel()
	body, err := jsonBody(partialRequest{Exp: o.ExpID, Clock: r.Clock, PIC: r.PIC, Shard: r.Shard})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/cluster/partial", body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp); err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

// setOnPartial installs the test seam observing remote partial
// fetches.
func (c *Coordinator) setOnPartial(fn func(r analyzer.UnitRef, nodeID string)) {
	c.onPartialMu.Lock()
	c.onPartial = fn
	c.onPartialMu.Unlock()
}

func (c *Coordinator) nodeURL(id string) (string, bool) {
	for _, n := range c.reg.Snapshot() {
		if n.ID == id {
			return n.URL, true
		}
	}
	return "", false
}

// --- HTTP surface ---

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var info NodeInfo
	if err := jsonDecode(r.Body, &info); err != nil {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err))
		return
	}
	if err := c.reg.Register(info); err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	jsonWrite(w, http.StatusOK, map[string]string{"status": "registered", "id": info.ID})
}

func (c *Coordinator) handleNodes(w http.ResponseWriter, r *http.Request) {
	jsonWrite(w, http.StatusOK, c.reg.Snapshot())
}

// writeMetrics appends the cluster gauges to /metrics.
func (c *Coordinator) writeMetrics(w io.Writer) {
	live, dead, inflight := c.reg.Counts()
	fmt.Fprintf(w, "cluster_workers_live %d\n", live)
	fmt.Fprintf(w, "cluster_workers_dead %d\n", dead)
	fmt.Fprintf(w, "cluster_jobs_inflight %d\n", inflight)
	fmt.Fprintf(w, "cluster_jobs_reassigned_total %d\n", c.reassigned.Load())
	fmt.Fprintf(w, "cluster_replication_bytes_total %d\n", c.replBytes.Load())
	fmt.Fprintf(w, "cluster_replicas_rejected_total %d\n", c.replRejected.Load())
	fmt.Fprintf(w, "cluster_partials_remote_total %d\n", c.partialsRemote.Load())
	fmt.Fprintf(w, "cluster_partials_local_total %d\n", c.partialsLocal.Load())
	for _, n := range c.reg.Snapshot() {
		fmt.Fprintf(w, "cluster_node_partial_cache_hit_rate{node=%q} %.4f\n", n.ID, n.Stats.HitRate())
		fmt.Fprintf(w, "cluster_node_inflight{node=%q} %d\n", n.ID, n.InFlight)
	}
}
