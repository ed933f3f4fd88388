package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// envInt reads a DSPROF_CLUSTER_* sizing override.
func envInt(t *testing.T, key string, def int) int {
	s := os.Getenv(key)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		t.Fatalf("%s=%q: want a positive integer", key, s)
	}
	return v
}

// TestClusterSoak runs the full load harness — a 3-node cluster, a job
// batch, and at least a thousand concurrent report queries — and
// writes the outcome as JSON to the path in DSPROF_CLUSTER_BENCH (the
// CI cluster-soak job points it at BENCH_cluster.json and uploads it),
// or to a temporary directory when unset, so a plain test run leaves
// the tree untouched. Size with DSPROF_CLUSTER_QUERIES,
// DSPROF_CLUSTER_JOBS, DSPROF_CLUSTER_TRIPS, DSPROF_CLUSTER_CONC.
func TestClusterSoak(t *testing.T) {
	p := Params{
		Workers:     3,
		Jobs:        envInt(t, "DSPROF_CLUSTER_JOBS", 4),
		Trips:       envInt(t, "DSPROF_CLUSTER_TRIPS", 60),
		Queries:     envInt(t, "DSPROF_CLUSTER_QUERIES", 1200),
		Concurrency: envInt(t, "DSPROF_CLUSTER_CONC", 32),
	}
	if p.Queries < 1000 {
		t.Fatalf("queries sized to %d; the soak contract requires at least 1000", p.Queries)
	}
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}

	if res.JobsDone != p.Jobs {
		t.Errorf("jobs done = %d, want %d", res.JobsDone, p.Jobs)
	}
	if res.JobsFailed != 0 {
		t.Errorf("jobs failed = %d, want 0", res.JobsFailed)
	}
	if res.JobsDuplicated != 0 {
		t.Errorf("jobs duplicated = %d, want 0", res.JobsDuplicated)
	}
	if res.QueryFailures != 0 {
		t.Errorf("query failures = %d, want 0", res.QueryFailures)
	}
	if res.QueryMismatches != 0 {
		t.Errorf("query byte mismatches = %d, want 0", res.QueryMismatches)
	}
	if res.Failed() {
		t.Error("Result.Failed() = true on a clean run")
	}
	// The cluster must actually have been exercised: all jobs ran on
	// workers (remote partials fetched), and no worker died.
	if res.Metrics["cluster_workers_live"] != 3 {
		t.Errorf("cluster_workers_live = %v, want 3", res.Metrics["cluster_workers_live"])
	}
	if res.Metrics["cluster_workers_dead"] != 0 {
		t.Errorf("cluster_workers_dead = %v, want 0", res.Metrics["cluster_workers_dead"])
	}
	if res.Metrics["cluster_partials_remote_total"] == 0 {
		t.Error("cluster_partials_remote_total = 0: reduction never went distributed")
	}
	if res.Metrics["cluster_replication_bytes_total"] == 0 {
		t.Error("cluster_replication_bytes_total = 0: no experiment was replicated")
	}

	if t.Failed() {
		return
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := os.Getenv("DSPROF_CLUSTER_BENCH")
	if path == "" {
		path = filepath.Join(t.TempDir(), "BENCH_cluster.json")
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d jobs, %d queries @ %.0f qps (p50 %.2fms p99 %.2fms)",
		res.JobsDone, res.Queries, res.QPS, res.P50MS, res.P99MS)
}
