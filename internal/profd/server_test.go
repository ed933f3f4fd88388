package profd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/experiment"
)

func newTestServer(t *testing.T) (*httptest.Server, *Store, *Scheduler) {
	t.Helper()
	store, sched := newTestService(t, 4)
	ts := httptest.NewServer(NewServer(sched, store).Handler())
	t.Cleanup(ts.Close)
	return ts, store, sched
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) JobStatus {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func waitJobDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if st.State.Terminal() {
			if st.State != JobDone {
				t.Fatalf("job %s finished %v: %s", id, st.State, st.Error)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %v", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricValue extracts one counter from the /metrics text body.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServerEndToEnd drives the full paper workflow over HTTP: submit
// the A/B pair, wait, fetch the merged objects report, and check it is
// byte-identical to what erprint renders over the same stored
// experiment directories; then verify the analyzer cache serves the
// repeat query.
func TestServerEndToEnd(t *testing.T) {
	ts, store, _ := newTestServer(t)

	const n = 64
	ja := postJob(t, ts, specA(n))
	jb := postJob(t, ts, specB(n))
	if ja.State != JobQueued && ja.State != JobRunning {
		t.Fatalf("accepted job in state %v", ja.State)
	}
	sa := waitJobDone(t, ts, ja.ID)
	sb := waitJobDone(t, ts, jb.ID)

	// The report endpoint.
	reportURL := fmt.Sprintf("%s/reports/objects?exp=%s,%s", ts.URL, sa.Experiment, sb.Experiment)
	code, got := getBody(t, reportURL)
	if code != http.StatusOK {
		t.Fatalf("GET objects report = %d: %s", code, got)
	}

	// The erprint path over the same directories: load the stored
	// experiment dirs and render through the shared dispatcher.
	dirs, err := store.Dirs([]string{sa.Experiment, sb.Experiment})
	if err != nil {
		t.Fatal(err)
	}
	var exps []*experiment.Experiment
	for _, d := range dirs {
		e, err := experiment.Load(d)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, e)
	}
	a, err := analyzer.New(exps...)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := a.Render(&want, "objects", analyzer.RenderOpts{}); err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Errorf("HTTP objects report differs from erprint rendering\n--- http ---\n%s\n--- erprint ---\n%s",
			got, want.String())
	}

	// Repeat query must be served from the analyzer memo.
	_, metrics := getBody(t, ts.URL+"/metrics")
	misses0 := metricValue(t, metrics, "profd_analyzer_cache_misses")
	hits0 := metricValue(t, metrics, "profd_analyzer_cache_hits")
	if code, _ := getBody(t, reportURL); code != http.StatusOK {
		t.Fatalf("repeat report query = %d", code)
	}
	_, metrics = getBody(t, ts.URL+"/metrics")
	if h := metricValue(t, metrics, "profd_analyzer_cache_hits"); h != hits0+1 {
		t.Errorf("cache hits after repeat query = %d, want %d", h, hits0+1)
	}
	if m := metricValue(t, metrics, "profd_analyzer_cache_misses"); m != misses0 {
		t.Errorf("cache misses grew on repeat query: %d -> %d", misses0, m)
	}
	if d := metricValue(t, metrics, "profd_jobs_done"); d != 2 {
		t.Errorf("profd_jobs_done = %d, want 2", d)
	}

	// JSON rendering and sort/n parameters.
	var objJSON struct {
		Objects []analyzer.NamedRowJSON `json:"objects"`
	}
	if code := getJSON(t, reportURL+"&format=json", &objJSON); code != http.StatusOK {
		t.Fatalf("json objects report = %d", code)
	}
	if len(objJSON.Objects) == 0 {
		t.Fatal("json objects report is empty")
	}
	if code, _ := getBody(t, reportURL+"&sort=ecstall&n=3"); code != http.StatusOK {
		t.Errorf("sorted report = %d, want 200", code)
	}

	// Experiments listing.
	var recs []*ExpRecord
	if code := getJSON(t, ts.URL+"/experiments", &recs); code != http.StatusOK || len(recs) != 2 {
		t.Errorf("GET /experiments = %d with %d records, want 200 with 2", code, len(recs))
	}
}

func TestServerErrors(t *testing.T) {
	ts, _, _ := newTestServer(t)

	// Unknown report name: 404 listing the valid reports.
	code, body := getBody(t, ts.URL+"/reports/bogus?exp=exp-1")
	if code != http.StatusNotFound || !strings.Contains(body, "objects") {
		t.Errorf("unknown report = %d (%q), want 404 listing reports", code, body)
	}
	// Missing exp selection.
	if code, _ := getBody(t, ts.URL+"/reports/objects"); code != http.StatusBadRequest {
		t.Errorf("report without exp = %d, want 400", code)
	}
	// Unknown experiment ID.
	if code, _ := getBody(t, ts.URL+"/reports/objects?exp=exp-42"); code != http.StatusNotFound {
		t.Errorf("report over missing experiment = %d, want 404", code)
	}
	// Bad sort event.
	if code, _ := getBody(t, ts.URL+"/reports/objects?exp=exp-1&sort=zorp"); code != http.StatusBadRequest {
		t.Errorf("bad sort = %d, want 400", code)
	}
	// Invalid job spec.
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"program":"mcf"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unprofiled job spec = %d, want 400", resp.StatusCode)
	}
	// Unknown JSON fields, including the retired engine selector.
	for _, body := range []string{
		`{"program":"mcf","clock":true,"frobnicate":1}`,
		`{"program":"mcf","clock":true,"backend":"fast"}`,
	} {
		resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown spec field in %s = %d, want 400", body, resp.StatusCode)
		}
	}
	// Unknown job.
	if code := getJSON(t, ts.URL+"/jobs/job-42", nil); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	// Health.
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestServerCancel(t *testing.T) {
	ts, store, _ := newTestServer(t)
	st := postJob(t, ts, spinSpec())

	resp, err := http.Post(ts.URL+"/jobs/"+st.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var js JobStatus
		getJSON(t, ts.URL+"/jobs/"+st.ID, &js)
		if js.State.Terminal() {
			if js.State != JobCanceled {
				t.Fatalf("canceled job finished %v", js.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancellation never landed")
		}
		time.Sleep(time.Millisecond)
	}
	if len(store.List()) != 0 {
		t.Error("canceled job left an experiment in the store")
	}
	// Cancel of unknown job: 404.
	resp, err = http.Post(ts.URL+"/jobs/job-99/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job = %d, want 404", resp.StatusCode)
	}
}
