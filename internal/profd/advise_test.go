package profd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/asm"
	"dsprof/internal/collect"
	"dsprof/internal/experiment"
)

// The advise endpoint: full closed loop over the service, and the
// byte-identity of the advice report across the HTTP report API and the
// advise job's stored report.

func TestAdvisorSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec AdviseSpec
		ok   bool
	}{
		{"empty (all defaults)", AdviseSpec{}, true},
		{"full", AdviseSpec{Trips: 120, Layout: "optimized", MachineConfig: "scaled", Window: 8, MinShare: 0.1, MaxRecs: 5}, true},
		{"bad layout", AdviseSpec{Layout: "upside-down"}, false},
		{"bad machine", AdviseSpec{MachineConfig: "warp"}, false},
		{"negative trips", AdviseSpec{Trips: -1}, false},
		{"minShare above 1", AdviseSpec{MinShare: 1.5}, false},
		{"negative timeout", AdviseSpec{TimeoutSec: -1}, false},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestAdvisorHTTPFlow(t *testing.T) {
	store, sched := newTestService(t, 2)
	srv := NewServer(sched, store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Submit the loop at smoke scale.
	body, _ := json.Marshal(AdviseSpec{Trips: 120, MachineConfig: "scaled", MaxRecs: 10})
	resp, err := http.Post(ts.URL+"/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st AdviseStatus
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /advise = %d: %s", resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// A report request before completion is a 409, not a hang.
	j, ok := srv.adviser.Get(st.ID)
	if !ok {
		t.Fatalf("submitted job %s not in table", st.ID)
	}
	if _, ready := j.Report(); !ready {
		if code := getJSON(t, ts.URL+"/advise/"+st.ID+"/report", nil); code != http.StatusConflict && code != http.StatusOK {
			t.Errorf("early report fetch = %d, want 409 (or 200 if already done)", code)
		}
	}

	select {
	case <-j.Done():
	case <-time.After(180 * time.Second):
		t.Fatal("advise job did not finish")
	}

	var final AdviseStatus
	if code := getJSON(t, ts.URL+"/advise/"+st.ID, &final); code != http.StatusOK {
		t.Fatalf("GET /advise/%s = %d", st.ID, code)
	}
	if final.State != JobDone {
		t.Fatalf("advise job %s finished %v: %s", final.ID, final.State, final.Error)
	}
	if len(final.BaselineExps) != 2 {
		t.Fatalf("baseline experiments = %v, want 2", final.BaselineExps)
	}
	if final.Advice == nil || len(final.Advice.Recs) == 0 {
		t.Fatal("no recommendations in final status")
	}
	// Every validation result lists one experiment, then the combined
	// run. Results that share a re-run (split:node and reorder:node)
	// share its program and its one stored experiment, labelled with the
	// first such result: at this spec the five results take three runs,
	// so four distinct experiments hold the validation data.
	if len(final.Results) == 0 || len(final.ValidationExps) != len(final.Results)+1 {
		t.Fatalf("validation experiments %v, want one per result (%d) plus combined", final.ValidationExps, len(final.Results))
	}
	runs := make(map[*asm.Program]bool)
	for _, r := range j.Status().Results {
		runs[r.Exp.Prog] = true
	}
	firstLabel := make(map[string]string)
	for i, id := range final.ValidationExps {
		want := "combined"
		if i < len(final.Results) {
			want = final.Results[i].Rec.Kind + ":" + final.Results[i].Rec.Struct
		}
		if _, seen := firstLabel[id]; !seen {
			firstLabel[id] = want
		}
	}
	if len(firstLabel) != len(runs)+1 || len(firstLabel) != 4 {
		t.Errorf("%d distinct validation experiments in %v, want %d runs plus combined (4)", len(firstLabel), final.ValidationExps, len(runs))
	}
	events := make(map[string]string)
	for id, want := range firstLabel {
		rec, ok := store.Get(id)
		if !ok {
			t.Errorf("validation experiment %s missing from store", id)
			continue
		}
		if rec.Label != want {
			t.Errorf("validation experiment %s labelled %q, want %q", id, rec.Label, want)
		}
		dir := filepath.Join(store.Root(), rec.Dir)
		m, err := experiment.ReadMeta(dir)
		if err != nil {
			t.Error(err)
		} else if m.Label != want {
			t.Errorf("validation experiment %s saved with label %q, want %q", id, m.Label, want)
		}
		ev, err := os.ReadFile(filepath.Join(dir, "hwc0.ev2"))
		if err != nil {
			t.Error(err)
			continue
		}
		if other, dup := events[string(ev)]; dup {
			t.Errorf("validation experiments %s and %s store the same hwc0.ev2", other, id)
		}
		events[string(ev)] = id
	}

	// The job's report must start with the exact bytes of the "advice"
	// report over the baseline experiments — the same bytes the
	// /reports/advice endpoint and erprint serve.
	resp, err = http.Get(ts.URL + "/advise/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report = %d: %s", resp.StatusCode, report)
	}

	a, err := store.Analyzer(final.BaselineExps)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := a.Render(&direct, "advice", analyzer.RenderOpts{TopN: 10}); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(report, direct.Bytes()) {
		t.Errorf("advise report does not embed the registry advice rendering:\n%s", report)
	}

	resp, err = http.Get(ts.URL + "/reports/advice?exp=" + strings.Join(final.BaselineExps, ",") + "&n=10")
	if err != nil {
		t.Fatal(err)
	}
	viaHTTP, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /reports/advice = %d: %s", resp.StatusCode, viaHTTP)
	}
	if !bytes.Equal(viaHTTP, direct.Bytes()) {
		t.Errorf("/reports/advice differs from direct rendering:\n%s\n--- vs ---\n%s", viaHTTP, direct.Bytes())
	}

	// The validation section follows, with verdicts and the comparison.
	tail := string(report[len(direct.Bytes()):])
	for _, want := range []string{"Validation (", "accepted", "<Total>"} {
		if !strings.Contains(tail, want) {
			t.Errorf("report tail missing %q:\n%s", want, tail)
		}
	}

	// Listing and metrics reflect the finished job.
	var list []AdviseStatus
	if code := getJSON(t, ts.URL+"/advise", &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("GET /advise = %d with %d jobs, want 200 with 1", code, len(list))
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), "profd_advise_jobs_done 1") {
		t.Errorf("metrics missing advise counters:\n%s", metrics)
	}
}

func TestAdvisorHTTPErrors(t *testing.T) {
	store, sched := newTestService(t, 1)
	ts := httptest.NewServer(NewServer(sched, store).Handler())
	defer ts.Close()

	// Invalid spec → 400.
	resp, err := http.Post(ts.URL+"/advise", "application/json", strings.NewReader(`{"layout":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec = %d, want 400", resp.StatusCode)
	}
	// Unknown field → 400 (DisallowUnknownFields).
	resp, err = http.Post(ts.URL+"/advise", "application/json", strings.NewReader(`{"warp":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", resp.StatusCode)
	}
	// Unknown job → 404 on status and report.
	if code := getJSON(t, ts.URL+"/advise/advise-99", nil); code != http.StatusNotFound {
		t.Errorf("unknown advise job = %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/advise/advise-99/report", nil); code != http.StatusNotFound {
		t.Errorf("unknown advise report = %d, want 404", code)
	}
}

// TestAdviseBaselineStoreKeys pins the store keys of the JobSpecs the
// advise loop builds for its baseline A and B runs: TestConfigHash pins
// the hash function, this pins what runLoop feeds it. Never regenerate
// these literals to make the test pass.
func TestAdviseBaselineStoreKeys(t *testing.T) {
	for _, tc := range []struct {
		layout string
		want   [2]string
	}{
		{"", [2]string{"783a8fb2f82d6251", "0961d517875bf3a0"}},
		{"optimized", [2]string{"f565a0ab92c73ae8", "6052e07ab22df2ad"}},
	} {
		store, sched := newTestService(t, 2)
		j, err := NewAdviser(sched, store).Submit(AdviseSpec{Trips: 60, Layout: tc.layout, MachineConfig: "scaled", MaxRecs: 3})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-j.Done():
		case <-time.After(180 * time.Second):
			t.Fatalf("layout %q: advise job did not finish", tc.layout)
		}
		st := j.Status()
		if st.State != JobDone || len(st.BaselineExps) != 2 {
			t.Fatalf("layout %q: advise job %v with baseline %v: %s", tc.layout, st.State, st.BaselineExps, st.Error)
		}
		for i, id := range st.BaselineExps {
			rec, ok := store.Get(id)
			if !ok {
				t.Fatalf("layout %q: baseline %s missing from the store", tc.layout, id)
			}
			if rec.Hash != tc.want[i] {
				t.Errorf("layout %q: baseline %c hash %s, want %s", tc.layout, "AB"[i], rec.Hash, tc.want[i])
			}
		}
	}
}

// TestAdviseRefusesFailedBaseline: a baseline whose MCF run reports a
// failure gets no advice and no validation runs, as in core.Advise. The
// runner collects for real and then marks experiment A's status word
// failed, so only the output check can refuse it.
func TestAdviseRefusesFailedBaseline(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(store, SchedulerConfig{
		Workers: 2,
		Runner: func(ctx context.Context, spec *JobSpec) (*collect.Result, error) {
			res, err := runTinyJob(ctx, spec)
			if err == nil && spec.Clock { // experiment A
				res.Exp.Meta.Output[0] = 1 // MCF status: not optimal
			}
			return res, err
		},
	})
	t.Cleanup(sched.Close)
	j, err := NewAdviser(sched, store).Submit(AdviseSpec{Trips: 60, MachineConfig: "scaled", MaxRecs: 3})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(180 * time.Second):
		t.Fatal("advise job did not finish")
	}
	st := j.Status()
	if want := "baseline: mcf run failed with status 1"; st.State != JobFailed || !strings.Contains(st.Error, want) {
		t.Fatalf("advise job %v (%q), want failed with %q", st.State, st.Error, want)
	}
	if st.Advice != nil || len(st.ValidationExps) != 0 {
		t.Errorf("failed baseline still got advice %v and validation runs %v", st.Advice != nil, st.ValidationExps)
	}
	if n := store.Count(); n != 2 {
		t.Errorf("store holds %d experiments, want the 2 baseline runs", n)
	}
}
