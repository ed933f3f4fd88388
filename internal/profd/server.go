package profd

// server.go is the HTTP surface of the profiling service (stdlib
// net/http only):
//
//	POST /jobs                submit a profiling job (JSON JobSpec)
//	GET  /jobs                list jobs
//	GET  /jobs/{id}           one job's status
//	POST /jobs/{id}/cancel    cancel a queued or running job
//	POST /advise              run the closed data-layout advisor loop
//	GET  /advise              list advise jobs
//	GET  /advise/{id}         one advise job's status
//	GET  /advise/{id}/report  the finished loop's text report
//	GET  /experiments         list stored experiments
//	GET  /reports/{name}      a named report over ?exp=id,id,...
//	GET  /metrics             service counters (Prometheus text format)
//	GET  /healthz             liveness
//
// Report renderings dispatch through analyzer.Render — the exact code
// path cmd/erprint uses — so the text bodies are byte-identical to
// erprint's output over the same experiment directories. ?format=json
// selects the JSON rendering where one exists.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dsprof/internal/analyzer"
	"dsprof/internal/hwc"
)

// Server serves the profiling service API.
type Server struct {
	sched   *Scheduler
	store   *Store
	adviser *Adviser
	// extraMetrics, when set, appends additional lines to /metrics —
	// the cluster roles install their gauges here.
	extraMetrics func(io.Writer)
	// extraRoutes, when set, registers additional handlers on the mux —
	// the cluster roles mount /cluster/... endpoints here.
	extraRoutes func(*http.ServeMux)
}

// NewServer wires the API over a scheduler and its store.
func NewServer(sched *Scheduler, store *Store) *Server {
	return &Server{sched: sched, store: store, adviser: NewAdviser(sched, store)}
}

// SetMetricsExtra installs a hook that appends lines to /metrics.
func (s *Server) SetMetricsExtra(fn func(io.Writer)) { s.extraMetrics = fn }

// SetExtraRoutes installs a hook that mounts additional routes on the
// handler returned by Handler.
func (s *Server) SetExtraRoutes(fn func(*http.ServeMux)) { s.extraRoutes = fn }

// NewHTTPServer wraps a handler in an http.Server hardened for
// multi-node use: header-read and write deadlines so a slow or stalled
// peer cannot pin a handler goroutine forever, and an idle timeout so
// abandoned keep-alive connections are reaped. The write timeout is
// generous because report renderings over large experiment sets are
// legitimately slow.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /advise", s.handleAdviseSubmit)
	mux.HandleFunc("GET /advise", s.handleAdviseList)
	mux.HandleFunc("GET /advise/{id}", s.handleAdvise)
	mux.HandleFunc("GET /advise/{id}/report", s.handleAdviseReport)
	mux.HandleFunc("GET /experiments", s.handleExperiments)
	mux.HandleFunc("GET /reports/{name}", s.handleReport)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if s.extraRoutes != nil {
		s.extraRoutes(mux)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	j, err := s.sched.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			// Back-pressure, not rejection: tell the client when to come
			// back instead of letting it hot-loop on resubmission.
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	j, _ := s.sched.Get(id)
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleAdviseSubmit(w http.ResponseWriter, r *http.Request) {
	var spec AdviseSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding advise spec: %w", err))
		return
	}
	j, err := s.adviser.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) handleAdviseList(w http.ResponseWriter, r *http.Request) {
	jobs := s.adviser.Jobs()
	out := make([]AdviseStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	j, ok := s.adviser.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no advise job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleAdviseReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.adviser.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no advise job %q", r.PathValue("id")))
		return
	}
	st := j.Status()
	if st.State == JobFailed {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("advise job %s failed: %s", st.ID, st.Error))
		return
	}
	report, ok := j.Report()
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("advise job %s is %s; report not ready", st.ID, st.State))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(report)
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

// expIDs parses the ?exp= selection: repeated params and/or
// comma-separated lists.
func expIDs(r *http.Request) []string {
	var ids []string
	for _, v := range r.URL.Query()["exp"] {
		for _, id := range strings.Split(v, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !analyzer.ValidReport(name) {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("unknown report %q; valid reports:\n%s", name, analyzer.ReportUsage()))
		return
	}
	ids := expIDs(r)
	if len(ids) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("select experiments with ?exp=id,id,..."))
		return
	}
	q := r.URL.Query()

	opts := analyzer.RenderOpts{}
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad n %q", v))
			return
		}
		opts.TopN = n
	}
	if v := q.Get("sort"); v != "" {
		sortBy := analyzer.ByUserCPU
		if v != "cpu" {
			ev, err := hwc.ParseEvent(v)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			sortBy = analyzer.ByEvent(ev)
		}
		opts.Sort = &sortBy
	}

	a, err := s.store.Analyzer(ids)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "no experiment") {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}

	report := name
	if arg := q.Get("arg"); arg != "" {
		report = name + "=" + arg
	}

	if q.Get("format") == "json" {
		v, err := a.RenderJSON(report, opts)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, v)
		return
	}
	// Render into a buffer first so argument errors (e.g. members of an
	// unknown struct) still produce a clean 400 instead of a half-sent
	// 200; the buffered bytes reach the client untouched.
	var buf bytes.Buffer
	if err := a.Render(&buf, report, opts); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(buf.Bytes())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.sched.Metrics()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "profd_workers %d\n", m.Workers)
	fmt.Fprintf(w, "profd_workers_busy %d\n", m.Busy)
	fmt.Fprintf(w, "profd_jobs_queued %d\n", m.Queued)
	fmt.Fprintf(w, "profd_jobs_running %d\n", m.Running)
	fmt.Fprintf(w, "profd_jobs_done %d\n", m.Done)
	fmt.Fprintf(w, "profd_jobs_failed %d\n", m.Failed)
	fmt.Fprintf(w, "profd_jobs_canceled %d\n", m.Canceled)
	fmt.Fprintf(w, "profd_jobs_retried %d\n", m.Retried)
	fmt.Fprintf(w, "profd_simulated_cycles_total %d\n", m.SimulatedCycles)
	fmt.Fprintf(w, "profd_analyzer_cache_hits %d\n", m.CacheHits)
	fmt.Fprintf(w, "profd_analyzer_cache_misses %d\n", m.CacheMisses)
	fmt.Fprintf(w, "profd_experiments %d\n", m.Experiments)
	sh, sm := s.store.ShardCacheStats()
	fmt.Fprintf(w, "profd_shard_cache_hits %d\n", sh)
	fmt.Fprintf(w, "profd_shard_cache_misses %d\n", sm)
	ar, ad, af := s.adviser.Counters()
	fmt.Fprintf(w, "profd_advise_jobs_running %d\n", ar)
	fmt.Fprintf(w, "profd_advise_jobs_done %d\n", ad)
	fmt.Fprintf(w, "profd_advise_jobs_failed %d\n", af)
	if s.extraMetrics != nil {
		s.extraMetrics(w)
	}
}
