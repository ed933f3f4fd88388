package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary, recorded by the
// benchmark around a public function of the profiler. Times are
// nanoseconds since the tracer started.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root span
	Name     string `json:"name"`
	Iter     int    `json:"iter"` // 0 is the warm-up iteration
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Self     int64  `json:"self_ns"` // filled in by Finish
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and its Begin/End cost one branch, so untraced runs
// measure the program, not the recorder.
type tracer struct {
	on       bool
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []Span
}

// newTracer returns a tracer for one workload; on=false disables it.
func newTracer(on bool, workload string) *tracer {
	return &tracer{on: on, workload: workload, t0: time.Now()}
}

// Begin opens a span under parent (-1 for none) and returns its id, or
// -1 when tracing is off.
func (t *tracer) Begin(parent, iter int, name string) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Iter: iter, Workload: t.workload, Start: now, End: -1})
	return id
}

// End closes a span opened by Begin.
func (t *tracer) End(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Finish computes every span's self time — its duration minus the part
// of it that its children cover — and returns the spans. Spans still
// open are closed at their latest child's end.
func (t *tracer) Finish() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			s.End = s.Start
			for _, c := range children[s.ID] {
				if e := t.spans[c].End; e > s.End {
					s.End = e
				}
			}
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			cs := t.spans[c]
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		s.Self = (s.End - s.Start) - covered(ivs)
	}
	return append([]Span(nil), t.spans...)
}

// covered returns the total length of the union of intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	started := false
	for _, iv := range ivs {
		if !started || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
			started = true
			continue
		}
		if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// selfSeconds sums the self time of the spans named name in each
// iteration, keyed by iteration.
func selfSeconds(spans []Span, name string) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range spans {
		if s.Name == name {
			out[s.Iter] += float64(s.Self) / 1e9
		}
	}
	return out
}

// WriteTrace writes spans as a JSON document: {"spans": [...]}.
func WriteTrace(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Spans []Span `json:"spans"`
	}{spans}); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// ReadTrace parses a document written by WriteTrace.
func ReadTrace(r io.Reader) ([]Span, error) {
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	return doc.Spans, nil
}
