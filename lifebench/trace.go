// Tracing for the traced run: spans kept in memory and written out at
// the end. Spans are recorded only in the benchmark's own files, around
// calls into each layer's public surface — the server's http.Handler,
// the fleet workers' http.Client transport, the load client — and around
// direct replays of layers the server only calls internally.

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Spans of one job share its ID as Trace; a
// server handler span's Parent is the client span that sent the
// request.
type span struct {
	Trace  string `json:"trace,omitempty"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Status int    `json:"status,omitempty"`
	// Rounds is the work an experiments.run replay covered; Bytes is
	// the size a checkpoint.encode replay produced.
	Rounds int64 `json:"rounds,omitempty"`
	Bytes  int64 `json:"bytes,omitempty"`
}

// dur is the span's length in nanoseconds.
func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans in memory.
type tracer struct {
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// newTracer starts a tracer whose clock reads zero now.
func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer clock in nanoseconds.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at converts a wall-clock instant to the tracer clock.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.base)) }

// id allocates a span ID.
func (t *tracer) id() uint64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a span and returns its error.
func (t *tracer) timed(name, trace string, fn func() error) error {
	start := t.now()
	err := fn()
	t.add(span{Trace: trace, Name: name, Start: start, End: t.now()})
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines, after one header line carrying
// the environment record.
func (t *tracer) write(path string, env envRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		_ = f.Close()
		return err
	}
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// routes names the endpoints the benchmark calls by their ServeMux
// pattern; any other is traced as "unrouted".
var routes = map[string]string{
	"POST /jobs":                   "post_jobs",
	"GET /jobs/{id}":               "get_status",
	"GET /jobs/{id}/result":        "get_result",
	"GET /metricz":                 "metricz",
	"GET /healthz":                 "healthz",
	"POST /v1/lease":               "lease",
	"POST /v1/jobs/{id}/renew":     "renew",
	"PUT /v1/jobs/{id}/checkpoint": "upload",
	"POST /v1/jobs/{id}/complete":  "complete",
}

// statusWriter remembers the response status for the handler span.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush passes streaming flushes through.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// handler wraps the server's http.Handler with a span per request,
// named http.<route> after the ServeMux pattern that served it.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := t.now()
		next.ServeHTTP(sw, r)
		end := t.now()
		name, ok := routes[r.Pattern]
		if !ok {
			name = "unrouted"
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		t.add(span{Trace: r.Header.Get(hdrTrace), Parent: parent, Name: "http." + name,
			Start: start, End: end, Status: sw.code})
	})
}

// tracedTransport wraps a fleet worker's transport with a span per
// request, named worker.<verb>. The job ID comes from the URL, or for a
// lease from the grant in the reply, which is read in full so the span
// covers the transfer.
type tracedTransport struct {
	tr   *tracer
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, job := workerRoute(req.URL.Path)
	id := tt.tr.id()
	out := req.Clone(req.Context())
	out.Header.Set(hdrParent, strconv.FormatUint(id, 10))
	out.Header.Set(hdrTrace, job)
	start := tt.tr.now()
	resp, err := tt.base.RoundTrip(out)
	if err != nil {
		tt.tr.add(span{Trace: job, ID: id, Name: name, Start: start, End: tt.tr.now()})
		return nil, err
	}
	body, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // fully read; a close error changes nothing
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := tt.tr.now()
	if name == "worker.lease" && resp.StatusCode == http.StatusOK {
		var g struct {
			Job string `json:"job"`
		}
		if json.Unmarshal(body, &g) == nil {
			job = g.Job
		}
	}
	tt.tr.add(span{Trace: job, ID: id, Name: name, Start: start, End: end, Status: resp.StatusCode})
	return resp, rerr
}

// workerRoute names a fleet request and extracts its job ID.
func workerRoute(path string) (name, job string) {
	if path == "/v1/lease" {
		return "worker.lease", ""
	}
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok {
		id, verb, _ := strings.Cut(rest, "/")
		if verb == "checkpoint" {
			verb = "upload"
		}
		return "worker." + verb, id
	}
	return "worker." + strings.Trim(path, "/"), ""
}

// layerSelf is one layer's share of the traced time.
type layerSelf struct {
	layer string
	spans int
	self  int64 // nanoseconds
}

// selfTimes attributes every span's self time to its layer (the span
// name's prefix before the dot). A fleet worker's call carries no
// parent, so it hangs under its job's root "job.lifecycle" span; the
// root's self time is then what no instrumented call covers: queueing,
// compute and the result write, which the server runs internally.
func selfTimes(spans []span) []layerSelf {
	roots := map[string]uint64{}
	for _, s := range spans {
		if s.Name == "job.lifecycle" {
			roots[s.Trace] = s.ID
		}
	}
	children := map[uint64][]interval{}
	for _, s := range spans {
		p := s.Parent
		if p == 0 && strings.HasPrefix(s.Name, "worker.") {
			p = roots[s.Trace]
		}
		if p != 0 {
			children[p] = append(children[p], interval{s.Start, s.End})
		}
	}
	by := map[string]*layerSelf{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		ls := by[layer]
		if ls == nil {
			ls = &layerSelf{layer: layer}
			by[layer] = ls
		}
		ls.spans++
		ls.self += selfTime(interval{s.Start, s.End}, children[s.ID])
	}
	out := make([]layerSelf, 0, len(by))
	for _, ls := range by {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// durations returns the lengths in the given unit of the named spans,
// optionally only those with the given HTTP status (0 matches any).
func durations(spans []span, name string, status int, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (status == 0 || s.Status == status) {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}
