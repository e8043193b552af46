// The rig: one jobs.Server behind a real loopback net/http listener,
// its store on disk, the load client, and (for the fleet workload) two
// in-process worker.Run loops that reach the coordinator over HTTP.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aft/internal/jobs"
	"aft/internal/jobs/worker"
)

// rigConfig selects the server shape.
type rigConfig struct {
	dir   string // job store directory (created fresh, removed on close)
	fleet bool   // coordinator only, with two fleet workers
	// shardRounds and checkpointEvery are the fleet settings; zero
	// keeps the shipped defaults.
	shardRounds, checkpointEvery int64
}

// localWorkers is the local pool size and fleetWorkers the number of
// fleet workers: one per core on the 2-core hosts the benchmark targets.
const (
	localWorkers = 2
	fleetWorkers = 2
	// loadConns caps the load client's connections (and sending
	// goroutines): the load never outnumbers the cores serving it.
	loadConns = 2
)

// rig is one running server plus its clients.
type rig struct {
	cfg    rigConfig
	srv    *jobs.Server
	hs     *http.Server
	base   string
	client *http.Client
	tr     *tracer // nil for a plain run

	serveDone chan struct{}
	stopFleet context.CancelFunc
	fleetWG   sync.WaitGroup
	fleetMu   sync.Mutex
	fleetRes  []worker.Stats
}

// startRig builds a rig on a fresh store and returns it once the server
// reports ready over HTTP and, for the fleet, both workers have made
// their first lease call. The returned duration is that set-up time.
func startRig(cfg rigConfig, tr *tracer) (*rig, time.Duration, error) {
	if err := os.RemoveAll(cfg.dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	srv, err := jobs.NewServer(jobs.Options{
		Dir:              cfg.dir,
		Workers:          localWorkers,
		DisableLocalPool: cfg.fleet,
		ShardRounds:      cfg.shardRounds,
		CheckpointEvery:  cfg.checkpointEvery,
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, 0, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tr.handler(srv)
	}
	r := &rig{
		cfg:  cfg,
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     loadConns,
			MaxIdleConnsPerHost: loadConns,
		}},
		tr:        tr,
		serveDone: make(chan struct{}),
	}
	go func() {
		defer close(r.serveDone)
		_ = r.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	if err := r.awaitReady(); err != nil {
		_ = r.close()
		return nil, 0, err
	}
	if cfg.fleet {
		r.startFleet()
	}
	return r, time.Since(t0), nil
}

// awaitReady polls GET /healthz until the server reports ready.
func (r *rig) awaitReady() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var hr jobs.HealthReply
		code, err := r.getJSON("/healthz", &hr)
		if err == nil && code == http.StatusOK && hr.Status == jobs.HealthReady {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 30s (status %q, err %v)", hr.Status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// startFleet launches the fleet workers and returns once each has made
// its first lease request, i.e. is taking work.
func (r *rig) startFleet() {
	ctx, cancel := context.WithCancel(context.Background())
	r.stopFleet = cancel
	var leased sync.WaitGroup
	leased.Add(fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		var once sync.Once
		var rt http.RoundTripper = &firstLease{
			base: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 4},
			hit:  func() { once.Do(leased.Done) },
		}
		if r.tr != nil {
			rt = &tracedTransport{tr: r.tr, base: rt}
		}
		opts := worker.Options{
			Coordinator: r.base,
			Name:        fmt.Sprintf("bench-worker-%d", i),
			Client:      &http.Client{Timeout: 2 * time.Minute, Transport: rt},
		}
		r.fleetWG.Add(1)
		go func() {
			defer r.fleetWG.Done()
			st, _ := worker.Run(ctx, opts) // Run reports no error once started
			r.fleetMu.Lock()
			r.fleetRes = append(r.fleetRes, st)
			r.fleetMu.Unlock()
		}()
	}
	leased.Wait()
}

// firstLease is a transport that reports a worker's first lease call,
// the moment the worker starts taking work.
type firstLease struct {
	base http.RoundTripper
	hit  func()
}

// RoundTrip implements http.RoundTripper.
func (f *firstLease) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/v1/lease" {
		f.hit()
	}
	return f.base.RoundTrip(req)
}

// stopWorkers ends the fleet loops and returns their summed stats.
func (r *rig) stopWorkers() worker.Stats {
	var sum worker.Stats
	if r.stopFleet == nil {
		return sum
	}
	r.stopFleet()
	r.fleetWG.Wait()
	r.stopFleet = nil
	r.fleetMu.Lock()
	defer r.fleetMu.Unlock()
	for _, st := range r.fleetRes {
		sum.Grants += st.Grants
		sum.Completed += st.Completed
		sum.Shards += st.Shards
		sum.Uploads += st.Uploads
		sum.Abandoned += st.Abandoned
	}
	return sum
}

// close stops everything the rig started, waits for it, and removes the
// store.
func (r *rig) close() error {
	r.stopWorkers()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	<-r.serveDone
	if cerr := r.srv.Close(); err == nil {
		err = cerr
	}
	r.client.CloseIdleConnections()
	if rerr := os.RemoveAll(r.cfg.dir); err == nil {
		err = rerr
	}
	return err
}

// Header names that carry trace context from the benchmark's clients to
// its server-side handler wrapper. The server itself ignores them.
const (
	hdrTrace  = "X-Bench-Trace"
	hdrParent = "X-Bench-Parent"
)

// do sends one request; trace and parent tag it for the handler wrapper
// when the run is traced.
func (r *rig) do(method, path string, body []byte, trace string, parent uint64) (int, []byte, error) {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if r.tr != nil {
		req.Header.Set(hdrTrace, trace)
		req.Header.Set(hdrParent, fmt.Sprint(parent))
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, data, err
}

// getJSON fetches and decodes one JSON document.
func (r *rig) getJSON(path string, v any) (int, error) {
	code, data, err := r.do(http.MethodGet, path, nil, "", 0)
	if err != nil {
		return code, err
	}
	return code, json.Unmarshal(data, v)
}

// submit posts one job spec; a reply other than 202 (new job) or 200
// (dedup) is an error.
func (r *rig) submit(body []byte, trace string, parent uint64) (reply jobs.SubmitReply, code int, err error) {
	code, data, err := r.do(http.MethodPost, "/jobs", body, trace, parent)
	if err != nil {
		return reply, code, err
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		return reply, code, fmt.Errorf("POST /jobs: %d %s", code, bytes.TrimSpace(data))
	}
	err = json.Unmarshal(data, &reply)
	return reply, code, err
}

// result fetches a job's terminal record over HTTP.
func (r *rig) result(id string) (*jobs.Result, error) {
	var res jobs.Result
	code, err := r.getJSON("/jobs/"+id+"/result", &res)
	if err != nil {
		return nil, fmt.Errorf("GET result %s: %v", id, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET result %s: status %d", id, code)
	}
	return &res, nil
}

// metricz scrapes and parses GET /metricz.
func (r *rig) metricz() (promScrape, error) {
	code, data, err := r.do(http.MethodGet, "/metricz", nil, "", 0)
	if err != nil {
		return promScrape{}, fmt.Errorf("scrape /metricz: %w", err)
	}
	if code != http.StatusOK {
		return promScrape{}, fmt.Errorf("scrape /metricz: status %d", code)
	}
	return parseProm(string(data))
}

// storeFile names one of a job's files in the store layout
// (jobs/<id>/<name>, see DESIGN.md "The job server").
func (r *rig) storeFile(id, name string) string {
	return filepath.Join(r.cfg.dir, "jobs", id, name)
}
