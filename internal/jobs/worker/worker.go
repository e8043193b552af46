// Package worker implements the stateless fleet worker: the client
// side of the coordinator's /v1 lease protocol (internal/jobs fleet.go,
// served by aft-serve). A worker owns no disk state at all — every
// durable byte lives in the coordinator's job store — so killing one
// with SIGKILL at any instant loses nothing: its lease expires, the
// coordinator requeues the job from the last uploaded checkpoint, and
// any packet the dead worker still had in flight is rejected by its
// stale fencing token.
//
// The loop is: lease a job, heartbeat at a third of the lease TTL,
// execute it with the exact same code the coordinator's local pool runs
// (jobs.ExecuteSweep, jobs.ExecuteScenario, the campaign chunk loop
// with jobs.CampaignResult), stream a checkpoint back every
// CheckpointEvery rounds, and either hand the shard back (the
// coordinator requeues the chain's next shard) or complete the job with
// its terminal result. Sharing the execution code is what makes a
// fleet-run campaign's transcript byte-identical to a single-process
// run.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
	"aft/internal/jobs"
)

// Options configures a worker loop.
type Options struct {
	// Coordinator is the coordinator's base URL (scheme://host:port).
	Coordinator string
	// Name is the worker's stable name; it keys the coordinator's
	// fleet registry and appears in lease-conflict errors.
	Name string
	// Client is the HTTP client to use; nil selects a default with a
	// 2-minute timeout.
	Client *http.Client
	// Poll is the sleep between lease attempts when the queue is empty
	// or the coordinator is not ready; values <= 0 select 200ms.
	Poll time.Duration
	// MaxJobs stops the loop after that many grants have been processed
	// (shard handbacks count); 0 means run until the context ends.
	MaxJobs int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Stats summarizes one Run's work.
type Stats struct {
	// Grants is how many leases the worker received.
	Grants int64
	// Completed is how many jobs it ran to a terminal result.
	Completed int64
	// Shards is how many shard handbacks it performed.
	Shards int64
	// Uploads is how many checkpoint uploads the coordinator accepted.
	Uploads int64
	// Abandoned is how many leased jobs it walked away from (fenced
	// token or unrecoverable protocol error); the coordinator requeues
	// each from its last checkpoint.
	Abandoned int64
}

// Run executes the worker loop until the context ends (its error is
// then nil) or MaxJobs grants are processed. It first waits for the
// coordinator to report "ready" — a recovering coordinator hands out no
// work, and leasing before replay finishes could recompute rounds a
// checkpoint already covers.
func Run(ctx context.Context, opts Options) (Stats, error) {
	var st Stats
	if opts.Coordinator == "" || opts.Name == "" {
		return st, fmt.Errorf("worker: Coordinator and Name are required")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	w := &worker{opts: opts, stats: &st}
	if err := w.awaitReady(ctx); err != nil {
		return st, nil // context ended while waiting
	}
	for {
		if opts.MaxJobs > 0 && st.Grants >= int64(opts.MaxJobs) {
			return st, nil
		}
		g, ok := w.lease(ctx)
		if !ok {
			select {
			case <-ctx.Done():
				return st, nil
			case <-time.After(opts.Poll):
			}
			continue
		}
		st.Grants++
		w.execute(ctx, g)
	}
}

// worker carries one Run's state.
type worker struct {
	opts  Options
	stats *Stats
}

// awaitReady polls GET /healthz until the coordinator reports "ready".
func (w *worker) awaitReady(ctx context.Context) error {
	for {
		var hr jobs.HealthReply
		code, err := w.getJSON(ctx, "/healthz", &hr)
		if err == nil && code == http.StatusOK && hr.Status == jobs.HealthReady {
			return nil
		}
		if err == nil && hr.Status == jobs.HealthRecovering {
			w.opts.Logf("coordinator recovering; not leasing yet")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(w.opts.Poll):
		}
	}
}

// lease asks the coordinator for work; ok is false when there is none
// (or the coordinator is unreachable/unready) and the caller should
// back off.
func (w *worker) lease(ctx context.Context) (jobs.Grant, bool) {
	var g jobs.Grant
	body, _ := json.Marshal(jobs.LeaseRequest{Worker: w.opts.Name})
	resp, err := w.do(ctx, http.MethodPost, "/v1/lease", body, nil)
	if err != nil {
		return g, false
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return g, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
		return g, false
	}
	return g, true
}

// execute runs one grant to its conclusion: complete, shard handback,
// or abandonment.
func (w *worker) execute(ctx context.Context, g jobs.Grant) {
	w.opts.Logf("leased job %s (%s) token %d rounds %d..%d", g.Job, g.Kind, g.Token, g.Rounds, g.RunTo)
	hb := w.startHeartbeat(ctx, g)
	defer hb.stop()
	switch g.Kind {
	case jobs.KindCampaign:
		w.runCampaign(ctx, g, hb)
	case jobs.KindSweep:
		// Stateless workers pass no cache: the memo layer computes
		// directly, and the rows are identical because cells are keyed
		// on their complete inputs.
		w.complete(ctx, g, jobs.ExecuteSweep(g.Job, g.Spec.Sweep, nil))
	case jobs.KindScenario:
		w.complete(ctx, g, jobs.ExecuteScenario(g.Job, g.Spec.Scenario))
	default:
		w.abandon(g, fmt.Errorf("unknown kind %q", g.Kind))
	}
}

// runCampaign executes one campaign shard in checkpointed chunks,
// mirroring the coordinator's local loop (server.go runCampaign) so the
// transcripts match byte for byte.
func (w *worker) runCampaign(ctx context.Context, g jobs.Grant, hb *heartbeat) {
	cfg := *g.Spec.Campaign
	var c *experiments.Campaign
	resumed := false
	if len(g.Checkpoint) > 0 {
		snap, err := checkpoint.Decode(g.Checkpoint)
		if err == nil {
			c, err = experiments.RestoreCampaign(snap)
		}
		if err != nil {
			// The coordinator verified this snapshot before shipping it,
			// so damage here means the transfer itself went wrong; let
			// the lease lapse and another worker retry.
			w.abandon(g, fmt.Errorf("restore shipped checkpoint: %v", err))
			return
		}
		resumed = true
	}
	if c == nil {
		fresh, err := experiments.NewCampaign(cfg)
		if err != nil {
			w.complete(ctx, g, &jobs.Result{
				ID: g.Job, Kind: g.Kind, State: jobs.StateFailed, Error: err.Error(),
			})
			return
		}
		c = fresh
	}
	runTo := g.RunTo
	if runTo <= 0 || runTo > cfg.Steps {
		runTo = cfg.Steps
	}
	every := g.CheckpointEvery
	if every <= 0 {
		every = runTo
	}
	for {
		if ctx.Err() != nil {
			return // killed: no cleanup, by design
		}
		if hb.fenced.Load() {
			w.abandon(g, fmt.Errorf("lease fenced"))
			return
		}
		if hb.cancelled.Load() {
			// Checkpoint-on-cancel: upload the durable stopping point;
			// the coordinator finalizes the job as cancelled from it.
			w.upload(ctx, g, c)
			return
		}
		n := every
		if r := runTo - c.Rounds(); n > r {
			n = r
		}
		if n > 0 {
			c.Run(n)
		}
		if c.Remaining() == 0 {
			w.complete(ctx, g, jobs.CampaignResult(g.Job, cfg, c.Result(), resumed))
			return
		}
		reply, ok := w.upload(ctx, g, c)
		if !ok {
			return // abandoned (fenced or unrecoverable)
		}
		if reply.Cancelled {
			w.opts.Logf("job %s cancelled at round %d", g.Job, reply.Rounds)
			return
		}
		if reply.ShardDone {
			w.opts.Logf("job %s shard done at round %d; handing back", g.Job, reply.Rounds)
			w.stats.Shards++
			return
		}
	}
}

// upload streams the campaign's current snapshot to the coordinator,
// retrying transport errors (re-delivery is idempotent) until the
// context ends or the lease is fenced.
func (w *worker) upload(ctx context.Context, g jobs.Grant, c *experiments.Campaign) (jobs.UploadReply, bool) {
	var reply jobs.UploadReply
	snap, err := c.Snapshot()
	if err != nil {
		w.abandon(g, fmt.Errorf("snapshot: %v", err))
		return reply, false
	}
	data := snap.Encode()
	hdr := map[string]string{
		jobs.HeaderWorker: w.opts.Name,
		jobs.HeaderToken:  strconv.FormatUint(g.Token, 10),
	}
	for {
		if ctx.Err() != nil {
			return reply, false
		}
		resp, err := w.do(ctx, http.MethodPut, "/v1/jobs/"+g.Job+"/checkpoint", data, hdr)
		if err != nil {
			// Dropped or severed link: wait and re-deliver. The
			// coordinator treats a duplicate as a no-op, so a response
			// the network ate costs nothing.
			select {
			case <-ctx.Done():
				return reply, false
			case <-time.After(w.opts.Poll):
			}
			continue
		}
		code := resp.StatusCode
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
		switch {
		case code == http.StatusOK:
			if err := json.Unmarshal(body, &reply); err != nil {
				w.abandon(g, fmt.Errorf("bad upload reply: %v", err))
				return reply, false
			}
			w.stats.Uploads++
			return reply, true
		case code == http.StatusConflict:
			// Fenced: the lease expired or another worker took over.
			w.abandon(g, fmt.Errorf("upload rejected: %s", body))
			return reply, false
		default:
			w.abandon(g, fmt.Errorf("upload failed (%d): %s", code, body))
			return reply, false
		}
	}
}

// complete hands in a terminal result, retrying transport errors
// (completion is idempotent) until the context ends or the write is
// fenced.
func (w *worker) complete(ctx context.Context, g jobs.Grant, res *jobs.Result) {
	body, err := json.Marshal(jobs.CompleteRequest{
		Worker: w.opts.Name, Token: g.Token, Result: res,
	})
	if err != nil {
		w.abandon(g, fmt.Errorf("encode result: %v", err))
		return
	}
	for {
		if ctx.Err() != nil {
			return
		}
		resp, err := w.do(ctx, http.MethodPost, "/v1/jobs/"+g.Job+"/complete", body, nil)
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(w.opts.Poll):
			}
			continue
		}
		code := resp.StatusCode
		reply, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
		if code == http.StatusOK {
			w.stats.Completed++
			w.opts.Logf("job %s complete (%s)", g.Job, res.State)
			return
		}
		w.abandon(g, fmt.Errorf("complete rejected (%d): %s", code, reply))
		return
	}
}

// abandon logs why the worker is walking away from a leased job; the
// lease expires on its own and the coordinator requeues the job from
// its last checkpoint.
func (w *worker) abandon(g jobs.Grant, err error) {
	w.stats.Abandoned++
	w.opts.Logf("abandoning job %s: %v", g.Job, err)
}

// heartbeat renews one lease at a third of its TTL and relays the
// coordinator's verdicts (fenced, cancelled) to the execution loop.
type heartbeat struct {
	fenced    atomic.Bool
	cancelled atomic.Bool
	cancel    context.CancelFunc
	done      chan struct{}
}

// stop ends the heartbeat goroutine and waits for it.
func (h *heartbeat) stop() {
	h.cancel()
	<-h.done
}

// startHeartbeat begins renewing the grant's lease in the background.
func (w *worker) startHeartbeat(ctx context.Context, g jobs.Grant) *heartbeat {
	hctx, cancel := context.WithCancel(ctx)
	h := &heartbeat{cancel: cancel, done: make(chan struct{})}
	interval := time.Duration(g.LeaseMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	body, _ := json.Marshal(jobs.RenewRequest{Worker: w.opts.Name, Token: g.Token})
	go func() {
		defer close(h.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-hctx.Done():
				return
			case <-tick.C:
			}
			resp, err := w.do(hctx, http.MethodPost, "/v1/jobs/"+g.Job+"/renew", body, nil)
			if err != nil {
				continue // flaky link: the next tick retries
			}
			var reply jobs.RenewReply
			code := resp.StatusCode
			decErr := json.NewDecoder(resp.Body).Decode(&reply)
			_ = resp.Body.Close()
			switch {
			case code == http.StatusConflict:
				h.fenced.Store(true)
				return
			case code == http.StatusOK && decErr == nil && reply.Cancelled:
				h.cancelled.Store(true)
			}
		}
	}()
	return h
}

// do issues one request against the coordinator.
func (w *worker) do(ctx context.Context, method, path string, body []byte, hdr map[string]string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	return w.opts.Client.Do(req)
}

// getJSON fetches a JSON document from the coordinator.
func (w *worker) getJSON(ctx context.Context, path string, v any) (int, error) {
	resp, err := w.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return 0, err
	}
	defer func() { _ = resp.Body.Close() }()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}
