// Serve-load harness: drives an in-process jobs server with a burst of
// concurrent submitters plus one closed-loop trickle client, once under
// the fifo baseline scheduler and once under the fair scheduler, and
// appends both runs' latency/fairness/drop numbers to the perf
// trajectory. The workload is seeded and the job set is
// content-addressed, so the two runs execute the identical job
// population; only wall-clock latencies vary with the host.
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"aft/internal/jobs"
	"aft/internal/pubsub"
	"aft/internal/redundancy"
	"aft/internal/scenario"
)

// serveLoadOptions configures one -serve-load invocation (both runs
// share it, so the fifo/fair comparison is apples to apples).
type serveLoadOptions struct {
	// Jobs is the burst population; each job gets its own concurrent
	// submitter goroutine.
	Jobs int
	// Clients is how many client IDs the burst submitters are spread
	// across (the trickle client is one more on top).
	Clients int
	// Workers is the server's local worker pool size.
	Workers int
	// Horizon is the per-job scenario horizon — the service-time knob.
	Horizon int64
	// TrickleJobs is the closed-loop depth of the trickle client: each
	// job is submitted only after the previous one finished.
	TrickleJobs int
	// Rate paces each burst submitter to this many submissions per
	// second; 0 submits everything at once.
	Rate float64
	// Seed salts every job's scenario seed, so re-running with a new
	// seed produces a disjoint job population.
	Seed uint64
	// Trajectory is the perf-history file both entries are appended to
	// (empty = skip).
	Trajectory string
	// AssertFairness makes the expected fairness win a hard check: the
	// fair run's trickle p99 must be below the fifo baseline's.
	AssertFairness bool
}

// serveLoadEntry is the trajectory schema for one serve-load run. It
// shares the file with the benchbatch entries; appendTrajectory
// preserves entries of every schema.
type serveLoadEntry struct {
	Date           string  `json:"date"`
	Experiment     string  `json:"experiment"`
	Scheduler      string  `json:"scheduler"`
	Jobs           int     `json:"jobs"`
	Clients        int     `json:"clients"`
	Workers        int     `json:"workers"`
	Horizon        int64   `json:"horizon"`
	GoMaxProcs     int     `json:"gomaxprocs"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	TrickleP50Ms   float64 `json:"trickle_p50_ms"`
	TrickleP99Ms   float64 `json:"trickle_p99_ms"`
	FairnessSpread float64 `json:"fairness_spread"`
	SSEDropped     int64   `json:"sse_dropped"`
	RateLimited    int64   `json:"rate_limited"`
	QueueRejected  int64   `json:"queue_rejected"`
	ElapsedMs      float64 `json:"elapsed_ms"`
}

// serveLoadResult is one run's raw measurements before they are dated
// into a trajectory entry.
type serveLoadResult struct {
	scheduler      string
	latencies      []float64 // ms, every burst + trickle job
	trickle        []float64 // ms, trickle jobs only
	fairnessSpread float64   // max/min per-client goodput across burst clients
	sseDropped     int64
	rateLimited    int64
	queueRejected  int64
	elapsed        time.Duration
}

// loadPriorities spreads the burst jobs across the three scheduling
// classes deterministically by index.
var loadPriorities = []string{"high", "normal", "low"}

// runServeLoad runs the harness under both schedulers, prints a
// comparison, appends both trajectory entries, and (optionally)
// enforces the fairness win.
func runServeLoad(o serveLoadOptions, stdout io.Writer) error {
	if o.Jobs < 1 || o.Clients < 1 || o.TrickleJobs < 1 {
		return fmt.Errorf("serve-load: jobs, clients, and trickle counts must be positive")
	}
	results := make(map[string]serveLoadResult, 2)
	for _, mode := range []string{"fifo", "fair"} {
		fmt.Fprintf(stdout, "serve-load: %d burst submitters (%d clients) + %d trickle jobs, %d workers, scheduler=%s\n",
			o.Jobs, o.Clients, o.TrickleJobs, o.Workers, mode)
		res, err := runServeLoadOnce(o, mode)
		if err != nil {
			return err
		}
		results[mode] = res
		fmt.Fprintf(stdout,
			"  %-4s  p50 %8.2fms  p99 %8.2fms  trickle p50 %8.2fms  p99 %8.2fms  spread %.2fx  sse-drops %d  elapsed %.0fms\n",
			mode, pctile(res.latencies, 0.50), pctile(res.latencies, 0.99),
			pctile(res.trickle, 0.50), pctile(res.trickle, 0.99),
			res.fairnessSpread, res.sseDropped, res.elapsed.Seconds()*1000)
	}

	fifoP99 := pctile(results["fifo"].trickle, 0.99)
	fairP99 := pctile(results["fair"].trickle, 0.99)
	fmt.Fprintf(stdout, "serve-load: trickle p99 fifo %.2fms vs fair %.2fms\n", fifoP99, fairP99)
	if o.AssertFairness && fairP99 >= fifoP99 {
		return fmt.Errorf("serve-load: fairness regression: fair trickle p99 %.2fms >= fifo baseline %.2fms", fairP99, fifoP99)
	}

	if o.Trajectory != "" {
		date := time.Now().UTC().Format(time.RFC3339)
		for _, mode := range []string{"fifo", "fair"} {
			res := results[mode]
			e := serveLoadEntry{
				Date:           date,
				Experiment:     "serve-load",
				Scheduler:      mode,
				Jobs:           o.Jobs,
				Clients:        o.Clients,
				Workers:        o.Workers,
				Horizon:        o.Horizon,
				GoMaxProcs:     runtime.GOMAXPROCS(0),
				P50Ms:          pctile(res.latencies, 0.50),
				P99Ms:          pctile(res.latencies, 0.99),
				TrickleP50Ms:   pctile(res.trickle, 0.50),
				TrickleP99Ms:   pctile(res.trickle, 0.99),
				FairnessSpread: res.fairnessSpread,
				SSEDropped:     res.sseDropped,
				RateLimited:    res.rateLimited,
				QueueRejected:  res.queueRejected,
				ElapsedMs:      res.elapsed.Seconds() * 1000,
			}
			if err := appendTrajectory(o.Trajectory, e); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "appended 2 serve-load entries to %s\n", o.Trajectory)
	}
	return nil
}

// runServeLoadOnce measures one scheduler mode on a fresh store.
func runServeLoadOnce(o serveLoadOptions, mode string) (serveLoadResult, error) {
	dir, err := os.MkdirTemp("", "aft-serve-load-*")
	if err != nil {
		return serveLoadResult{}, err
	}
	defer os.RemoveAll(dir)

	s, err := jobs.NewServer(jobs.Options{Dir: dir, Workers: o.Workers, Scheduler: mode})
	if err != nil {
		return serveLoadResult{}, err
	}
	// Error-path backstop; the success path returns s.Close()'s error
	// below (Close is idempotent).
	defer func() { _ = s.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		return serveLoadResult{}, err
	}

	// A deliberately slow fan-out consumer, so the run also measures the
	// bus's slow-subscriber drop accounting under real event volume.
	slow := s.EventBus().Subscribe("jobs/*", func(pubsub.Message) {
		time.Sleep(200 * time.Microsecond)
	})
	defer s.EventBus().Unsubscribe(slow)

	type rec struct {
		client  string
		ms      float64
		doneAt  time.Duration // since start, for goodput
		failure error
	}
	recs := make([]rec, o.Jobs)
	start := time.Now()

	// Burst phase: every job gets its own submitter goroutine. submitted
	// gates the trickle phase on admission (not completion) of the whole
	// backlog, so under fifo the trickle client genuinely queues behind
	// it; finished gates the final accounting.
	var submitted, finished sync.WaitGroup
	submitted.Add(o.Jobs)
	finished.Add(o.Jobs)
	for i := 0; i < o.Jobs; i++ {
		go func(i int) {
			defer finished.Done()
			if o.Rate > 0 {
				// Pace arrivals: each client's stream fires at Rate
				// submissions per second, so submitter i waits for its
				// position within its client's stream.
				time.Sleep(time.Duration(float64(i/o.Clients) / o.Rate * float64(time.Second)))
			}
			spec := loadSpec(o, "", i)
			spec.Client = fmt.Sprintf("client-%02d", i%o.Clients)
			spec.Priority = loadPriorities[i%len(loadPriorities)]
			t0 := time.Now()
			st, _, err := s.Submit(spec)
			submitted.Done()
			if err != nil {
				recs[i] = rec{failure: err}
				return
			}
			res, err := s.Wait(ctx, st.ID)
			if err == nil && res.State != jobs.StateDone {
				err = fmt.Errorf("job %s ended %s: %s", st.ID, res.State, res.Error)
			}
			recs[i] = rec{
				client: spec.Client,
				ms:     time.Since(t0).Seconds() * 1000,
				doneAt: time.Since(start),
			}
			if err != nil {
				recs[i].failure = err
			}
		}(i)
	}
	submitted.Wait()

	// Trickle phase: one low-volume client, closed loop, normal
	// priority. Under fifo each job waits behind whatever burst backlog
	// remains; under fair queuing it only waits its own turn.
	trickle := make([]float64, 0, o.TrickleJobs)
	for i := 0; i < o.TrickleJobs; i++ {
		spec := loadSpec(o, "trickle", i)
		spec.Client = "trickle"
		t0 := time.Now()
		st, _, err := s.Submit(spec)
		if err != nil {
			return serveLoadResult{}, fmt.Errorf("serve-load: trickle submit: %w", err)
		}
		res, err := s.Wait(ctx, st.ID)
		if err != nil {
			return serveLoadResult{}, fmt.Errorf("serve-load: trickle wait: %w", err)
		}
		if res.State != jobs.StateDone {
			return serveLoadResult{}, fmt.Errorf("serve-load: trickle job %s ended %s: %s", st.ID, res.State, res.Error)
		}
		trickle = append(trickle, time.Since(t0).Seconds()*1000)
	}
	finished.Wait()
	elapsed := time.Since(start)

	// Per-client goodput over the burst clients: completed jobs per
	// second up to the client's last completion. The spread (max/min) is
	// the fairness number — 1.0 is perfectly even service.
	type cstat struct {
		n    int
		last time.Duration
	}
	perClient := make(map[string]*cstat, o.Clients)
	all := make([]float64, 0, o.Jobs+o.TrickleJobs)
	for i := range recs {
		if recs[i].failure != nil {
			return serveLoadResult{}, fmt.Errorf("serve-load: burst job %d: %w", i, recs[i].failure)
		}
		all = append(all, recs[i].ms)
		cs := perClient[recs[i].client]
		if cs == nil {
			cs = &cstat{}
			perClient[recs[i].client] = cs
		}
		cs.n++
		if recs[i].doneAt > cs.last {
			cs.last = recs[i].doneAt
		}
	}
	all = append(all, trickle...)
	minGoodput, maxGoodput := math.Inf(1), 0.0
	for _, cs := range perClient {
		g := float64(cs.n) / cs.last.Seconds()
		minGoodput = math.Min(minGoodput, g)
		maxGoodput = math.Max(maxGoodput, g)
	}
	spread := 1.0
	if minGoodput > 0 && !math.IsInf(minGoodput, 1) {
		spread = maxGoodput / minGoodput
	}

	res := serveLoadResult{
		scheduler:      mode,
		latencies:      all,
		trickle:        trickle,
		fairnessSpread: spread,
		sseDropped:     metricOf(s, "aft_sse_dropped_total"),
		rateLimited:    metricOf(s, "aft_rate_limited_total"),
		queueRejected:  metricOf(s, "aft_queue_rejected_total"),
		elapsed:        elapsed,
	}
	return res, s.Close()
}

// loadSpec builds the content-addressed unit of serve-load work: a tiny
// violation-free scenario whose seed encodes (harness seed, client
// kind, index), so every job in a run is a distinct job and re-running
// the same configuration replays the identical population.
func loadSpec(o serveLoadOptions, kind string, i int) jobs.Spec {
	seed := o.Seed + uint64(i) + 1
	if kind == "trickle" {
		seed += 1 << 32
	}
	return jobs.Spec{
		Kind: jobs.KindScenario,
		Scenario: &jobs.ScenarioSpec{
			Spec: &scenario.Spec{
				Name:    "serve-load",
				Seed:    seed,
				Horizon: o.Horizon,
				Organ:   true,
				Policy:  redundancy.DefaultPolicy(),
				Phases: []scenario.Phase{
					{Name: "quiet", Start: 0, Model: scenario.ModelSpec{Kind: "never"}},
				},
			},
		},
	}
}

// pctile returns the q-quantile (nearest-rank) of ms in milliseconds.
func pctile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// metricOf reads one scalar metric from the server's registry snapshot.
func metricOf(s *jobs.Server, name string) int64 {
	for _, sm := range s.Metrics().Snapshot() {
		if sm.Name == name {
			return sm.Value
		}
	}
	return 0
}
