// Per-layer metrics of the traced run, each mapped to the end-to-end
// metric it should move and the workload it shows on.

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"aft/internal/checkpoint"
)

// layerMetric is one per-layer metric and what it explains.
type layerMetric struct {
	name, unit, better string
	layer              string // the module whose work it measures
	moves              string // the end-to-end metric it should move
	workload           string // the workload that exercises it
}

// layerMetrics is the --trace 1 metric set, in report order, each with
// the workload it should move on. A metric whose layer a workload does
// not exercise reads 0 on that workload.
var layerMetrics = []layerMetric{
	{"ack_ms_p50", "ms", "lower", "end-to-end (request path)", "done_ms_p50", "scenario-stream"},
	{"ack_ms_p90", "ms", "lower", "end-to-end tail", "done_ms_p50", "scenario-stream"},
	{"done_ms_p90", "ms", "lower", "end-to-end tail", "done_ms_p50", "scenario-stream"},
	{"failed_ratio", "ratio", "lower", "end-to-end", "all", "all"},
	{"trace.overhead_ack_ms_p50", "ms", "lower", "tracing", "ack_ms_p50", "all"},
	{"trace.overhead_done_ms_p50", "ms", "lower", "tracing", "done_ms_p50", "all"},
	{"trace.overhead_rounds_pct", "%", "lower", "tracing", "rounds_per_s", "all"},
	{"http.post_jobs_ms_p50", "ms", "lower", "jobs/http", "ack_ms_p50, done_ms_p50", "scenario-stream"},
	{"http.post_jobs_ms_p90", "ms", "lower", "jobs/http", "ack_ms_p90", "scenario-stream"},
	{"http.get_status_ms_p50", "ms", "lower", "jobs/http", "jobs_per_s", "scenario-stream"},
	{"http.refused", "count", "lower", "jobs/http", "failed_ratio", "scenario-stream"},
	{"store.spec_persist_us_p50", "us", "lower", "checkpoint (store writes)", "ack_ms_p50, jobs_per_s", "scenario-stream"},
	{"store.spec_persist_us_p99", "us", "lower", "checkpoint (store writes)", "ack_ms_p90, jobs_per_s", "scenario-stream"},
	{"store.result_persist_us_p50", "us", "lower", "checkpoint (store writes)", "done_ms_p50, jobs_per_s", "scenario-stream"},
	{"store.result_persist_us_p99", "us", "lower", "checkpoint (store writes)", "done_ms_p50, jobs_per_s", "scenario-stream"},
	{"sched.queue_wait_ms_p50", "ms", "lower", "jobs/sched", "done_ms_p50", "scenario-stream"},
	{"sched.queue_wait_ms_p90", "ms", "lower", "jobs/sched", "done_ms_p90", "scenario-stream"},
	{"experiments.ns_per_round", "ns", "lower", "experiments", "rounds_per_s, done_ms_p50", "campaign-local"},
	{"checkpoint.encode_us", "us", "lower", "checkpoint (campaign state)", "rounds_per_s", "campaign-fleet"},
	{"checkpoint.bytes", "bytes", "lower", "checkpoint (campaign state)", "rounds_per_s", "campaign-fleet"},
	{"checkpoint.persist_us_p50", "us", "lower", "checkpoint (campaign state)", "rounds_per_s", "campaign-fleet"},
	{"checkpoint.verify_us_p50", "us", "lower", "checkpoint (campaign state)", "rounds_per_s", "campaign-fleet"},
	{"lease.grant_ms_p50", "ms", "lower", "jobs/lease", "rounds_per_s, done_ms_p50", "campaign-fleet"},
	{"lease.empty_ratio", "ratio", "lower", "jobs/lease", "rounds_per_s, done_ms_p50", "campaign-fleet"},
	{"fleet.upload_ms_p50", "ms", "lower", "jobs (fleet)", "rounds_per_s", "campaign-fleet"},
	{"fleet.upload_ms_p99", "ms", "lower", "jobs (fleet)", "rounds_per_s", "campaign-fleet"},
	{"fleet.complete_ms_p50", "ms", "lower", "jobs (fleet)", "done_ms_p50", "campaign-fleet"},
	{"lease.expired", "count", "lower", "jobs/lease", "rounds_per_s", "campaign-fleet"},
	{"fleet.fenced_rejects", "count", "lower", "jobs (fleet)", "rounds_per_s", "campaign-fleet"},
	{"worker.grants", "count", "lower", "jobs/worker", "rounds_per_s", "campaign-fleet"},
	{"worker.uploads", "count", "lower", "jobs/worker", "rounds_per_s", "campaign-fleet"},
	{"worker.abandoned", "count", "lower", "jobs/worker", "rounds_per_s", "campaign-fleet"},
	{"pubsub.fanout_lag_ms_p50", "ms", "lower", "pubsub", "jobs_per_s", "scenario-stream"},
	{"pubsub.dropped_ratio", "ratio", "lower", "pubsub", "jobs_per_s", "scenario-stream"},
	{"jobs.checkpoints_written", "count", "lower", "jobs", "rounds_per_s", "all"},
	{"jobs.rounds_executed", "count", "lower", "jobs", "rounds_per_s", "all"},
	{"jobs.deduped", "count", "higher", "jobs", "jobs_per_s", "scenario-stream"},
	{"self.job_ms_per_job", "ms", "lower", "job lifecycle outside any traced call", "done_ms_p50", "all"},
	{"self.client_ms_per_job", "ms", "lower", "load client and loopback", "done_ms_p50", "all"},
	{"self.http_ms_per_job", "ms", "lower", "jobs/http handlers", "done_ms_p50", "all"},
	{"self.worker_ms_per_job", "ms", "lower", "fleet worker transport", "rounds_per_s", "campaign-fleet"},
}

// counterDelta is how far a counter moved across the scrape window.
func (m *measurement) counterDelta(name string) float64 {
	return m.scrapeAfter.scalars[name] - m.scrapeBefore.scalars[name]
}

// storeReplays is how many spec and result writes the traced run
// replays through checkpoint.WriteFileAtomic: enough that a p99 has ten
// samples beyond it.
const storeReplays = 1000

// replayStore replays the store's spec and result writes through
// checkpoint.WriteFileAtomic, with the bytes the server wrote for these
// jobs, into fresh job directories on the store's filesystem — the
// calls Server.Submit and finalize make internally.
func replayStore(r *rig, ids []string) error {
	if len(ids) == 0 {
		return nil
	}
	for _, file := range []struct{ name, span string }{
		{"spec.json", "store.spec_persist"},
		{"result.json", "store.result_persist"},
	} {
		var blobs [][]byte
		for _, id := range ids[:min(len(ids), 64)] {
			data, err := os.ReadFile(r.storeFile(id, file.name))
			if err != nil {
				return err
			}
			blobs = append(blobs, data)
		}
		for i := 0; i < storeReplays; i++ {
			path := filepath.Join(r.cfg.dir, "replay", file.name+"-"+strconv.Itoa(i), file.name)
			if err := r.tr.timed(file.span, "", func() error {
				return checkpoint.WriteFileAtomic(path, blobs[i%len(blobs)])
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// perLayer computes the per-layer metrics from the plain run, the
// traced run and its spans.
func perLayer(plain, tm *measurement, spans []span) map[string]metric {
	v := map[string]float64{}
	pct := func(xs []float64, q float64) float64 {
		x, ok := percentile(xs, q)
		if !ok {
			return 0
		}
		return finite(x)
	}
	named := func(name string, status int, unit time.Duration) []float64 {
		return durations(spans, name, status, unit)
	}

	v["ack_ms_p50"] = pct(plain.ack, 0.50)
	v["ack_ms_p90"] = pct(plain.ack, 0.90)
	v["done_ms_p90"] = pct(plain.done, 0.90)
	v["failed_ratio"] = float64(plain.failed()+tm.failed()) / float64(plain.attempted()+tm.attempted())
	v["trace.overhead_ack_ms_p50"] = pct(tm.ack, 0.5) - pct(plain.ack, 0.5)
	v["trace.overhead_done_ms_p50"] = pct(tm.done, 0.5) - pct(plain.done, 0.5)
	if plain.roundsPerS > 0 {
		v["trace.overhead_rounds_pct"] = 100 * (plain.roundsPerS - tm.roundsPerS) / plain.roundsPerS
	}

	v["http.post_jobs_ms_p50"] = pct(named("http.post_jobs", 0, time.Millisecond), 0.5)
	v["http.post_jobs_ms_p90"] = pct(named("http.post_jobs", 0, time.Millisecond), 0.90)
	v["http.get_status_ms_p50"] = pct(named("http.get_status", 0, time.Millisecond), 0.5)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "http.") && (s.Status == 429 || s.Status == 503) {
			v["http.refused"]++
		}
	}
	v["store.spec_persist_us_p50"] = pct(named("store.spec_persist", 0, time.Microsecond), 0.5)
	v["store.spec_persist_us_p99"] = pct(named("store.spec_persist", 0, time.Microsecond), 0.99)
	v["store.result_persist_us_p50"] = pct(named("store.result_persist", 0, time.Microsecond), 0.5)
	v["store.result_persist_us_p99"] = pct(named("store.result_persist", 0, time.Microsecond), 0.99)
	if h := tm.scrapeAfter.histograms["aft_queue_wait_seconds"]; h != nil {
		if d, err := h.delta(tm.scrapeBefore.histograms["aft_queue_wait_seconds"]); err == nil {
			if q, ok := d.quantile(0.5); ok {
				v["sched.queue_wait_ms_p50"] = q * 1000
			}
			if q, ok := d.quantile(0.90); ok {
				v["sched.queue_wait_ms_p90"] = q * 1000
			}
		}
	}

	var runNS, runRounds int64
	var encodeBytes []float64
	for _, s := range spans {
		switch s.Name {
		case "experiments.run":
			runNS += s.dur()
			runRounds += s.Rounds
		case "checkpoint.encode":
			encodeBytes = append(encodeBytes, float64(s.Bytes))
		}
	}
	if runRounds > 0 {
		v["experiments.ns_per_round"] = float64(runNS) / float64(runRounds)
	}
	v["checkpoint.encode_us"] = pct(named("checkpoint.encode", 0, time.Microsecond), 0.5)
	v["checkpoint.bytes"] = median(encodeBytes)
	v["checkpoint.persist_us_p50"] = pct(named("checkpoint.persist", 0, time.Microsecond), 0.5)
	v["checkpoint.verify_us_p50"] = pct(named("checkpoint.verify", 0, time.Microsecond), 0.5)

	leases := named("worker.lease", 0, time.Millisecond)
	if len(leases) > 0 {
		v["lease.empty_ratio"] = float64(len(named("worker.lease", 204, time.Millisecond))) / float64(len(leases))
	}
	v["lease.grant_ms_p50"] = pct(named("worker.lease", 200, time.Millisecond), 0.5)
	v["fleet.upload_ms_p50"] = pct(named("worker.upload", 0, time.Millisecond), 0.5)
	v["fleet.upload_ms_p99"] = pct(named("worker.upload", 0, time.Millisecond), 0.99)
	v["fleet.complete_ms_p50"] = pct(named("worker.complete", 0, time.Millisecond), 0.5)
	v["lease.expired"] = tm.counterDelta("aft_leases_expired_total")
	v["fleet.fenced_rejects"] = tm.counterDelta("aft_fenced_rejects_total")

	// Work counts cover a fixed amount of work so they repeat exactly for
	// a seed: one campaign cycle, or the whole open-loop phase.
	units := float64(max(len(tm.digests), 1))
	v["worker.grants"] = float64(tm.fleet.Grants) / units
	v["worker.uploads"] = float64(tm.fleet.Uploads) / units
	v["worker.abandoned"] = float64(tm.fleet.Abandoned) / units
	v["jobs.checkpoints_written"] = tm.counterDelta("aft_checkpoints_written_total") / units
	v["jobs.rounds_executed"] = tm.counterDelta("aft_rounds_executed_total") / units
	v["jobs.deduped"] = tm.counterDelta("aft_jobs_deduped_total") / units

	v["pubsub.fanout_lag_ms_p50"] = pct(tm.fanoutLags, 0.5)
	if pub := tm.counterDelta("aft_events_published_total"); pub > 0 {
		v["pubsub.dropped_ratio"] = tm.counterDelta("aft_sse_dropped_total") / pub
	}

	perJob := float64(max(len(named("job.lifecycle", 0, time.Millisecond)), 1))
	for _, ls := range selfTimes(spans) {
		key := "self." + ls.layer + "_ms_per_job"
		if _, ok := findLayerMetric(key); ok {
			v[key] = float64(ls.self) / float64(time.Millisecond) / perJob
		}
	}

	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{Value: v[lm.name], Unit: lm.unit}
	}
	return out
}

// findLayerMetric looks a per-layer metric up by name.
func findLayerMetric(name string) (layerMetric, bool) {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm, true
		}
	}
	return layerMetric{}, false
}

// printLayers prints each per-layer metric beside the end-to-end metric
// and workload it maps to, then every layer's self time.
func printLayers(w io.Writer, workload string, metrics map[string]metric, spans []span) {
	fmt.Fprintf(w, "per-layer metrics (%s, traced run):\n", workload)
	fmt.Fprintf(w, "  %-30s %14s %-6s  %-38s %-26s %s\n", "metric", "value", "unit", "layer", "should move", "on workload")
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "  %-30s %14.4f %-6s  %-38s %-26s %s\n",
			lm.name, metrics[lm.name].Value, lm.unit, lm.layer, lm.moves, lm.workload)
	}
	fmt.Fprintf(w, "self time by layer over %d traced jobs:\n", len(durations(spans, "job.lifecycle", 0, 1)))
	var total int64
	layers := selfTimes(spans)
	for _, ls := range layers {
		total += ls.self
	}
	for _, ls := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ls.self) / float64(total)
		}
		fmt.Fprintf(w, "  %-12s spans %7d  self %10.1fms  %5.1f%%\n",
			ls.layer, ls.spans, float64(ls.self)/float64(time.Millisecond), share)
	}
}
