// One measured run of a workload: repeated set-ups, the workload body,
// the correctness checks, and the end-to-end report.

package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aft/internal/jobs/worker"
)

// workloadFunc drives one workload against a ready rig, filling in the
// measurement.
type workloadFunc func(m *measurement, r *rig) error

// setupRepeats is how many times a run builds its rig; setup_s is the
// median, and the last rig carries the workload.
const setupRepeats = 21

// phase is one stretch of load with its own operation accounting.
type phase struct {
	name                         string
	attempted, succeeded, failed int
	invalid                      string // why the phase's figures cannot stand; "" if they can
}

// measurement is everything one run observed.
type measurement struct {
	seed uint64
	dur  time.Duration
	tr   *tracer // nil for a plain run

	setup      []float64 // seconds, one per set-up
	ack, done  []float64 // milliseconds; +Inf for a refused or failed job
	jobsPerS   float64
	roundsPerS float64
	rss        float64
	late       *lateness // open-loop generator, when there is one
	phases     []phase
	digests    []string  // transcript digest of each campaign cycle
	cycleRates []float64 // rounds per second of each campaign cycle
	problems   []string  // correctness failures

	// Traced-run inputs to the per-layer metrics.
	scrapeBefore, scrapeAfter promScrape
	fanoutMu                  sync.Mutex
	fanoutRecv                map[string]time.Time // terminal event delivery per job
	fanoutLags                []float64            // ms from durable result to bus delivery
	fleet                     worker.Stats
}

// problem records a correctness failure.
func (m *measurement) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// rigConfigFor is the server shape a workload runs on.
func rigConfigFor(name, dir string) rigConfig {
	cfg := rigConfig{dir: dir}
	if name == "campaign-fleet" {
		cfg.fleet = true
		cfg.shardRounds = fleetShardRounds
		cfg.checkpointEvery = fleetCheckpointEvery
	}
	return cfg
}

// measure sets the rig up setupRepeats times, runs the workload on the
// last one, and tears everything down. Only the last rig is traced.
func measure(name string, body workloadFunc, seed uint64, dur time.Duration, tr *tracer, out string) (*measurement, error) {
	m := &measurement{seed: seed, dur: dur, tr: tr}
	cfg := rigConfigFor(name, filepath.Join(out, fmt.Sprintf("store-%s-%d", name, os.Getpid())))
	// Start from a quiet disk, and leave one: the filesystem may discard
	// freed blocks at journal commit, so a previous run's deletions (or
	// the build) must not be flushed inside this run's measured window,
	// nor this run's inside the next one's.
	if err := syncFS(out); err != nil {
		return nil, err
	}
	defer func() { _ = syncFS(out) }()
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		var t *tracer
		if last {
			t = tr
		}
		r, d, err := startRig(cfg, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setup = append(m.setup, d.Seconds())
		if !last {
			if err := r.close(); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		berr := body(m, r)
		m.fleet = r.stopWorkers()
		if err := r.close(); berr == nil && err != nil {
			berr = fmt.Errorf("tear-down: %w", err)
		}
		if berr != nil {
			return nil, berr
		}
	}
	m.rss = peakRSSMB()
	return m, nil
}

// syncFS fsyncs dir, which on a journaling filesystem commits the
// running transaction: every pending deletion on it, with its discards.
func syncFS(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close() // read-only handle; Sync reports the error that matters
	return f.Sync()
}

// attempted counts the operations every phase attempted.
func (m *measurement) attempted() int {
	n := 0
	for _, p := range m.phases {
		n += p.attempted
	}
	return max(n, 1)
}

// failed counts failed operations plus correctness mismatches.
func (m *measurement) failed() int {
	n := len(m.problems)
	for _, p := range m.phases {
		n += p.failed
	}
	return n
}

// correct reports whether every output checked out and every phase is
// valid.
func (m *measurement) correct() bool {
	if len(m.problems) > 0 {
		return false
	}
	for _, p := range m.phases {
		if p.invalid != "" {
			return false
		}
	}
	return true
}

// endToEnd is the --trace 0 metric set.
func (m *measurement) endToEnd() map[string]metric {
	done, _ := percentile(m.done, 0.50)
	return map[string]metric{
		"setup_s":      {median(m.setup), "s"},
		"done_ms_p50":  {finite(done), "ms"},
		"jobs_per_s":   {m.jobsPerS, "1/s"},
		"rounds_per_s": {m.roundsPerS, "1/s"},
		"rss_peak_mb":  {m.rss, "MB"},
	}
}

// report prints the human-readable account of the run.
func (m *measurement) report(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s  seed=%d  measured=%s\n", title, m.seed, m.dur)
	fmt.Fprintf(w, "set-up: median %.4fs over %d (", median(m.setup), len(m.setup))
	for i, s := range m.setup {
		if i > 0 {
			fmt.Fprint(w, " ")
		}
		fmt.Fprintf(w, "%.4f", s)
	}
	fmt.Fprintln(w, ")")
	for _, p := range m.phases {
		status := "valid"
		if p.invalid != "" {
			status = "INVALID: " + p.invalid
		}
		fmt.Fprintf(w, "phase %-10s attempted %6d  succeeded %6d  failed %4d  %s\n",
			p.name, p.attempted, p.succeeded, p.failed, status)
	}
	if m.late != nil {
		fmt.Fprintf(w, "generator lateness: p50 %.3fms  p99 %.3fms  max %.3fms over %d ops\n",
			ms(m.late.p50), ms(m.late.p99), ms(m.late.max), m.late.n)
	}
	printDist(w, "ack (due -> 202)", m.ack)
	printDist(w, "done (due -> durable result)", m.done)
	fmt.Fprintf(w, "throughput: %.2f jobs/s  %.0f rounds/s\n", m.jobsPerS, m.roundsPerS)
	if len(m.digests) > 0 {
		fmt.Fprintf(w, "campaign cycles: %d, transcript digests %v\n", len(m.digests), m.digests)
		fmt.Fprint(w, "cycle rounds/s:")
		for _, r := range m.cycleRates {
			fmt.Fprintf(w, " %.4g", r)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "peak RSS: %.1f MB\n", m.rss)
	for _, p := range m.problems {
		fmt.Fprintln(w, "MISMATCH:", p)
	}
}

// printDist prints a latency distribution as its median and the highest
// percentile with at least minBeyond samples beyond it.
func printDist(w io.Writer, label string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	p50, _ := percentile(xs, 0.50)
	fmt.Fprintf(w, "%s: p50 %.3fms", label, p50)
	if l, v, ok := highestSupported(xs); ok && l != "p50" {
		fmt.Fprintf(w, "  %s %.3fms", l, v)
	}
	inf := 0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			inf++
		}
	}
	fmt.Fprintf(w, "  (n=%d, failed=%d)\n", len(xs), inf)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
