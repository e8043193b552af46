package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"aft/internal/metrics"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{100, 0.99, 99, false}, // one sample beyond: a p99 of noise
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1, 0.50, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	xs := seq(30)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1) // refused requests
	}
	if got, _ := percentile(xs, 0.5); !math.IsInf(got, 1) {
		t.Errorf("median with 20 of 30 requests failed = %v, want +Inf", got)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat32 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}

func TestMedianAndHighestSupported(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if l, v, ok := highestSupported(seq(200)); !ok || l != "p95" || v != 190 {
		t.Errorf("highestSupported(1..200) = %s %v %v, want p95 190", l, v, ok)
	}
	if _, _, ok := highestSupported(seq(5)); ok {
		t.Error("highestSupported of 5 samples reported ok")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("no children: self %d, want 100", got)
	}
	// Overlapping children count once; children sticking out of the
	// parent are clipped to it.
	children := []interval{{10, 30}, {20, 40}, {90, 120}, {-5, 5}, {50, 50}}
	if got := selfTime(parent, children); got != 55 {
		t.Errorf("self %d, want 55 (100 - [0,5) - [10,40) - [90,100))", got)
	}
	if got := selfTime(parent, []interval{{-10, 200}}); got != 0 {
		t.Errorf("fully covered: self %d, want 0", got)
	}
}

func TestSelfTimesByLayer(t *testing.T) {
	spans := []span{
		{Trace: "j1", ID: 1, Name: "job.lifecycle", Start: 0, End: 100},
		{Trace: "j1", ID: 2, Parent: 1, Name: "client.submit", Start: 0, End: 10},
		{Trace: "j1", ID: 3, Parent: 2, Name: "http.post_jobs", Start: 2, End: 8},
		// A fleet call has no parent; it hangs under its job's root.
		{Trace: "j1", ID: 4, Name: "worker.upload", Start: 50, End: 70},
		{Trace: "j1", ID: 5, Parent: 4, Name: "http.upload", Start: 55, End: 65},
	}
	want := map[string]int64{"job": 70, "client": 4, "http": 16, "worker": 10}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Fatalf("layers %+v, want %v", got, want)
	}
	for _, ls := range got {
		if ls.self != want[ls.layer] {
			t.Errorf("layer %s self %d, want %d", ls.layer, ls.self, want[ls.layer])
		}
	}
}

func TestParsePromRoundTripsRegistry(t *testing.T) {
	reg := &metrics.Registry{}
	var c metrics.AtomicCounter
	c.Add(7)
	reg.RegisterCounter("aft_jobs_deduped_total", &c)
	h := metrics.NewHistogram(metrics.DefLatencyBuckets())
	for _, v := range []float64{0.0005, 0.002, 0.002, 0.3, 500} {
		h.Observe(v)
	}
	reg.RegisterHistogram("aft_queue_wait_seconds", h)

	s, err := parseProm(reg.Prometheus())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.scalars["aft_jobs_deduped_total"]; got != 7 {
		t.Errorf("counter = %v, want 7", got)
	}
	ph := s.histograms["aft_queue_wait_seconds"]
	if ph == nil {
		t.Fatal("histogram missing")
	}
	if ph.count != 5 || math.Abs(ph.sum-500.3045) > 1e-9 {
		t.Errorf("count %d sum %v, want 5 and 500.3045", ph.count, ph.sum)
	}
	if n := len(ph.bounds); n != len(metrics.DefLatencyBuckets())+1 || !math.IsInf(ph.bounds[n-1], 1) {
		t.Fatalf("bounds %v", ph.bounds)
	}
	if ph.cumulative[0] != 1 || ph.cumulative[1] != 3 || ph.cumulative[len(ph.cumulative)-1] != 5 {
		t.Errorf("cumulative %v", ph.cumulative)
	}
	if _, err := parseProm("aft_x notanumber\n"); err == nil {
		t.Error("bad value parsed")
	}
}

func TestHistogramQuantileAndDelta(t *testing.T) {
	h := &promHistogram{
		bounds:     []float64{1, 2, 4, math.Inf(1)},
		cumulative: []int64{10, 30, 40, 40},
		count:      40,
	}
	if q, ok := h.quantile(0.5); q != 1.5 || !ok {
		t.Errorf("p50 = %v, %v; want 1.5 interpolated, true", q, ok)
	}
	if q, ok := h.quantile(0.99); math.Abs(q-3.92) > 1e-9 || ok {
		t.Errorf("p99 = %v, %v; want 3.92, false (no samples beyond)", q, ok)
	}
	inf := &promHistogram{bounds: []float64{1, math.Inf(1)}, cumulative: []int64{0, 50}}
	if q, _ := inf.quantile(0.5); q != 1 {
		t.Errorf("quantile in +Inf bucket = %v, want the last finite bound 1", q)
	}
	before := &promHistogram{bounds: h.bounds, cumulative: []int64{10, 10, 10, 10}, count: 10}
	d, err := h.delta(before)
	if err != nil {
		t.Fatal(err)
	}
	if d.count != 30 || d.cumulative[0] != 0 || d.cumulative[3] != 30 {
		t.Errorf("delta %+v", d)
	}
	if _, err := h.delta(&promHistogram{bounds: []float64{1}}); err == nil {
		t.Error("delta across bucket layouts accepted")
	}
}

func TestScheduleAndLateness(t *testing.T) {
	s := schedule{rate: 250, dur: 12 * time.Second}
	if s.count() != 3000 {
		t.Errorf("count %d, want 3000", s.count())
	}
	if s.due(0) != 0 || s.due(250) != time.Second || s.due(1) != 4*time.Millisecond {
		t.Errorf("due(0,1,250) = %v %v %v", s.due(0), s.due(1), s.due(250))
	}

	onTime := make([]time.Duration, 100)
	for i := range onTime {
		onTime[i] = time.Duration(i%3) * 100 * time.Microsecond
	}
	onTime[7] = -time.Millisecond // sent early counts as on time
	l := summarizeLateness(onTime)
	if l.fellBehind() || l.max != 200*time.Microsecond || l.n != 100 {
		t.Errorf("on-time generator: %+v behind=%v", l, l.fellBehind())
	}

	// A generator whose backlog grows: operation i leaves i*30ms late.
	growing := make([]time.Duration, 100)
	for i := range growing {
		growing[i] = time.Duration(i) * 30 * time.Millisecond
	}
	if l := summarizeLateness(growing); !l.fellBehind() {
		t.Errorf("growing backlog not flagged: %+v", l)
	}
	// One stall that the generator recovers from stays valid.
	stall := make([]time.Duration, 200)
	stall[50] = 400 * time.Millisecond
	if l := summarizeLateness(stall); l.fellBehind() {
		t.Errorf("a single recovered stall flagged: %+v", l)
	}
}

func TestWindowedRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) completion {
		return completion{at: t0.Add(time.Duration(ms) * time.Millisecond), rounds: 10}
	}
	var done []completion
	for i := 1; i <= 500; i++ { // window 1: 500 jobs in 0.5s
		done = append(done, at(i))
	}
	for i := 1; i <= 500; i++ { // window 2, slow: 500 jobs in 2s
		done = append(done, at(500+4*i))
	}
	for i := 1; i <= 100; i++ { // a partial window, dropped
		done = append(done, at(2500+i))
	}
	done[0], done[len(done)-1] = done[len(done)-1], done[0] // any order
	jobs, rounds := windowedRates(t0, done, 500)
	if jobs != 625 || rounds != 6250 {
		t.Errorf("rates %v jobs/s %v rounds/s, want the median of 1000 and 250 (625, 6250)", jobs, rounds)
	}
	if jobs, _ := windowedRates(t0, []completion{at(100), at(300), at(200)}, 500); jobs != 10 {
		t.Errorf("a single partial window: %v jobs/s, want 3 jobs in 0.3s = 10", jobs)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json
// in step with the metrics this command prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the command does not run", w.Name)
		}
	}
	e2e := (&measurement{}).endToEnd()
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v, %v", m.Name, m.Unit, got, ok)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for _, m := range b.PerLayer {
		lm, ok := findLayerMetric(m.Name)
		if !ok || lm.unit != m.Unit || lm.better != m.Better {
			t.Errorf("per-layer %s (%s, %s): table has %+v, %v", m.Name, m.Unit, m.Better, lm, ok)
		}
	}
}
