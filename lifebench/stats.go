// Pure helpers: percentiles with a sample-count rule, the open-loop
// schedule and its lateness, self-time subtraction over span intervals,
// and Prometheus text parsing. Nothing here touches the clock, the
// network or the disk, so stats_test.go pins each one exactly.

package main

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: a p99 over 200 samples rests on two observations, which
// is noise, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether it
// is supported by at least minBeyond samples above it. +Inf samples (a
// refused or failed request) sort last, so they count as misses of any
// latency limit.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-(i+1) >= minBeyond
}

// median is the plain middle value (mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// highestSupported returns the highest of the standard percentiles
// (p99.9 down to p50) that has minBeyond samples beyond it, for the
// human-readable report; ok is false when even the median lacks them.
func highestSupported(xs []float64) (label string, v float64, ok bool) {
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}, {"p75", 0.75}, {"p50", 0.50}} {
		if v, ok := percentile(xs, p.q); ok {
			return p.label, v, true
		}
	}
	return "", 0, false
}

// schedule is an open-loop arrival plan: operation i is due at i/rate
// seconds after the phase starts, whether or not earlier operations
// have been answered.
type schedule struct {
	rate float64       // operations per second
	dur  time.Duration // phase length
}

// count is the number of operations due within the phase.
func (s schedule) count() int {
	return int(math.Ceil(s.dur.Seconds() * s.rate))
}

// due is operation i's offset from the phase start.
func (s schedule) due(i int) time.Duration {
	return time.Duration(float64(i) / s.rate * float64(time.Second))
}

// lateness summarises how far behind its schedule an open-loop
// generator sent: each entry is sent-minus-due for one operation.
type lateness struct {
	p50, p99, max time.Duration
	n             int
}

// summarizeLateness reduces per-operation send delays (negative delays,
// an operation sent early, count as zero).
func summarizeLateness(late []time.Duration) lateness {
	xs := make([]float64, len(late))
	var mx time.Duration
	for i, d := range late {
		if d < 0 {
			d = 0
		}
		xs[i] = float64(d)
		if d > mx {
			mx = d
		}
	}
	p50, _ := percentile(xs, 0.50)
	p99, _ := percentile(xs, 0.99)
	return lateness{p50: time.Duration(p50), p99: time.Duration(p99), max: mx, n: len(late)}
}

// Limits past which an open-loop phase is invalid: if the median
// operation left more than behindP50 late, or the p99 more than
// behindP99, the generator did not offer the load the phase claims, so
// its latencies describe a lighter load than the rate on its label.
const (
	behindP50 = 10 * time.Millisecond
	behindP99 = time.Second
)

// fellBehind reports whether the generator missed its schedule badly
// enough to invalidate the phase.
func (l lateness) fellBehind() bool {
	return l.p50 > behindP50 || l.p99 > behindP99
}

// interval is a half-open [start, end) stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it that its
// children's intervals cover. Children are clipped to the parent and
// overlapping children are merged, so concurrent children never
// subtract the same nanosecond twice.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	covered := int64(0)
	curStart, curEnd := int64(0), int64(0)
	open := false
	for _, c := range clipped {
		if open && c.start <= curEnd {
			if c.end > curEnd {
				curEnd = c.end
			}
			continue
		}
		if open {
			covered += curEnd - curStart
		}
		curStart, curEnd, open = c.start, c.end, true
	}
	if open {
		covered += curEnd - curStart
	}
	return (parent.end - parent.start) - covered
}

// promHistogram is one histogram family parsed from the Prometheus text
// exposition: cumulative counts at ascending upper bounds (the last
// bound is +Inf).
type promHistogram struct {
	bounds     []float64
	cumulative []int64
	count      int64
	sum        float64
}

// promScrape is a parsed /metricz body.
type promScrape struct {
	scalars    map[string]float64
	histograms map[string]*promHistogram
}

// parseProm parses the subset of the Prometheus 0.0.4 text format that
// metrics.Registry emits: # comments, "name value" scalars, and
// name_bucket{le="x"} / name_sum / name_count histogram series.
func parseProm(text string) (promScrape, error) {
	out := promScrape{scalars: map[string]float64{}, histograms: map[string]*promHistogram{}}
	hist := func(name string) *promHistogram {
		h := out.histograms[name]
		if h == nil {
			h = &promHistogram{}
			out.histograms[name] = h
		}
		return h
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		sp := strings.LastIndexByte(l, ' ')
		if sp < 0 {
			return out, fmt.Errorf("metricz line %d: no value: %q", line, l)
		}
		key, raw := l[:sp], l[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return out, fmt.Errorf("metricz line %d: bad value %q", line, raw)
		}
		switch {
		case strings.Contains(key, "_bucket{le=\""):
			i := strings.Index(key, "_bucket{le=\"")
			le := strings.TrimSuffix(key[i+len("_bucket{le=\""):], "\"}")
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return out, fmt.Errorf("metricz line %d: bad bucket bound %q", line, le)
				}
			}
			h := hist(key[:i])
			if n := len(h.bounds); n > 0 && bound <= h.bounds[n-1] {
				return out, fmt.Errorf("metricz line %d: bucket bounds not ascending", line)
			}
			h.bounds = append(h.bounds, bound)
			h.cumulative = append(h.cumulative, int64(v))
		case strings.HasSuffix(key, "_sum") && out.histograms[strings.TrimSuffix(key, "_sum")] != nil:
			hist(strings.TrimSuffix(key, "_sum")).sum = v
		case strings.HasSuffix(key, "_count") && out.histograms[strings.TrimSuffix(key, "_count")] != nil:
			hist(strings.TrimSuffix(key, "_count")).count = int64(v)
		default:
			out.scalars[key] = v
		}
	}
	return out, sc.Err()
}

// delta returns the histogram of observations made between an earlier
// scrape and this one (bucket layouts must match).
func (h *promHistogram) delta(before *promHistogram) (*promHistogram, error) {
	if before == nil {
		return h, nil
	}
	if len(before.bounds) != len(h.bounds) {
		return nil, fmt.Errorf("histogram bucket layout changed between scrapes")
	}
	d := &promHistogram{
		bounds:     h.bounds,
		cumulative: make([]int64, len(h.cumulative)),
		count:      h.count - before.count,
		sum:        h.sum - before.sum,
	}
	for i := range h.cumulative {
		d.cumulative[i] = h.cumulative[i] - before.cumulative[i]
	}
	return d, nil
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket holding the target rank (the histogram_quantile rule), with the
// same sample-count rule as percentile. A target in the +Inf bucket
// reports the last finite bound.
func (h *promHistogram) quantile(q float64) (float64, bool) {
	n := len(h.cumulative)
	if n == 0 || h.cumulative[n-1] == 0 {
		return 0, false
	}
	total := h.cumulative[n-1]
	rank := q * float64(total)
	ok := float64(total)-math.Ceil(rank) >= minBeyond
	for i, c := range h.cumulative {
		if float64(c) < rank {
			continue
		}
		lo, below := 0.0, int64(0)
		if i > 0 {
			lo, below = h.bounds[i-1], h.cumulative[i-1]
		}
		hi := h.bounds[i]
		if math.IsInf(hi, 1) {
			return lo, ok
		}
		inBucket := c - below
		if inBucket == 0 {
			return hi, ok
		}
		return lo + (hi-lo)*(rank-float64(below))/float64(inBucket), ok
	}
	return h.bounds[n-1], ok
}
