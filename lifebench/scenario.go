// The scenario-stream workload: many tiny, quiet chaos scenarios, so
// the request, store, scheduler and fan-out layers carry the cost and
// compute is negligible. Phase A is an open loop at a fixed rate, timed
// from each operation's due time; phase B is a closed loop on the same
// two connections, for capacity.

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/jobs"
	"aft/internal/pubsub"
	"aft/internal/redundancy"
	"aft/internal/scenario"
)

// Stream shape. Phase A offers streamRate operations per second: of
// them getShare are GET /jobs/{id} (one per four submissions) and the
// rest submissions, resubmitShare of which are identical resubmits
// (one in five). That is about 200 submissions/s, 160 of them new jobs:
// well below the 450-1,250 jobs/s phase B measures on a 2-core VM with
// the store on disk, so the open loop measures latency, not saturation.
const (
	streamRate    = 250.0
	getShare      = 0.20
	resubmitShare = 0.16 // of all operations: 0.8 × one in five
	// resubmitGap keeps a resubmit at least this many new jobs behind
	// the newest, so it usually finds its job already acknowledged.
	resubmitGap = 8
	// phaseAShare is phase A's part of the measured time; B gets the
	// rest, but stops early once phaseBJobs new jobs have been sent, so
	// a run's work (and so its memory and disk churn) is fixed.
	phaseAShare = 0.6
	phaseBJobs  = 3000
	// phaseBWindow is how many completions one throughput window
	// spans; phase B reports the median window.
	phaseBWindow = 500
	// scenarioSample is how many jobs are re-run through the library
	// for a byte-for-byte comparison.
	scenarioSample = 32
)

// horizons are the scenario lengths the stream draws from.
var horizons = []int64{200, 500, 2000}

// priorities are the scheduler classes the jobs spread over.
var priorities = []string{"high", "normal", "low"}

// clients is how many client IDs the jobs spread over.
const clients = 8

// opKind is what a stream operation does.
type opKind int

const (
	opNew      opKind = iota // submit a new job
	opResubmit               // resubmit an identical spec (a dedup read)
	opGet                    // GET /jobs/{id}
)

// streamOp is one generated operation.
type streamOp struct {
	kind    opKind
	id      string // the job it creates or targets
	body    []byte // submission JSON
	spec    jobs.Spec
	horizon int64
}

// streamGen generates the operation sequence from the seed.
type streamGen struct {
	mu   sync.Mutex
	rng  *rand.Rand
	news []streamOp
}

func newStreamGen(seed uint64) *streamGen {
	return &streamGen{rng: rand.New(rand.NewPCG(seed, 0x6c69666562656e63))}
}

// next returns the next operation.
func (g *streamGen) next() (streamOp, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r := g.rng.Float64()
	switch {
	case r < getShare && len(g.news) > 0:
		t := g.news[g.rng.IntN(len(g.news))]
		return streamOp{kind: opGet, id: t.id}, nil
	case r < getShare+resubmitShare && len(g.news) > resubmitGap:
		t := g.news[g.rng.IntN(len(g.news)-resubmitGap)]
		t.kind = opResubmit
		return t, nil
	}
	h := horizons[g.rng.IntN(len(horizons))]
	spec := jobs.Spec{
		Kind:     jobs.KindScenario,
		Client:   fmt.Sprintf("client-%d", g.rng.IntN(clients)),
		Priority: priorities[g.rng.IntN(len(priorities))],
		Scenario: &jobs.ScenarioSpec{Spec: &scenario.Spec{
			Name:    "lifebench",
			Seed:    g.rng.Uint64(),
			Horizon: h,
			Organ:   true,
			Policy:  redundancy.DefaultPolicy(),
			Phases:  []scenario.Phase{{Name: "quiet", Start: 0, Model: scenario.ModelSpec{Kind: "never"}}},
		}},
	}
	op, err := newSubmission(spec)
	if err != nil {
		return op, err
	}
	op.horizon = h
	g.news = append(g.news, op)
	return op, nil
}

// newSubmission encodes a spec and computes its content address.
func newSubmission(spec jobs.Spec) (streamOp, error) {
	id, err := spec.ID()
	if err != nil {
		return streamOp{}, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return streamOp{}, err
	}
	return streamOp{kind: opNew, id: id, body: body, spec: spec}, nil
}

// opRec is one operation's outcome.
type opRec struct {
	op                     streamOp
	due, sent, acked, done time.Time
	code                   int
	deduped                bool
	err                    error
	res                    *jobs.Result // terminal result of a new job
}

// ok reports whether the operation got the answer it should.
func (o *opRec) ok() bool {
	if o.err != nil {
		return false
	}
	switch o.op.kind {
	case opNew:
		return o.res != nil && o.res.State == jobs.StateDone
	case opResubmit:
		return o.code == http.StatusOK || o.code == http.StatusAccepted
	default:
		return o.code == http.StatusOK
	}
}

// stream carries one scenario-stream run's shared state.
type stream struct {
	r       *rig
	waiters sync.WaitGroup
	ctx     context.Context
}

// perform sends one operation and, for a new job, arranges for its
// durable result to be observed: by a waiter goroutine in the open
// loop (wait false), inline in the closed loop (wait true).
func (s *stream) perform(rec *opRec, wait bool) {
	tr := s.r.tr
	var rootID, clientID uint64
	if tr != nil {
		rootID, clientID = tr.id(), tr.id()
	}
	rec.sent = time.Now()
	name := "client.get_status"
	switch rec.op.kind {
	case opGet:
		var data []byte
		rec.code, data, rec.err = s.r.do(http.MethodGet, "/jobs/"+rec.op.id, nil, rec.op.id, clientID)
		rec.acked = time.Now()
		var st jobs.Status
		if rec.err == nil && rec.code == http.StatusOK {
			if err := json.Unmarshal(data, &st); err != nil || st.ID != rec.op.id {
				rec.err = fmt.Errorf("GET /jobs/%s: bad status reply %q", rec.op.id, data)
			}
		}
	default:
		name = "client.submit"
		if rec.op.kind == opResubmit {
			name = "client.resubmit"
		}
		var reply jobs.SubmitReply
		reply, rec.code, rec.err = s.r.submit(rec.op.body, rec.op.id, clientID)
		rec.acked = time.Now()
		rec.deduped = reply.Deduped
		if rec.err == nil && reply.ID != rec.op.id {
			rec.err = fmt.Errorf("submit answered for job %s, want %s", reply.ID, rec.op.id)
		}
	}
	if tr != nil {
		parent := uint64(0)
		if rec.op.kind == opNew {
			parent = rootID
		}
		tr.add(span{Trace: rec.op.id, ID: clientID, Parent: parent, Name: name,
			Start: tr.at(rec.sent), End: tr.at(rec.acked), Status: rec.code})
	}
	if rec.op.kind != opNew || rec.err != nil {
		return
	}
	observe := func() {
		res, err := s.r.srv.Wait(s.ctx, rec.op.id)
		rec.done = time.Now()
		if err != nil {
			rec.err = err
			return
		}
		rec.res = res
		if tr != nil {
			tr.add(span{Trace: rec.op.id, ID: rootID, Name: "job.lifecycle",
				Start: tr.at(rec.due), End: tr.at(rec.done)})
		}
	}
	if wait {
		observe()
		return
	}
	s.waiters.Add(1)
	go func() {
		defer s.waiters.Done()
		observe()
	}()
}

// scenarioStream is the scenario-stream workload body.
func scenarioStream(m *measurement, r *rig) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	s := &stream{r: r, ctx: ctx}
	gen := newStreamGen(m.seed)
	if r.tr != nil {
		sub := watchFanout(m, r)
		defer r.srv.EventBus().Unsubscribe(sub)
	}

	// Phase A: open loop. Every operation is generated up front, then
	// two senders fire them at their due times.
	sched := schedule{rate: streamRate, dur: time.Duration(float64(m.dur) * phaseAShare)}
	recs := make([]opRec, sched.count())
	for i := range recs {
		op, err := gen.next()
		if err != nil {
			return err
		}
		recs[i].op = op
	}
	if r.tr != nil {
		var err error
		if m.scrapeBefore, err = r.metricz(); err != nil {
			return err
		}
	}
	var next atomic.Int64
	var senders sync.WaitGroup
	start := time.Now()
	for range loadConns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				rec := &recs[i]
				rec.due = start.Add(sched.due(i))
				time.Sleep(time.Until(rec.due))
				s.perform(rec, false)
			}
		}()
	}
	senders.Wait()
	s.waiters.Wait()
	if r.tr != nil {
		var err error
		if m.scrapeAfter, err = r.metricz(); err != nil {
			return err
		}
	}
	late := make([]time.Duration, len(recs))
	for i := range recs {
		late[i] = recs[i].sent.Sub(recs[i].due)
		if recs[i].op.kind == opNew {
			m.ack = append(m.ack, latencyMS(&recs[i], recs[i].acked))
			m.done = append(m.done, latencyMS(&recs[i], recs[i].done))
			if r.tr != nil && recs[i].ok() {
				m.fanoutLag(recs[i].op.id, recs[i].done)
			}
		}
	}
	l := summarizeLateness(late)
	m.late = &l
	pa := account("A-open", recs)
	if l.fellBehind() {
		pa.invalid = fmt.Sprintf("generator fell behind its %.0f ops/s schedule (lateness p50 %.1fms, p99 %.1fms)",
			streamRate, ms(l.p50), ms(l.p99))
	}
	m.phases = append(m.phases, pa)

	// Phase B: closed loop. Each sender waits for its new job's durable
	// result before sending the next operation.
	var mu sync.Mutex
	var recsB []*opRec
	var newB atomic.Int64
	startB := time.Now()
	deadline := startB.Add(m.dur - sched.dur)
	for range loadConns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for time.Now().Before(deadline) {
				op, err := gen.next()
				if err == nil && op.kind == opNew && newB.Add(1) > phaseBJobs {
					return
				}
				rec := &opRec{op: op, err: err, due: time.Now()}
				if err == nil {
					s.perform(rec, true)
				}
				mu.Lock()
				recsB = append(recsB, rec)
				mu.Unlock()
			}
		}()
	}
	senders.Wait()
	flatB := make([]opRec, len(recsB))
	var finished []completion
	for i, rec := range recsB {
		flatB[i] = *rec
		if rec.op.kind == opNew && rec.ok() {
			finished = append(finished, completion{rec.done, float64(rec.res.Rounds)})
		}
	}
	m.jobsPerS, m.roundsPerS = windowedRates(startB, finished, phaseBWindow)
	m.phases = append(m.phases, account("B-closed", flatB))

	checkStream(m, r, append(recs, flatB...))
	if r.tr == nil {
		return nil
	}
	return replayStore(r, newIDs(recs))
}

// completion is one job's durable result: when, and how many rounds.
type completion struct {
	at     time.Time
	rounds float64
}

// windowedRates sorts completions by time, splits them into consecutive
// windows of n jobs (the last, partial window is dropped unless it is
// the only one) and
// returns the median window's jobs and rounds per second, so a stall in
// one stretch of the run moves the figure only as much as the median
// moves.
func windowedRates(start time.Time, done []completion, n int) (jobsPerS, roundsPerS float64) {
	sort.Slice(done, func(i, j int) bool { return done[i].at.Before(done[j].at) })
	var jobs, rounds []float64
	from := start
	for lo := 0; lo < len(done); lo += n {
		hi := lo + n
		if hi > len(done) {
			if lo > 0 {
				break
			}
			hi = len(done)
		}
		secs := done[hi-1].at.Sub(from).Seconds()
		var r float64
		for _, c := range done[lo:hi] {
			r += c.rounds
		}
		jobs = append(jobs, float64(hi-lo)/secs)
		rounds = append(rounds, r/secs)
		from = done[hi-1].at
	}
	return median(jobs), median(rounds)
}

// latencyMS is the time from an operation's due time to t, or +Inf
// when the operation failed.
func latencyMS(rec *opRec, t time.Time) float64 {
	if !rec.ok() {
		return math.Inf(1)
	}
	return ms(t.Sub(rec.due))
}

// account tallies a phase's operations.
func account(name string, recs []opRec) phase {
	p := phase{name: name, attempted: len(recs)}
	for i := range recs {
		if recs[i].ok() {
			p.succeeded++
		} else {
			p.failed++
		}
	}
	return p
}

// newIDs lists the jobs the operations created, in order.
func newIDs(recs []opRec) []string {
	var ids []string
	for i := range recs {
		if recs[i].op.kind == opNew && recs[i].ok() {
			ids = append(ids, recs[i].op.id)
		}
	}
	return ids
}

// checkStream verifies the stream's outputs: every job done with a
// transcript, exactly one dedup per repeated submission, and a seeded
// sample identical byte for byte to jobs.ExecuteScenario run directly.
func checkStream(m *measurement, r *rig, recs []opRec) {
	checkDedup(m, recs)
	var news []*opRec
	for i := range recs {
		rec := &recs[i]
		if rec.op.kind != opNew {
			continue
		}
		if rec.err != nil {
			m.problem("job %s: %v", rec.op.id, rec.err)
			continue
		}
		if rec.res == nil || rec.res.State != jobs.StateDone || rec.res.Transcript == "" {
			m.problem("job %s did not end done with a transcript", rec.op.id)
			continue
		}
		news = append(news, rec)
	}
	if len(news) == 0 {
		m.problem("no job completed")
		return
	}
	rng := rand.New(rand.NewPCG(m.seed, 0x73616d706c65))
	for k := 0; k < scenarioSample; k++ {
		rec := news[rng.IntN(len(news))]
		got, err := r.result(rec.op.id)
		if err != nil {
			m.problem("%v", err)
			continue
		}
		want := jobs.ExecuteScenario(rec.op.id, rec.op.spec.Scenario)
		if !sameResult(got, want, true) {
			m.problem("job %s: served result differs from jobs.ExecuteScenario", rec.op.id)
		}
	}
}

// checkDedup checks that repeated submissions of a spec got exactly one
// dedup reply each (whichever of them reached the server second), and
// that every status read succeeded.
func checkDedup(m *measurement, recs []opRec) {
	submissions, dedups := 0, 0
	distinct := map[string]bool{}
	for i := range recs {
		rec := &recs[i]
		switch {
		case rec.op.kind == opGet:
			if rec.err != nil || rec.code != http.StatusOK {
				m.problem("GET /jobs/%s: status %d, %v", rec.op.id, rec.code, rec.err)
			}
		case rec.err != nil:
			if rec.op.kind == opResubmit {
				m.problem("resubmit of %s: %v", rec.op.id, rec.err)
			}
		default:
			submissions++
			distinct[rec.op.id] = true
			if rec.deduped {
				dedups++
			}
		}
	}
	if want := submissions - len(distinct); dedups != want {
		m.problem("%d submissions of %d distinct specs were answered with %d dedups, want %d",
			submissions, len(distinct), dedups, want)
	}
}

// sameResult compares two results byte for byte in their JSON form;
// withSummary false leaves the kind-specific summary out (a fleet
// campaign's summary notes that shards resumed, which a direct run
// does not).
func sameResult(got, want *jobs.Result, withSummary bool) bool {
	g, w := *got, *want
	if !withSummary {
		g.Summary, w.Summary = nil, nil
	}
	gb, err1 := json.Marshal(g)
	wb, err2 := json.Marshal(w)
	return err1 == nil && err2 == nil && bytes.Equal(gb, wb)
}

// watchFanout subscribes to every job's events on the server's bus and
// records when each job's terminal event was delivered.
func watchFanout(m *measurement, r *rig) *pubsub.Subscription {
	m.fanoutRecv = map[string]time.Time{}
	return r.srv.EventBus().Subscribe("jobs/*", func(msg pubsub.Message) {
		st, ok := msg.Payload.(jobs.Status)
		if !ok || !st.State.Terminal() {
			return
		}
		now := time.Now()
		m.fanoutMu.Lock()
		if _, seen := m.fanoutRecv[st.ID]; !seen {
			m.fanoutRecv[st.ID] = now
		}
		m.fanoutMu.Unlock()
	})
}

// fanoutLag records how long after a job's durable result (the return
// of Server.Wait, which wakes when the result is written) the bus
// delivered its terminal event.
func (m *measurement) fanoutLag(id string, done time.Time) {
	m.fanoutMu.Lock()
	defer m.fanoutMu.Unlock()
	if recv, ok := m.fanoutRecv[id]; ok {
		m.fanoutLags = append(m.fanoutLags, ms(recv.Sub(done)))
	}
}
