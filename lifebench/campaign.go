// The campaign workloads: 16 seeded Fig. 7 campaigns of 4M rounds,
// submitted at once, in cycles until the measured time is used. On
// campaign-local the server's own 2-worker pool runs them with the
// default 100k-round checkpoint cadence, so the engine dominates; on
// campaign-fleet the server is a pure coordinator and two in-process
// fleet workers lease 200k-round shards over HTTP and upload a verified
// checkpoint every 20k rounds, which stresses the lease, upload and
// checkpoint layers. Both run the same population for a given seed, so
// their transcripts must match.

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
	"aft/internal/jobs"
)

// Campaign shape.
const (
	campaignsPerCycle = 16
	campaignRounds    = 4_000_000
	// localCheckpointEvery is the server's default cadence, spelled out
	// for the traced replay.
	localCheckpointEvery = 100_000
	fleetShardRounds     = 200_000
	fleetCheckpointEvery = 20_000
	// campaignSample is how many campaigns are re-run through the
	// library for a byte-for-byte comparison.
	campaignSample = 2
)

// campaignSpecs is cycle k's population: distinct seeds derived from
// the workload seed, spread over the clients and priorities.
func campaignSpecs(seed uint64, cycle int) []jobs.Spec {
	rng := rand.New(rand.NewPCG(seed, uint64(cycle)+0x63616d70))
	specs := make([]jobs.Spec, campaignsPerCycle)
	for i := range specs {
		cfg := experiments.DefaultFig7Config(campaignRounds)
		cfg.Seed = rng.Uint64()
		specs[i] = jobs.Spec{
			Kind:     jobs.KindCampaign,
			Client:   fmt.Sprintf("client-%d", i%clients),
			Priority: priorities[i%len(priorities)],
			Campaign: &cfg,
		}
	}
	return specs
}

// campaignLocal is the campaign-local workload body.
func campaignLocal(m *measurement, r *rig) error { return campaigns(m, r, localCheckpointEvery) }

// campaignFleet is the campaign-fleet workload body.
func campaignFleet(m *measurement, r *rig) error { return campaigns(m, r, fleetCheckpointEvery) }

// campaigns runs cycles of the population until the next cycle would
// overrun the measured time (at least one cycle always runs), and
// reports the median cycle's throughput.
func campaigns(m *measurement, r *rig, every int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if r.tr != nil {
		sub := watchFanout(m, r)
		defer r.srv.EventBus().Unsubscribe(sub)
		var err error
		if m.scrapeBefore, err = r.metricz(); err != nil {
			return err
		}
	}
	var all []opRec
	var elapsed, last time.Duration
	var cycleJobs, cycleRounds []float64
	for cycle := 0; cycle == 0 || elapsed+last <= m.dur; cycle++ {
		start := time.Now()
		recs, err := campaignCycle(ctx, m, r, cycle)
		if err != nil {
			return err
		}
		last = time.Since(start)
		elapsed += last
		h := sha256.New()
		var jobsDone, rounds float64
		for i := range recs {
			rec := &recs[i]
			if rec.op.kind != opNew {
				continue
			}
			m.ack = append(m.ack, latencyMS(rec, rec.acked))
			m.done = append(m.done, latencyMS(rec, rec.done))
			if rec.ok() {
				jobsDone++
				rounds += float64(rec.res.Rounds)
				h.Write([]byte(rec.res.Transcript))
				if r.tr != nil {
					m.fanoutLag(rec.op.id, rec.done)
				}
			}
		}
		cycleJobs = append(cycleJobs, jobsDone/last.Seconds())
		cycleRounds = append(cycleRounds, rounds/last.Seconds())
		m.digests = append(m.digests, hex.EncodeToString(h.Sum(nil))[:16])
		m.phases = append(m.phases, account("cycle-"+strconv.Itoa(cycle), recs))
		all = append(all, recs...)
	}
	if r.tr != nil {
		var err error
		if m.scrapeAfter, err = r.metricz(); err != nil {
			return err
		}
	}
	// The median cycle, so one disturbed cycle does not set the figure.
	m.jobsPerS, m.roundsPerS = median(cycleJobs), median(cycleRounds)
	m.cycleRates = cycleRounds
	if err := checkCampaigns(m, r, all, every); err != nil {
		return err
	}
	if r.tr != nil {
		return replayStore(r, newIDs(all))
	}
	return nil
}

// campaignCycle submits one cycle's 16 campaigns at once from two
// senders and waits for every durable result. Beside the compute, each
// sender then repeats the mix of the request path: one identical
// resubmit per four new campaigns (a dedup read) and one status read
// per four submissions.
func campaignCycle(ctx context.Context, m *measurement, r *rig, cycle int) ([]opRec, error) {
	specs := campaignSpecs(m.seed, cycle)
	recs := make([]opRec, len(specs))
	for i, spec := range specs {
		op, err := newSubmission(spec)
		if err != nil {
			return nil, err
		}
		recs[i].op = op
	}
	var reads [loadConns][]opRec
	for i := range recs {
		k := i % loadConns
		// Four resubmits and five reads per 16 campaigns, alternating
		// between the senders; each sender repeats only its own jobs.
		if i%8 == 2 || i%8 == 5 {
			rs := recs[i].op
			rs.kind = opResubmit
			reads[k] = append(reads[k], opRec{op: rs})
		}
		if i%8 == 0 || i%8 == 3 || i == len(recs)-1 {
			reads[k] = append(reads[k], opRec{op: streamOp{kind: opGet, id: recs[i].op.id}})
		}
	}
	s := &stream{r: r, ctx: ctx}
	var senders sync.WaitGroup
	for k := range loadConns {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := k; i < len(recs); i += loadConns {
				recs[i].due = time.Now()
				s.perform(&recs[i], false)
			}
			for i := range reads[k] {
				reads[k][i].due = time.Now()
				s.perform(&reads[k][i], false)
			}
		}()
	}
	senders.Wait()
	s.waiters.Wait()
	for k := range reads {
		recs = append(recs, reads[k]...)
	}
	return recs, nil
}

// checkCampaigns verifies every campaign ended done with a transcript
// of the full length, and re-runs a seeded sample through the library
// (experiments.NewCampaign, Run, jobs.CampaignResult) for a byte-for-byte
// comparison of the transcript. A traced run re-runs the sample in
// checkpoint-sized chunks and times each layer the server calls
// internally: Campaign.Run, Snapshot+Encode, the durable write, and
// Decode+RestoreCampaign.
func checkCampaigns(m *measurement, r *rig, recs []opRec, every int64) error {
	checkDedup(m, recs)
	var done []*opRec
	for i := range recs {
		rec := &recs[i]
		switch {
		case rec.op.kind != opNew: // reads: checked by checkDedup
		case rec.err != nil:
			m.problem("campaign %s: %v", rec.op.id, rec.err)
		case rec.res == nil || rec.res.State != jobs.StateDone || rec.res.Transcript == "":
			m.problem("campaign %s did not end done with a transcript", rec.op.id)
		case rec.res.Rounds != campaignRounds:
			m.problem("campaign %s ran %d rounds, want %d", rec.op.id, rec.res.Rounds, campaignRounds)
		default:
			done = append(done, rec)
		}
	}
	if len(done) == 0 {
		m.problem("no campaign completed")
		return nil
	}
	rng := rand.New(rand.NewPCG(m.seed, 0x73616d706c65))
	for k := 0; k < campaignSample; k++ {
		rec := done[rng.IntN(len(done))]
		got, err := r.result(rec.op.id)
		if err != nil {
			m.problem("%v", err)
			continue
		}
		res, err := replayCampaign(r, rec.op, every, k)
		if err != nil {
			return err
		}
		// The fleet's stitched shards mark the summary "resumed"; the
		// transcript, rounds and state must still match exactly.
		if !sameResult(got, res, !r.cfg.fleet) {
			m.problem("campaign %s: served result differs from a direct library run", rec.op.id)
		}
	}
	return nil
}

// replayCampaign runs a campaign through the library. Traced, it runs in
// checkpoint-sized chunks with each internal layer timed on the same
// state the server would see.
func replayCampaign(r *rig, op streamOp, every int64, k int) (*jobs.Result, error) {
	cfg := *op.spec.Campaign
	c, err := experiments.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	tr := r.tr
	if tr == nil {
		c.Run(cfg.Steps)
		return jobs.CampaignResult(op.id, cfg, c.Result(), false), nil
	}
	path := filepath.Join(r.cfg.dir, "replay", "campaign-"+strconv.Itoa(k), "checkpoint.aftckpt")
	for c.Remaining() > 0 {
		n := min(every, c.Remaining())
		start := tr.now()
		c.Run(n)
		tr.add(span{Trace: op.id, Name: "experiments.run", Start: start, End: tr.now(), Rounds: n})
		if c.Remaining() == 0 {
			break
		}
		var data []byte
		start = tr.now()
		snap, err := c.Snapshot()
		if err == nil {
			data = snap.Encode()
		}
		tr.add(span{Trace: op.id, Name: "checkpoint.encode", Start: start, End: tr.now(), Bytes: int64(len(data))})
		if err != nil {
			return nil, err
		}
		if err := tr.timed("checkpoint.persist", op.id, func() error {
			return checkpoint.WriteFileAtomic(path, data)
		}); err != nil {
			return nil, err
		}
		if err := tr.timed("checkpoint.verify", op.id, func() error {
			back, err := checkpoint.Decode(data)
			if err != nil {
				return err
			}
			_, err = experiments.RestoreCampaign(back)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return jobs.CampaignResult(op.id, cfg, c.Result(), false), nil
}
