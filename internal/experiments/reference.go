// The reference §3.3 campaign as a steppable, checkpointable object.
//
// RunAdaptiveReference used to be a closed loop: config in, result out.
// That shape cannot be interrupted, so the snapshot/resume machinery
// (snapshot.go) needed it restructured — construct, step, harvest.
// ReferenceCampaign is that restructuring, kept operation-for-operation
// identical to the seed loop: per-round corruption closures, heap
// ballot slices through a real redundancy.Switchboard, and a map-backed
// histogram observed every round.
//
// It is one of the repository's two campaign engines and the single
// differential-testing oracle for the other, the batch engine
// (batch.go): their transcripts match byte for byte, and a snapshot
// taken on either resumes identically on both. It is also the organ the
// chaos scenario runner (internal/scenario) steps, because the runner
// attacks the switchboard directly — signed resize requests through
// Apply, sabotage hooks that reach into the farm — and the batch engine
// keeps that state as flat counters.

package experiments

import (
	"fmt"

	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// ReferenceCampaign is the pre-engine §3.3 loop in steppable form: the
// differential-testing oracle for the batch engine. Construct with
// NewReferenceCampaign, drive with Step or Run, harvest with Result.
type ReferenceCampaign struct {
	cfg AdaptiveRunConfig
	sb  *redundancy.Switchboard
	env CorruptionSource
	// fsrc is env when env implements FaultSource: colluding and
	// partitioned rounds route through StepFaultyRef.
	fsrc FaultSource
	crng *xrand.Rand

	hist                          *metrics.IntHistogram
	step, failures, replicaRounds int64

	red, dtof *metrics.Series
}

// newOrgan builds the identity-method voting farm and switchboard a
// reference campaign steps.
func newOrgan(policy redundancy.Policy) (*redundancy.Switchboard, error) {
	farm, err := voting.NewFarm(policy.Min, identity)
	if err != nil {
		return nil, err
	}
	return redundancy.NewSwitchboard(farm, policy, campaignKey)
}

// NewReferenceCampaign validates cfg and builds the reference loop's
// state, with the same stream discipline as NewCampaign: storm generator
// split first, corruption-value stream second.
func NewReferenceCampaign(cfg AdaptiveRunConfig) (*ReferenceCampaign, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("experiments: Steps must be positive")
	}
	if err := cfg.Storms.Validate(); err != nil {
		return nil, err
	}
	sb, err := newOrgan(cfg.Policy)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	env := newStorms(cfg.Storms, rng)
	rc := &ReferenceCampaign{
		cfg:  cfg,
		sb:   sb,
		env:  env,
		crng: rng.Split(),
		hist: metrics.NewIntHistogram(),
	}
	rc.newSeries()
	return rc, nil
}

// NewReferenceCampaignWithSource builds a reference campaign whose
// environment is the given source instead of the configured storm
// model; cfg.Storms is ignored. The corrupt-value stream is
// xrand.New(cfg.Seed).Split(), mirroring NewCampaignWithSource.
func NewReferenceCampaignWithSource(cfg AdaptiveRunConfig, src CorruptionSource) (*ReferenceCampaign, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("experiments: Steps must be positive")
	}
	if src == nil {
		return nil, fmt.Errorf("experiments: nil corruption source")
	}
	sb, err := newOrgan(cfg.Policy)
	if err != nil {
		return nil, err
	}
	rc := &ReferenceCampaign{
		cfg:  cfg,
		sb:   sb,
		env:  src,
		crng: xrand.New(cfg.Seed).Split(),
		hist: metrics.NewIntHistogram(),
	}
	rc.fsrc, _ = src.(FaultSource)
	rc.newSeries()
	return rc, nil
}

// newSeries allocates the sampling series when the config asks for them.
func (rc *ReferenceCampaign) newSeries() {
	if rc.cfg.SampleEvery > 0 {
		rc.red = metrics.NewSeries("redundancy")
		rc.dtof = metrics.NewSeries("dtof")
	}
}

// Switchboard exposes the campaign's switchboard. The chaos scenario
// runner reads its counters and delivers adversarial resize requests
// through Apply.
func (rc *ReferenceCampaign) Switchboard() *redundancy.Switchboard { return rc.sb }

// Sign signs a resize request with the campaign's message key. It
// exists for harnesses that inject adversarial resize traffic — the
// chaos scenarios' replay attacks re-send a correctly signed but stale
// nonce and assert the switchboard rejects it.
func (rc *ReferenceCampaign) Sign(newN int, dir redundancy.Direction, nonce uint64) redundancy.ResizeRequest {
	return redundancy.SignResize(campaignKey, newN, dir, nonce)
}

// Rounds reports how many rounds have been stepped so far.
func (rc *ReferenceCampaign) Rounds() int64 { return rc.step }

// Remaining reports how many configured rounds are left to run.
func (rc *ReferenceCampaign) Remaining() int64 {
	if r := rc.cfg.Steps - rc.step; r > 0 {
		return r
	}
	return 0
}

// Config returns the campaign's configuration.
func (rc *ReferenceCampaign) Config() AdaptiveRunConfig { return rc.cfg }

// Step runs one reference round, exactly as the seed loop did: a
// per-round corruption closure, a heap ballot slice through
// Switchboard.Step, and a map histogram observation.
func (rc *ReferenceCampaign) Step() voting.Outcome {
	var o voting.Outcome
	if rc.fsrc != nil {
		f := rc.fsrc.Faults(rc.step)
		o, _ = rc.sb.StepFaultyRef(uint64(rc.step), f.Corruptions, f.Colluding, f.Partitioned, rc.crng)
	} else {
		k := rc.env.Corruptions(rc.step)
		var corrupted func(i int) bool
		if k > 0 {
			kk := k
			corrupted = func(i int) bool { return i < kk }
		}
		o, _ = rc.sb.Step(uint64(rc.step), corrupted, rc.crng)
	}
	if rc.red != nil && rc.step%rc.cfg.SampleEvery == 0 {
		rc.red.Append(rc.step, float64(o.N))
		rc.dtof.Append(rc.step, float64(o.DTOF))
	}
	rc.step++
	rc.replicaRounds += int64(o.N)
	rc.hist.Observe(o.N)
	if o.Failed() {
		rc.failures++
	}
	return o
}

// Run steps the campaign n more rounds.
func (rc *ReferenceCampaign) Run(n int64) {
	for i := int64(0); i < n; i++ {
		rc.Step()
	}
}

// Result folds the campaign into the shared AdaptiveRunResult shape.
func (rc *ReferenceCampaign) Result() AdaptiveRunResult {
	res := AdaptiveRunResult{
		Hist:          rc.hist,
		Rounds:        rc.step,
		Failures:      rc.failures,
		ReplicaRounds: rc.replicaRounds,
		Redundancy:    rc.red,
		DTOF:          rc.dtof,
	}
	res.Raises, res.Lowers = rc.sb.Controller().Stats()
	res.MinFraction = rc.hist.Fraction(rc.cfg.Policy.Min)
	return res
}
