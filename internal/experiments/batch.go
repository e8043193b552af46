// The batch-lockstep campaign engine: W independent §3.3 campaigns
// stepped one round at a time in lockstep over struct-of-arrays state.
//
// It is one of the repository's two campaign engines. The other is the
// reference loop (reference.go), the pre-engine per-round loop kept as
// the single differential-testing oracle. Every campaign the repository
// runs — campaign jobs on aft-serve and aft-worker, RunAdaptive,
// aft-sim's single runs, the sweeps, and aft-chaos -diff — runs here;
// the chaos scenario runner steps the reference loop, because it needs
// a real redundancy.Switchboard to attack.
//
// A scalar campaign pays, per round, an interface dispatch for the
// corruption source, a pointer-chase through Switchboard ->
// Controller/Farm, and n ballot writes plus an n-wide scan even on the
// all-quiet rounds that make up 99.93% of the paper's Fig. 7 campaign.
// BatchCampaign removes all three: every lane's state — PRNG words,
// controller counters, nonce watermarks, occupancy rows — lives in flat
// slices indexed by lane, a round's ballots are bit-packed into
// []uint64 words whose majority is a popcount (voting.TallyWords), and
// the per-round loop is straight array code with no interface or
// closure in sight. A quiet round costs one background-probability
// draw and a handful of counter updates per lane.
//
// Correctness is lane equivalence, not approximation: every lane runs
// the same per-round draw order (storm generator split first,
// corruption-value stream second), the same first-K corruption pattern,
// the same tally semantics (TallyWords falls back to the scalar tally
// whenever golden lacks a strict majority), and the same controller
// policy (redundancy.Policy.Decide, the pure kernel Controller.Observe
// itself runs). A lane's transcript is therefore byte-identical to the
// reference loop for the same seed — the differential tests in
// batch_test.go assert it round by round — and a lane extracted with
// LaneSnapshot restores on the reference loop (and vice versa via
// RestoreBatchCampaign), because both write one campaign snapshot
// schema.
//
// Width 1 is the common shape: every campaign job, RunAdaptive, and
// aft-sim's single runs step a one-lane batch through Campaign,
// resuming from a snapshot any engine wrote (the fused scalar engine of
// earlier versions included). A width-1 batch can also take an external
// CorruptionSource or FaultSource instead of the storm model
// (NewCampaignWithSource), which is how aft-chaos -diff replays a
// scenario's organ track. The sweeps (RunBatchParallel, SweepSeeds, the
// E8/E10 grids) run wide batches.
//
// A BatchCampaign holds interior pointers into its own slices (the
// per-lane storm generators alias stormRng), so it must not be copied
// after construction.

package experiments

import (
	"fmt"

	"aft/internal/checkpoint"
	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// DefaultBatchWidth is the lane count per batch the drivers use when
// the caller does not choose one: wide enough to amortize the per-round
// loop overhead, narrow enough that a sweep still spreads across cores.
const DefaultBatchWidth = 16

// BatchLane describes one lane of a batch: its seed and its controller
// policy. Lanes of one batch share Steps, the storm regime, and the
// sampling period, but may differ in seed and policy — which is how the
// E8 fixed-dimensioning contenders (Min == Max pins the organ) and the
// E10 hysteresis sweep (varying LowerAfter) ride the same lockstep
// loop.
type BatchLane struct {
	// Seed drives the lane's randomness, exactly as AdaptiveRunConfig.Seed
	// drives a scalar campaign.
	Seed uint64
	// Policy is the lane's controller policy.
	Policy redundancy.Policy
}

// BatchCampaign steps W independent campaigns per round in lockstep
// over struct-of-arrays state. Construct with NewBatchCampaign or
// NewBatchCampaignLanes, drive with Step/Run/RunAll, and harvest one
// AdaptiveRunResult per lane with Result. Do not copy a constructed
// BatchCampaign.
type BatchCampaign struct {
	cfg   AdaptiveRunConfig // Seed and Policy are per-lane; see lanes
	lanes []BatchLane

	// step is the lockstep round counter, shared by every lane.
	step int64

	// Per-lane struct-of-arrays state, all indexed by lane.
	storms   []storms     // storm generators; rng aliases stormRng
	stormRng []xrand.Rand // storm-generator PRNG words, flat
	crng     []xrand.Rand // corruption-value PRNG words, flat

	nCtrl []int32 // controller target dimensioning
	nFarm []int32 // organ dimensioning actually in force
	quiet []int64 // consecutive full-consensus streak

	raises, lowers     []int64 // controller decision counters
	lastNonce          []uint64
	resizes, rejected  []int64
	farmRounds         []int64
	farmFailures       []int64
	failures           []int64
	replicaRounds      []int64
	occ                []int64 // occupancy rows, stride slots per lane
	stride             int
	red, dtof          []*metrics.Series // nil unless cfg.SampleEvery > 0
	maxLanePolicyWidth int

	// Packed-ballot scratch, reused by every lane within a round.
	words   []uint64
	vals    []uint64
	ballots []uint64

	// record/last capture per-lane outcomes for the differential tests;
	// off by default to keep the hot loop free of the stores.
	record bool
	last   []voting.Outcome

	// env replaces the storm model in a source-driven campaign
	// (NewCampaignWithSource, always width 1); nil otherwise. fsrc is
	// env when it also implements FaultSource.
	env  CorruptionSource
	fsrc FaultSource
}

// NewBatchCampaign builds a batch with one lane per seed, all lanes
// running cfg.Policy (cfg.Seed is ignored; the seeds argument is the
// per-lane truth).
func NewBatchCampaign(cfg AdaptiveRunConfig, seeds []uint64) (*BatchCampaign, error) {
	lanes := make([]BatchLane, len(seeds))
	for i, s := range seeds {
		lanes[i] = BatchLane{Seed: s, Policy: cfg.Policy}
	}
	return NewBatchCampaignLanes(cfg, lanes)
}

// NewBatchCampaignLanes builds a batch from explicit lanes. cfg.Steps,
// cfg.Storms, and cfg.SampleEvery are shared by every lane; cfg.Seed
// and cfg.Policy are superseded by the lanes.
func NewBatchCampaignLanes(cfg AdaptiveRunConfig, lanes []BatchLane) (*BatchCampaign, error) {
	return newBatch(cfg, lanes, nil)
}

// newBatch builds a batch whose environment is the storm model
// (src == nil) or the given source; cfg.Storms is ignored in the latter
// case.
func newBatch(cfg AdaptiveRunConfig, lanes []BatchLane, src CorruptionSource) (*BatchCampaign, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("experiments: Steps must be positive")
	}
	if src == nil {
		if err := cfg.Storms.Validate(); err != nil {
			return nil, err
		}
	}
	if len(lanes) == 0 {
		return nil, fmt.Errorf("experiments: batch needs at least one lane")
	}
	maxMax := 0
	for i, lane := range lanes {
		if err := lane.Policy.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		if lane.Policy.Max > maxMax {
			maxMax = lane.Policy.Max
		}
	}
	w := len(lanes)
	b := &BatchCampaign{
		cfg:           cfg,
		lanes:         append([]BatchLane(nil), lanes...),
		storms:        make([]storms, w),
		stormRng:      make([]xrand.Rand, w),
		crng:          make([]xrand.Rand, w),
		nCtrl:         make([]int32, w),
		nFarm:         make([]int32, w),
		quiet:         make([]int64, w),
		raises:        make([]int64, w),
		lowers:        make([]int64, w),
		lastNonce:     make([]uint64, w),
		resizes:       make([]int64, w),
		rejected:      make([]int64, w),
		farmRounds:    make([]int64, w),
		farmFailures:  make([]int64, w),
		failures:      make([]int64, w),
		replicaRounds: make([]int64, w),
		stride:        maxMax + 1,
		words:         make([]uint64, voting.DissentWords(maxMax)),
		vals:          make([]uint64, maxMax),
		ballots:       make([]uint64, maxMax),
		last:          make([]voting.Outcome, w),
		env:           src,
	}
	b.fsrc, _ = src.(FaultSource)
	b.occ = make([]int64, w*b.stride)
	if cfg.SampleEvery > 0 {
		b.red = make([]*metrics.Series, w)
		b.dtof = make([]*metrics.Series, w)
		for i := range b.red {
			b.red[i] = metrics.NewSeries("redundancy")
			b.dtof[i] = metrics.NewSeries("dtof")
		}
	}
	for i := range b.lanes {
		// Stream discipline matches the reference loop exactly: the
		// storm generator splits off the lane's root stream first, the
		// corruption-value stream second. A source-driven campaign has
		// no storm generator, so its corruption-value stream is the
		// root's first split.
		root := xrand.New(b.lanes[i].Seed)
		if src == nil {
			env := newStorms(cfg.Storms, root)
			b.stormRng[i] = *env.rng
			b.storms[i] = *env
			b.storms[i].rng = &b.stormRng[i]
		}
		b.crng[i] = *root.Split()
		b.nCtrl[i] = int32(b.lanes[i].Policy.Min)
		b.nFarm[i] = int32(b.lanes[i].Policy.Min)
	}
	return b, nil
}

// Width reports the number of lanes.
func (b *BatchCampaign) Width() int { return len(b.lanes) }

// Lane returns the descriptor of one lane.
func (b *BatchCampaign) Lane(i int) BatchLane { return b.lanes[i] }

// Rounds reports how many lockstep rounds have been stepped so far
// (every lane has run exactly this many).
func (b *BatchCampaign) Rounds() int64 { return b.step }

// Remaining reports how many configured rounds are left.
func (b *BatchCampaign) Remaining() int64 {
	if r := b.cfg.Steps - b.step; r > 0 {
		return r
	}
	return 0
}

// Config returns the shared configuration (Seed and Policy are
// per-lane; see Lane).
func (b *BatchCampaign) Config() AdaptiveRunConfig { return b.cfg }

// RecordOutcomes toggles per-lane outcome capture for LaneOutcome. It
// is a testing aid (the differential tests compare every lane's
// per-round outcome against a scalar campaign); leaving it off keeps
// the hot loop free of the per-lane stores.
func (b *BatchCampaign) RecordOutcomes(on bool) { b.record = on }

// LaneOutcome returns the lane's outcome of the most recent Step.
// Outcomes are only captured while RecordOutcomes(true) is in force;
// the Votes field is always nil.
func (b *BatchCampaign) LaneOutcome(lane int) voting.Outcome { return b.last[lane] }

// Step runs one lockstep round: every lane draws its storm intensity,
// corrupts its first k replicas into the packed ballot, tallies by
// popcount, and lets the policy kernel re-dimension. Off the sampling
// grid and outside resize rounds it performs zero heap allocations.
//
// The loop is split into a quiet fast path and a general path. A quiet
// round — no corruption drawn, no sampling or capture due, and the
// policy's only move a longer quiet streak — is the overwhelmingly
// common case (99.9%+ of the Fig. 7 regime), and costs one background
// draw plus a handful of counter updates. The fast path is exact, not
// approximate: outside a storm window, corruptions() reduces to a
// single Bool(Background) draw, which the loop inlines with identical
// stream consumption, and the streak shortcut takes precisely the
// Decide branch that returns (n, quiet+1, 0).
//
// A source-driven campaign takes the separate stepSource path instead.
func (b *BatchCampaign) Step() {
	if b.env != nil {
		b.stepSource()
		return
	}
	step := b.step
	golden := identity(uint64(step))
	sample := b.red != nil && step%b.cfg.SampleEvery == 0
	for l := range b.lanes {
		st := &b.storms[l]
		var k int
		if !st.inStorm && (st.nextOnset < 0 || step < st.nextOnset) {
			// Background mode: corruptions() would draw exactly one
			// Bool(Background) and mutate nothing else.
			if st.rng.Bool(st.cfg.Background) {
				k = 1
			}
		} else {
			k = st.corruptions(step)
		}
		if k == 0 {
			// Unanimous golden consensus: the outcome is fully determined
			// by the dimensioning; no ballots, no corruption draws.
			n := int(b.nFarm[l])
			b.farmRounds[l]++
			b.replicaRounds[l] += int64(n)
			b.occ[l*b.stride+n]++
			p := &b.lanes[l].Policy
			if q := b.quiet[l] + 1; voting.MaxDTOF(n) > p.CriticalDTOF &&
				q < int64(p.LowerAfter) && !sample && !b.record {
				// The common Decide branch — dtof above critical, streak
				// still short — inlined.
				b.quiet[l] = q
				continue
			}
			o := voting.Outcome{
				N: n, HasMajority: true, Value: golden,
				Dissent: 0, DTOF: voting.MaxDTOF(n), Correct: true,
			}
			b.finishRound(l, step, sample, o)
			continue
		}
		n := int(b.nFarm[l])
		if k > n {
			k = n
		}
		crng := &b.crng[l]
		for i := 0; i < k; i++ {
			b.vals[i] = voting.CorruptValue(golden, crng)
		}
		voting.SetFirstK(b.words, k)
		o := voting.TallyWords(n, golden, b.words, b.vals[:k], b.ballots)
		b.farmRounds[l]++
		if o.Failed() {
			b.farmFailures[l]++
			b.failures[l]++
		}
		b.replicaRounds[l] += int64(o.N)
		b.occ[l*b.stride+o.N]++
		b.finishRound(l, step, sample, o)
	}
	b.step = step + 1
}

// stepSource runs one round of a source-driven campaign (width 1). It
// queries the source exactly once, clamps the corruption count to
// [0, n], gives a colluding group one shared corrupt value, and keeps a
// partitioned round's outcome from the policy kernel: the vote runs and
// is sampled, but the quiet streak freezes and no resize is issued.
// Ballot values and stream consumption match ReferenceCampaign.Step
// over redundancy.Switchboard.StepFaultyRef.
func (b *BatchCampaign) stepSource() {
	step := b.step
	var f StepFaults
	if b.fsrc != nil {
		f = b.fsrc.Faults(step)
	} else {
		f.Corruptions = b.env.Corruptions(step)
	}
	golden := identity(uint64(step))
	n := int(b.nFarm[0])
	k := min(max(f.Corruptions, 0), n)
	crng := &b.crng[0]
	for i := 0; i < k; i++ {
		if i > 0 && f.Colluding {
			b.vals[i] = b.vals[0]
		} else {
			b.vals[i] = voting.CorruptValue(golden, crng)
		}
	}
	voting.SetFirstK(b.words, k)
	o := voting.TallyWords(n, golden, b.words, b.vals[:k], b.ballots)
	b.farmRounds[0]++
	if o.Failed() {
		b.farmFailures[0]++
		b.failures[0]++
	}
	b.replicaRounds[0] += int64(n)
	b.occ[n]++
	sample := b.red != nil && step%b.cfg.SampleEvery == 0
	if f.Partitioned {
		b.noteRound(0, step, sample, o)
	} else {
		b.finishRound(0, step, sample, o)
	}
	b.step = step + 1
}

// noteRound samples the outcome and captures it when recording.
func (b *BatchCampaign) noteRound(l int, step int64, sample bool, o voting.Outcome) {
	if sample {
		b.red[l].Append(step, float64(o.N))
		b.dtof[l].Append(step, float64(o.DTOF))
	}
	if b.record {
		o.Votes = nil
		b.last[l] = o
	}
}

// finishRound is the shared tail of the slow paths: note the outcome,
// run the policy kernel, and apply any resize.
func (b *BatchCampaign) finishRound(l int, step int64, sample bool, o voting.Outcome) {
	b.noteRound(l, step, sample, o)
	newN, newQuiet, dir := b.lanes[l].Policy.Decide(int(b.nCtrl[l]), int(b.quiet[l]), o.DTOF, o.Dissent)
	b.quiet[l] = int64(newQuiet)
	if dir != 0 {
		b.nCtrl[l] = int32(newN)
		switch dir {
		case redundancy.Raise:
			b.raises[l]++
		case redundancy.Lower:
			b.lowers[l]++
		}
		b.applyResize(l, newN, dir)
	}
}

// applyResize carries a lane's dimensioning revision as a real signed
// resize message, mirroring Switchboard.deliver/Apply: sign with the
// next nonce, verify on receipt, and only then adopt. The reserved
// maximum nonce is rejected exactly as the reference switchboard
// rejects it, so a lane restored near the end of the nonce space stays
// in lockstep with its reference twin.
func (b *BatchCampaign) applyResize(l, newN int, dir redundancy.Direction) {
	nonce := b.lastNonce[l] + 1
	req := redundancy.SignResize(campaignKey, newN, dir, nonce)
	if err := redundancy.VerifyResize(campaignKey, req); err != nil {
		// Unreachable: the same key signs and verifies.
		panic(err)
	}
	if nonce <= b.lastNonce[l] || nonce == ^uint64(0) {
		// nonce wrapped past the watermark (replay check) or hit the
		// reserved maximum — the scalar Apply rejects both.
		b.rejected[l]++
		return
	}
	b.lastNonce[l] = nonce
	b.resizes[l]++
	b.nFarm[l] = int32(newN)
}

// Run steps the batch n more lockstep rounds.
func (b *BatchCampaign) Run(n int64) {
	for i := int64(0); i < n; i++ {
		b.Step()
	}
}

// RunAll steps the batch through every remaining configured round.
func (b *BatchCampaign) RunAll() { b.Run(b.Remaining()) }

// laneConfig is the scalar configuration one lane is equivalent to.
func (b *BatchCampaign) laneConfig(lane int) AdaptiveRunConfig {
	cfg := b.cfg
	cfg.Seed = b.lanes[lane].Seed
	cfg.Policy = b.lanes[lane].Policy
	return cfg
}

// Result folds one lane's counters into the AdaptiveRunResult shape
// shared with the reference loop; it is field-identical to the Result
// of a reference campaign run with laneConfig(lane).
func (b *BatchCampaign) Result(lane int) AdaptiveRunResult {
	res := AdaptiveRunResult{
		Hist:          metrics.NewIntHistogram(),
		Rounds:        b.step,
		Failures:      b.failures[lane],
		ReplicaRounds: b.replicaRounds[lane],
	}
	if b.red != nil {
		res.Redundancy = b.red[lane]
		res.DTOF = b.dtof[lane]
	}
	for n := 0; n < b.stride; n++ {
		if cnt := b.occ[lane*b.stride+n]; cnt > 0 {
			res.Hist.ObserveN(n, cnt)
		}
	}
	res.Raises, res.Lowers = b.raises[lane], b.lowers[lane]
	res.MinFraction = res.Hist.Fraction(b.lanes[lane].Policy.Min)
	return res
}

// LaneSnapshot extracts one lane as a campaign snapshot, in the schema
// the reference loop writes too, so the lane restores on the reference
// loop (RestoreReferenceCampaign) or back into a batch
// (RestoreBatchCampaign, RestoreCampaign) and its continuation is
// byte-identical on both. A source-driven campaign's snapshot carries
// the external-environment marker instead of storm state, so only
// RestoreReferenceCampaignWithSource takes it.
func (b *BatchCampaign) LaneSnapshot(lane int) (*checkpoint.Snapshot, error) {
	if lane < 0 || lane >= len(b.lanes) {
		return nil, fmt.Errorf("experiments: lane %d outside batch of width %d", lane, len(b.lanes))
	}
	st := campaignState{
		engine:        engineBatch,
		cfg:           b.laneConfig(lane),
		step:          b.step,
		failures:      b.failures[lane],
		replicaRounds: b.replicaRounds[lane],
		occupancy:     make(map[int]int64),
		sb: redundancy.SwitchboardState{
			Controller: redundancy.ControllerState{
				N:      int(b.nCtrl[lane]),
				Quiet:  int(b.quiet[lane]),
				Raises: b.raises[lane],
				Lowers: b.lowers[lane],
			},
			Farm: voting.FarmState{
				Replicas: int(b.nFarm[lane]),
				Rounds:   b.farmRounds[lane],
				Failures: b.farmFailures[lane],
			},
			LastNonce: b.lastNonce[lane],
			Resizes:   b.resizes[lane],
			Rejected:  b.rejected[lane],
		},
		crng: b.crng[lane].State(),
	}
	if b.env == nil {
		st.hasStorms = true
		st.storms = b.storms[lane].exportState()
	}
	if b.red != nil {
		st.red = b.red[lane]
		st.dtof = b.dtof[lane]
	}
	for n := 0; n < b.stride; n++ {
		if cnt := b.occ[lane*b.stride+n]; cnt > 0 {
			st.occupancy[n] = cnt
		}
	}
	return snapshotCampaign(st)
}

// RestoreBatchCampaign rebuilds a batch from one campaign snapshot per
// lane — snapshots taken on any engine (batch lanes, the reference
// loop, the fused engine of earlier versions). All snapshots must be
// storm-driven and agree on the shared configuration (Steps, Storms,
// SampleEvery) and on the round they were taken at; seed and policy
// may differ per lane.
func RestoreBatchCampaign(snaps []*checkpoint.Snapshot) (*BatchCampaign, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("experiments: restore needs at least one lane snapshot")
	}
	states := make([]campaignState, len(snaps))
	for i, snap := range snaps {
		st, err := decodeCampaign(snap)
		if err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		if !st.hasStorms {
			return nil, fmt.Errorf("experiments: lane %d was taken with an external corruption source; restore it with RestoreReferenceCampaignWithSource", i)
		}
		states[i] = st
	}
	shared := func(st campaignState) AdaptiveRunConfig {
		c := st.cfg
		c.Seed = 0
		c.Policy = redundancy.Policy{}
		return c
	}
	base := shared(states[0])
	lanes := make([]BatchLane, len(states))
	for i, st := range states {
		if shared(st) != base {
			return nil, fmt.Errorf("experiments: lane %d disagrees on the shared configuration (Steps/Storms/SampleEvery)", i)
		}
		if st.step != states[0].step {
			return nil, fmt.Errorf("experiments: lane %d at round %d, lane 0 at %d — lanes must be in lockstep",
				i, st.step, states[0].step)
		}
		if err := st.sb.Validate(st.cfg.Policy); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		lanes[i] = BatchLane{Seed: st.cfg.Seed, Policy: st.cfg.Policy}
	}
	cfg := states[0].cfg
	b, err := NewBatchCampaignLanes(cfg, lanes)
	if err != nil {
		return nil, err
	}
	for i, st := range states {
		if err := b.storms[i].restoreState(st.storms); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		if err := b.crng[i].SetState(st.crng); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		b.nCtrl[i] = int32(st.sb.Controller.N)
		b.nFarm[i] = int32(st.sb.Farm.Replicas)
		b.quiet[i] = int64(st.sb.Controller.Quiet)
		b.raises[i] = st.sb.Controller.Raises
		b.lowers[i] = st.sb.Controller.Lowers
		b.lastNonce[i] = st.sb.LastNonce
		b.resizes[i] = st.sb.Resizes
		b.rejected[i] = st.sb.Rejected
		b.farmRounds[i] = st.sb.Farm.Rounds
		b.farmFailures[i] = st.sb.Farm.Failures
		b.failures[i] = st.failures
		b.replicaRounds[i] = st.replicaRounds
		for n, cnt := range st.occupancy {
			if n >= b.stride {
				return nil, fmt.Errorf("experiments: lane %d: occupancy at %d replicas outside policy band (max %d)",
					i, n, b.stride-1)
			}
			b.occ[i*b.stride+n] = cnt
		}
		if b.red != nil {
			b.red[i], b.dtof[i] = st.red, st.dtof
		}
	}
	b.step = states[0].step
	return b, nil
}

// Campaign is a width-1 BatchCampaign behind the scalar campaign
// method set (Run, Rounds, Remaining, Config, Result, Snapshot): the
// shape every campaign job, RunAdaptive, aft-sim's single runs, and
// aft-chaos -diff step. Its snapshots are LaneSnapshot(0), so they
// restore on both engines.
type Campaign struct{ b *BatchCampaign }

// NewCampaign builds a one-lane batch seeded with cfg.Seed.
func NewCampaign(cfg AdaptiveRunConfig) (*Campaign, error) {
	b, err := NewBatchCampaign(cfg, []uint64{cfg.Seed})
	if err != nil {
		return nil, err
	}
	return &Campaign{b}, nil
}

// NewCampaignWithSource builds a one-lane batch whose environment is
// the given source instead of the configured storm model; cfg.Storms
// is ignored. The corrupt-value stream is xrand.New(cfg.Seed).Split(),
// the discipline NewReferenceCampaignWithSource uses, so the two
// engines stay byte-identical for any (cfg, source) pair.
func NewCampaignWithSource(cfg AdaptiveRunConfig, src CorruptionSource) (*Campaign, error) {
	if src == nil {
		return nil, fmt.Errorf("experiments: nil corruption source")
	}
	b, err := newBatch(cfg, []BatchLane{{Seed: cfg.Seed, Policy: cfg.Policy}}, src)
	if err != nil {
		return nil, err
	}
	return &Campaign{b}, nil
}

// RestoreCampaign rebuilds a one-lane batch from a storm-driven
// campaign snapshot any engine wrote, with every cross-check of
// RestoreBatchCampaign.
func RestoreCampaign(snap *checkpoint.Snapshot) (*Campaign, error) {
	b, err := RestoreBatchCampaign([]*checkpoint.Snapshot{snap})
	if err != nil {
		return nil, err
	}
	return &Campaign{b}, nil
}

// Run steps the campaign n more rounds.
func (c *Campaign) Run(n int64) { c.b.Run(n) }

// Rounds reports how many rounds have been stepped so far.
func (c *Campaign) Rounds() int64 { return c.b.Rounds() }

// Remaining reports how many configured rounds are left.
func (c *Campaign) Remaining() int64 { return c.b.Remaining() }

// Config returns the campaign's complete configuration, seed and
// policy included.
func (c *Campaign) Config() AdaptiveRunConfig { return c.b.laneConfig(0) }

// Result harvests the campaign's result so far.
func (c *Campaign) Result() AdaptiveRunResult { return c.b.Result(0) }

// Snapshot captures the campaign's complete state.
func (c *Campaign) Snapshot() (*checkpoint.Snapshot, error) { return c.b.LaneSnapshot(0) }

// RunBatchParallel runs one campaign per seed, all with cfg.Policy, by
// slicing the seeds into width-lane batches and scheduling the batches
// on a workers-wide pool. Result i corresponds to seeds[i], and the
// results are byte-identical for every (width, workers) combination —
// lanes are independent, so grouping is a scheduling detail. width <= 0
// picks a width that keeps every worker busy, capped at
// DefaultBatchWidth.
func RunBatchParallel(cfg AdaptiveRunConfig, seeds []uint64, width, workers int) ([]AdaptiveRunResult, error) {
	lanes := make([]BatchLane, len(seeds))
	for i, s := range seeds {
		lanes[i] = BatchLane{Seed: s, Policy: cfg.Policy}
	}
	return runLanesParallel(cfg, lanes, width, workers)
}

// runLanesParallel is the shared driver behind RunBatchParallel and the
// lane-based sweeps: chunk the lanes into width-lane batches, run each
// batch to completion on the worker pool, and flatten the per-lane
// results back into lane order.
func runLanesParallel(cfg AdaptiveRunConfig, lanes []BatchLane, width, workers int) ([]AdaptiveRunResult, error) {
	if len(lanes) == 0 {
		return []AdaptiveRunResult{}, nil
	}
	if width <= 0 {
		// Keep every worker busy: ceil(lanes/workers), capped at the
		// default width. Results do not depend on the choice.
		w := Workers(workers)
		width = (len(lanes) + w - 1) / w
		if width > DefaultBatchWidth {
			width = DefaultBatchWidth
		}
		if width < 1 {
			width = 1
		}
	}
	nChunks := (len(lanes) + width - 1) / width
	chunks, err := RunParallel(nChunks, workers, func(i int) ([]AdaptiveRunResult, error) {
		lo := i * width
		hi := lo + width
		if hi > len(lanes) {
			hi = len(lanes)
		}
		b, err := NewBatchCampaignLanes(cfg, lanes[lo:hi])
		if err != nil {
			return nil, err
		}
		b.RunAll()
		out := make([]AdaptiveRunResult, hi-lo)
		for l := range out {
			out[l] = b.Result(l)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]AdaptiveRunResult, 0, len(lanes))
	for _, c := range chunks {
		results = append(results, c...)
	}
	return results, nil
}
