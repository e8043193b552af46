package experiments

import (
	"reflect"
	"testing"

	"aft/internal/checkpoint"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// assertOutcomeEqual compares two round outcomes field for field except
// Votes (the batch fast paths never materialize a ballot slice).
func assertOutcomeEqual(t *testing.T, step int64, lane int, got, want voting.Outcome) {
	t.Helper()
	if got.N != want.N || got.HasMajority != want.HasMajority ||
		got.Value != want.Value || got.Dissent != want.Dissent ||
		got.DTOF != want.DTOF || got.Correct != want.Correct {
		t.Fatalf("round %d lane %d: batch outcome %+v, reference %+v", step, lane, got, want)
	}
}

// TestBatchMatchesScalarDifferential steps a W=8 batch against 8
// scalar reference campaigns for 100k rounds, comparing every lane's
// outcome every round — the strictest lane-equivalence check: any
// stream drift, tally divergence, or controller drift fails on the
// exact round it happens.
func TestBatchMatchesScalarDifferential(t *testing.T) {
	const rounds = 100_000
	cfg := DefaultFig7Config(rounds)
	cfg.Storms.StormEvery = 9_000 // several full storms inside the window
	seeds := xrand.Seeds(1906, 8)

	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.RecordOutcomes(true)
	scalars := make([]*ReferenceCampaign, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		if scalars[i], err = NewReferenceCampaign(c); err != nil {
			t.Fatal(err)
		}
	}
	for step := int64(0); step < rounds; step++ {
		b.Step()
		for i, sc := range scalars {
			assertOutcomeEqual(t, step, i, b.LaneOutcome(i), sc.Step())
		}
	}
	for i, sc := range scalars {
		got, want := RenderFig7(b.Result(i), cfg.Policy.Min), RenderFig7(sc.Result(), cfg.Policy.Min)
		if got != want {
			t.Fatalf("lane %d result transcript diverged:\n%s\nvs reference:\n%s", i, got, want)
		}
	}
}

// TestBatchLaneTranscriptsFig6 checks every lane of a sampled batch
// renders the Fig. 6 staircase byte-identically to the reference loop
// for the same seed.
func TestBatchLaneTranscriptsFig6(t *testing.T) {
	cfg := DefaultFig6Config()
	seeds := xrand.Seeds(cfg.Seed, 4)
	seeds[0] = cfg.Seed // keep the canonical figure seed as lane 0
	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.RunAll()
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		ref, err := RunAdaptiveReference(c)
		if err != nil {
			t.Fatal(err)
		}
		lane := RenderFig6(b.Result(i))
		if lane != RenderFig6(ref) {
			t.Fatalf("lane %d (seed %d) diverges from the reference loop:\n%s", i, s, lane)
		}
	}
}

// TestBatchLaneTranscriptsFig7 is the Fig. 7 (histogram) version of the
// lane-transcript oracle, storms and resizes included.
func TestBatchLaneTranscriptsFig7(t *testing.T) {
	cfg := DefaultFig7Config(60_000)
	seeds := xrand.Seeds(7, 3)
	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.RunAll()
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		ref, err := RunAdaptiveReference(c)
		if err != nil {
			t.Fatal(err)
		}
		lane := RenderFig7(b.Result(i), cfg.Policy.Min)
		if lane != RenderFig7(ref, cfg.Policy.Min) {
			t.Fatalf("lane %d (seed %d) diverges from the reference loop:\n%s", i, s, lane)
		}
	}
}

// TestBatchLaneSnapshotCrossRestore cuts a batch mid-run, extracts
// every lane as a campaign snapshot, and finishes each lane on a
// width-1 Campaign, on the reference loop, and back inside a restored
// batch: all three continuations must render byte-identically to the
// uninterrupted reference run.
func TestBatchLaneSnapshotCrossRestore(t *testing.T) {
	cfg := DefaultFig7Config(40_000)
	cfg.SampleEvery = 500 // exercise the series sections too
	seeds := xrand.Seeds(1906, 4)
	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(17_000) // mid-run, inside the second storm window

	snaps := make([]*checkpoint.Snapshot, len(seeds))
	for i := range seeds {
		if snaps[i], err = b.LaneSnapshot(i); err != nil {
			t.Fatal(err)
		}
	}

	// The oracle: uninterrupted reference runs.
	want := make([]string, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		res, err := RunAdaptiveReference(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = RenderFig6(res) + RenderFig7(res, cfg.Policy.Min)
	}

	// batch -> width-1 Campaign and batch -> reference.
	for i := range seeds {
		c, err := RestoreCampaign(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		c.Run(c.Remaining())
		if got := RenderFig6(c.Result()) + RenderFig7(c.Result(), cfg.Policy.Min); got != want[i] {
			t.Fatalf("lane %d: batch->Campaign continuation diverged:\n%s", i, got)
		}
		ref, err := RestoreReferenceCampaign(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(ref.Remaining())
		if got := RenderFig6(ref.Result()) + RenderFig7(ref.Result(), cfg.Policy.Min); got != want[i] {
			t.Fatalf("lane %d: batch->reference continuation diverged:\n%s", i, got)
		}
	}

	// batch -> batch: resume mid-batch from the lane snapshots.
	rb, err := RestoreBatchCampaign(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Rounds() != 17_000 || rb.Remaining() != cfg.Steps-17_000 {
		t.Fatalf("restored batch at round %d, remaining %d", rb.Rounds(), rb.Remaining())
	}
	rb.RunAll()
	for i := range seeds {
		res := rb.Result(i)
		if got := RenderFig6(res) + RenderFig7(res, cfg.Policy.Min); got != want[i] {
			t.Fatalf("lane %d: resumed-batch continuation diverged:\n%s", i, got)
		}
	}
}

// TestScalarSnapshotsRestoreIntoBatch goes the other way: snapshots
// taken mid-run by the fused engine of earlier versions (fusedFixture)
// and by the reference loop become lanes of one batch, whose
// continuation must match the uninterrupted reference runs.
func TestScalarSnapshotsRestoreIntoBatch(t *testing.T) {
	cfg := fusedFixtureConfig()
	const cut = 12_000
	seeds := []uint64{cfg.Seed, 42}

	// Lane 0 from the fused engine, lane 1 from the reference loop.
	snap0, err := checkpoint.ReadFile(fusedFixture)
	if err != nil {
		t.Fatal(err)
	}
	if meta := string(snap0.Section("meta")); meta != "fused" {
		t.Fatalf("fixture meta %q, want fused", meta)
	}
	c1 := cfg
	c1.Seed = seeds[1]
	ref, err := NewReferenceCampaign(c1)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(cut)
	snap1, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b, err := RestoreBatchCampaign([]*checkpoint.Snapshot{snap0, snap1})
	if err != nil {
		t.Fatal(err)
	}
	b.RunAll()
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		res, err := RunAdaptiveReference(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantT := renderBoth(b.Result(i), cfg.Policy.Min), renderBoth(res, cfg.Policy.Min); got != wantT {
			t.Fatalf("lane %d: scalar->batch continuation diverged:\n%s\nwant:\n%s", i, got, wantT)
		}
	}
}

// TestRestoreBatchCampaignRejectsMismatches pins the lockstep
// preconditions: lanes must agree on the shared configuration and the
// round they were cut at.
func TestRestoreBatchCampaignRejectsMismatches(t *testing.T) {
	cfg := DefaultFig7Config(10_000)
	mk := func(cfg AdaptiveRunConfig, rounds int64) *checkpoint.Snapshot {
		t.Helper()
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(rounds)
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	a := mk(cfg, 100)

	other := cfg
	other.Steps = 20_000
	if _, err := RestoreBatchCampaign([]*checkpoint.Snapshot{a, mk(other, 100)}); err == nil {
		t.Fatal("shared-config mismatch accepted")
	}
	if _, err := RestoreBatchCampaign([]*checkpoint.Snapshot{a, mk(cfg, 101)}); err == nil {
		t.Fatal("lockstep round mismatch accepted")
	}
	if _, err := RestoreBatchCampaign(nil); err == nil {
		t.Fatal("empty snapshot set accepted")
	}
}

// TestRunBatchParallelDeterministic asserts sweep results are identical
// for every (width, workers) combination — lanes are independent, so
// batching and scheduling are pure bookkeeping.
func TestRunBatchParallelDeterministic(t *testing.T) {
	cfg := DefaultFig7Config(20_000)
	seeds := xrand.Seeds(1906, 10)
	base, err := RunBatchParallel(cfg, seeds, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(seeds) {
		t.Fatalf("%d results for %d seeds", len(base), len(seeds))
	}
	for _, width := range []int{0, 3, 16} {
		for _, workers := range []int{1, 4} {
			got, err := RunBatchParallel(cfg, seeds, width, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, base) {
				t.Fatalf("width=%d workers=%d diverged from serial width-1 run", width, workers)
			}
		}
	}
}

// TestBatchE8MatchesScalarCells runs the lane-based E8 sweep against
// the retained reference-loop oracles (runFixed, e8Autonomic): every
// contender row must be identical.
func TestBatchE8MatchesScalarCells(t *testing.T) {
	const steps = 50_000
	const seed = 1906
	rows, err := RunE8Parallel(steps, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	normSteps, storms := e8Setup(steps)
	want := make([]E8Row, 0, len(e8FixedSizes)+1)
	for _, n := range e8FixedSizes {
		row, err := runFixed(normSteps, seed, n, storms)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, row)
	}
	auto, err := e8Autonomic(normSteps, seed, storms)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, auto)
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("batch E8 rows %+v\nscalar oracle %+v", rows, want)
	}
}

// TestBatchE10MatchesScalarCells is the E10 version: the lane-based
// hysteresis sweep must reproduce the reference loop's per-cell rows.
func TestBatchE10MatchesScalarCells(t *testing.T) {
	const steps = 60_000
	const seed = 1906
	las := []int{10, 1000, 10000}
	rows, err := RunE10Parallel(steps, seed, las, 3)
	if err != nil {
		t.Fatal(err)
	}
	normSteps, normLas, storms := e10Setup(steps, las)
	want := make([]E10Row, len(normLas))
	for i, la := range normLas {
		row, err := e10Row(normSteps, seed, storms, la)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = row
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("batch E10 rows %+v\nscalar oracle %+v", rows, want)
	}
}

// TestBatchStepZeroAlloc is the batch engine's allocation gate: with
// sampling off, a steady-state lockstep round allocates nothing, for
// any width — width 1 being the shape every campaign job runs.
func TestBatchStepZeroAlloc(t *testing.T) {
	cfg := DefaultFig7Config(10_000_000)
	for _, w := range []int{1, 16} {
		b, err := NewBatchCampaign(cfg, xrand.Seeds(1906, w))
		if err != nil {
			t.Fatal(err)
		}
		b.Run(1000) // reach steady state
		allocs := testing.AllocsPerRun(20_000, b.Step)
		if allocs != 0 {
			t.Fatalf("width-%d batch Step allocates %v/round in steady state", w, allocs)
		}
	}
}

// TestBatchStepZeroAllocUnderBackground forces frequent corruption
// rounds (Background 0.3): the packed tally and its scratch reuse must
// keep even dissent-heavy rounds allocation-free.
func TestBatchStepZeroAllocUnderBackground(t *testing.T) {
	cfg := AdaptiveRunConfig{
		Steps:  10_000_000,
		Seed:   1906,
		Policy: redundancy.Policy{Min: 5, Max: 9, CriticalDTOF: 0, Step: 2, LowerAfter: 1000},
		Storms: StormConfig{Background: 0.3},
	}
	b, err := NewBatchCampaign(cfg, xrand.Seeds(1906, 8))
	if err != nil {
		t.Fatal(err)
	}
	b.Run(1000)
	allocs := testing.AllocsPerRun(20_000, b.Step)
	if allocs != 0 {
		t.Fatalf("batch Step allocates %v/round under background corruption", allocs)
	}
}
