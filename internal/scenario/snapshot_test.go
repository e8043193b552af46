package scenario

import (
	"os"
	"testing"

	"aft/internal/checkpoint"
	"aft/internal/xrand"
)

// resumeEqualsStraight checkpoints spec at step `at`, round-trips the
// snapshot through its binary encoding, resumes, and compares every
// observable of the Result against the uninterrupted run.
func resumeEqualsStraight(t *testing.T, spec Spec, at int64) {
	t.Helper()
	straight, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Checkpoint(spec, Options{}, at)
	if err != nil {
		t.Fatalf("checkpoint at %d: %v", at, err)
	}
	decoded, err := checkpoint.Decode(snap.Encode())
	if err != nil {
		t.Fatalf("snapshot did not survive its own encoding: %v", err)
	}
	resumed, err := Resume(decoded)
	if err != nil {
		t.Fatalf("resume from %d: %v", at, err)
	}
	assertSameRun(t, spec, at, straight, resumed)
}

// assertSameRun compares every observable of a run resumed from step
// at against the uninterrupted run.
func assertSameRun(t *testing.T, spec Spec, at int64, straight, resumed *Result) {
	t.Helper()
	if resumed.Transcript != straight.Transcript {
		t.Fatalf("%s: transcript resumed from step %d diverges from the straight run\n--- straight\n%s\n--- resumed\n%s",
			spec.Name, at, straight.Transcript, resumed.Transcript)
	}
	if resumed.InvariantsChecked != straight.InvariantsChecked {
		t.Fatalf("%s at %d: invariant sweeps %d vs %d", spec.Name, at,
			resumed.InvariantsChecked, straight.InvariantsChecked)
	}
	if len(resumed.Violations) != len(straight.Violations) {
		t.Fatalf("%s at %d: violations %v vs %v", spec.Name, at, resumed.Violations, straight.Violations)
	}
	counters := func(r *Result) [13]int64 {
		return [13]int64{
			int64(r.Seed), r.OrganRounds, r.OrganFailures, r.Resizes, r.RejectedResizes,
			r.Raises, r.Lowers, int64(r.FinalRedundancy),
			r.ExecInvocations, r.ExecFailures, r.ExecSwaps, r.WatchdogFires,
			r.InvariantsChecked,
		}
	}
	if counters(resumed) != counters(straight) {
		t.Fatalf("%s at %d: counters diverged:\n%+v\nvs\n%+v", spec.Name, at, resumed, straight)
	}
}

// fusedScenarioFixture is an aft-chaos checkpoint whose organ section
// the fused scalar engine of earlier versions wrote (organ meta
// "fused"): Checkpoint of the storm-replay builtin at step 2000, with
// its default seed — mid-storm, the organ at 9 replicas after 3 raises.
const fusedScenarioFixture = "testdata/fused-storm-replay.ckpt"

// TestResumeFusedOrganCheckpoint resumes fusedScenarioFixture on today's
// organ: the run must finish exactly as an uninterrupted one.
func TestResumeFusedOrganCheckpoint(t *testing.T) {
	snap, err := checkpoint.ReadFile(fusedScenarioFixture)
	if err != nil {
		t.Fatal(err)
	}
	organ, err := checkpoint.Decode(snap.Section("organ"))
	if err != nil {
		t.Fatal(err)
	}
	if meta := string(organ.Section("meta")); meta != "fused" {
		t.Fatalf("fixture organ meta %q, want fused", meta)
	}
	spec, ok := Builtin("storm-replay")
	if !ok {
		t.Fatal("storm-replay builtin missing")
	}
	straight, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, spec, 2000, straight, resumed)
}

// TestCheckpointResumeEveryBuiltin is the chaos-side crash-resume
// property: for every committed scenario, a run interrupted at several
// deterministic points — early, mid-phase, around teardown — and
// resumed from its snapshot is observationally identical to the
// uninterrupted run.
func TestCheckpointResumeEveryBuiltin(t *testing.T) {
	rng := xrand.New(29)
	for _, spec := range Builtins() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			cuts := []int64{0, spec.Horizon / 3, spec.Horizon - 2}
			if spec.TeardownAt > 0 {
				cuts = append(cuts, spec.TeardownAt-1, spec.TeardownAt, spec.TeardownAt+1)
			}
			cuts = append(cuts, int64(rng.Intn(int(spec.Horizon-1))))
			for _, at := range cuts {
				resumeEqualsStraight(t, spec, at)
			}
		})
	}
}

// TestCheckpointResumeMatchesGolden is the resume-mid-scenario golden:
// a watchdog-cascade run interrupted in the middle of its first crash
// window (watchdog chains pending, heartbeats suppressed) must complete
// into exactly the committed golden transcript of the straight run.
func TestCheckpointResumeMatchesGolden(t *testing.T) {
	spec, ok := Builtin("watchdog-cascade")
	if !ok {
		t.Fatal("watchdog-cascade builtin missing")
	}
	snap, err := Checkpoint(spec, Options{}, 2050) // inside the brown-out
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath(spec.Name))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	if resumed.Transcript != string(want) {
		t.Fatalf("resumed transcript deviates from committed golden %s\n--- got\n%s",
			goldenPath(spec.Name), resumed.Transcript)
	}
}

// TestCheckpointValidation covers the rejected checkpoint requests.
func TestCheckpointValidation(t *testing.T) {
	spec, _ := Builtin("quiet")
	if _, err := Checkpoint(spec, Options{}, -1); err == nil {
		t.Fatal("negative checkpoint step accepted")
	}
	if _, err := Checkpoint(spec, Options{}, spec.Horizon-1); err == nil {
		t.Fatal("checkpoint inside the finishing sequence accepted")
	}
	if _, err := Checkpoint(spec, Options{Sabotage: InvNonceMonotone}, 100); err == nil {
		t.Fatal("sabotage checkpoint accepted")
	}
	bad := spec
	bad.Horizon = 0
	if _, err := Checkpoint(bad, Options{}, 0); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// TestResumeRejectsCorruptSnapshots flips bytes in and truncates a real
// scenario snapshot; every mutation must fail Decode or Resume.
func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	spec, _ := Builtin("storm-replay")
	snap, err := Checkpoint(spec, Options{}, spec.Horizon/2)
	if err != nil {
		t.Fatal(err)
	}
	enc := snap.Encode()

	try := func(data []byte) error {
		decoded, err := checkpoint.Decode(data)
		if err != nil {
			return err
		}
		_, err = Resume(decoded)
		return err
	}
	step := len(enc)/211 + 1
	for i := 0; i < len(enc); i += step {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x77
		if try(mut) == nil {
			t.Fatalf("byte flip at %d resumed successfully", i)
		}
	}
	for n := 0; n < len(enc); n += step {
		if try(enc[:n]) == nil {
			t.Fatalf("truncation to %d bytes resumed successfully", n)
		}
	}

	// Wrong kind and tampered-but-checksummed state must both fail.
	if _, err := Resume(checkpoint.New("aft/other", 1)); err == nil {
		t.Fatal("foreign snapshot kind resumed")
	}
	tampered, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	tampered.Add("organ", []byte("not a campaign snapshot"))
	if err := try(tampered.Encode()); err == nil {
		t.Fatal("tampered organ section resumed")
	}
	tampered2, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	tampered2.Add("state", []byte(`{"spec":{"name":"x"}}`))
	if err := try(tampered2.Encode()); err == nil {
		t.Fatal("tampered state section resumed")
	}
}

// TestCheckpointDeterminism asserts two checkpoints of the same (spec,
// seed, step) are byte-identical — snapshots are content, not
// wall-clock artifacts.
func TestCheckpointDeterminism(t *testing.T) {
	spec, _ := Builtin("flapping")
	a, err := Checkpoint(spec, Options{}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Checkpoint(spec, Options{}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Encode()) != string(b.Encode()) {
		t.Fatal("same run, same step, different snapshot bytes")
	}
}

// TestCheckpointResumeWithSeedOverride asserts the overridden seed
// (Options.Seed) rides the snapshot, so the resumed run continues the
// overridden stream.
func TestCheckpointResumeWithSeedOverride(t *testing.T) {
	spec, _ := Builtin("storm-ramp")
	straight, err := Run(spec, Options{Seed: 777})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Checkpoint(spec, Options{Seed: 777}, spec.Horizon/2)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(snap)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Transcript != straight.Transcript {
		t.Fatal("seed-overridden resume diverged")
	}
	if resumed.Seed != 777 {
		t.Fatalf("resumed seed = %d, want 777", resumed.Seed)
	}
}
