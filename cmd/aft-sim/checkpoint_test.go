package main

import (
	"path/filepath"
	"strings"
	"testing"

	"aft/internal/checkpoint"
)

// transcript cuts an aft-sim output down to the Fig. 7 section, the
// part that must be byte-identical across straight, sharded, and
// resumed runs.
func transcript(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "Fig. 7")
	if i < 0 {
		t.Fatalf("output has no Fig. 7 transcript:\n%s", out)
	}
	return out[i:]
}

// sim runs the command and returns its output.
func sim(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("aft-sim %v: %v", args, err)
	}
	return out.String()
}

// TestShardedRunMatchesStraight asserts the sharded checkpointed run
// renders the exact Fig. 7 transcript of the single-pass run.
func TestShardedRunMatchesStraight(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig7.ckpt")
	straight := sim(t, "-steps", "30000", "-seed", "11")
	sharded := sim(t, "-steps", "30000", "-seed", "11", "-shards", "3", "-checkpoint", ckpt)
	if !strings.Contains(sharded, "shard 3/3 complete at round 30000") {
		t.Fatalf("missing shard progress:\n%s", sharded)
	}
	if transcript(t, sharded) != transcript(t, straight) {
		t.Fatal("sharded transcript diverges from straight run")
	}
}

// TestHaltAndResume is the preemption workflow: kill after 2 of 4
// shards, resume from the checkpoint, and end with the transcript of an
// uninterrupted run — on either engine.
func TestHaltAndResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig7.ckpt")
	straight := sim(t, "-steps", "40000", "-seed", "3")

	halted := sim(t, "-steps", "40000", "-seed", "3", "-shards", "4", "-halt-after", "2", "-checkpoint", ckpt)
	if !strings.Contains(halted, "halted at round 20000 of 40000") {
		t.Fatalf("missing halt notice:\n%s", halted)
	}
	if strings.Contains(halted, "Fig. 7") {
		t.Fatal("halted run printed a final transcript")
	}

	resumed := sim(t, "-resume", ckpt)
	if !strings.Contains(resumed, "resuming 20000/40000 rounds") {
		t.Fatalf("missing resume header:\n%s", resumed)
	}
	if transcript(t, resumed) != transcript(t, straight) {
		t.Fatal("resumed transcript diverges from straight run")
	}

	// Cross-engine: the default engine's snapshot resumes on the
	// reference loop.
	halted2 := sim(t, "-steps", "40000", "-seed", "3", "-shards", "4", "-halt-after", "2", "-checkpoint", ckpt)
	_ = halted2
	crossResumed := sim(t, "-resume", ckpt, "-engine", "reference")
	if transcript(t, crossResumed) != transcript(t, straight) {
		t.Fatal("cross-engine resume diverges from straight run")
	}
}

// fusedFixture is a snapshot the fused scalar engine of earlier
// versions wrote (meta "fused"): experiments.DefaultFig7Config(48_000)
// with SampleEvery 1000 and seed 1906 — aft-sim -steps 48000 -seed 1906
// -sample 1000 — cut at round 12_000.
const fusedFixture = "../../internal/experiments/testdata/fused-campaign.ckpt"

// TestResumeAcrossEngines resumes snapshots written on every engine —
// aft-sim's two and the fused engine earlier versions ran — on each of
// aft-sim's engines, the default included: every continuation renders
// the uninterrupted transcripts, the Fig. 6 series included.
func TestResumeAcrossEngines(t *testing.T) {
	series := func(out string) string {
		i := strings.Index(out, "Fig. 6")
		if i < 0 {
			t.Fatalf("output has no Fig. 6 series:\n%s", out)
		}
		return out[i:]
	}
	dir := t.TempDir()
	flags := []string{"-steps", "48000", "-seed", "1906", "-sample", "1000"}
	straight := series(sim(t, flags...))
	var ckpts []string
	for _, writer := range []string{"batch", "reference"} {
		ckpt := filepath.Join(dir, writer+".ckpt")
		sim(t, append(flags, "-shards", "4", "-halt-after", "1", "-checkpoint", ckpt, "-engine", writer)...)
		ckpts = append(ckpts, ckpt)
	}
	snap, err := checkpoint.ReadFile(fusedFixture)
	if err != nil {
		t.Fatal(err)
	}
	if meta := string(snap.Section("meta")); meta != "fused" {
		t.Fatalf("fixture meta %q, want fused", meta)
	}
	ckpts = append(ckpts, fusedFixture)

	for _, ckpt := range ckpts {
		for _, reader := range [][]string{nil, {"-engine", "batch"}, {"-engine", "reference"}} {
			args := append([]string{"-resume", ckpt}, reader...)
			if series(sim(t, args...)) != straight {
				t.Fatalf("aft-sim %v diverges from straight run", args)
			}
		}
	}
}

// TestResumeContinuesShardChain asserts a resumed invocation with
// -shards picks up the chain where the halt left it.
func TestResumeContinuesShardChain(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig7.ckpt")
	straight := sim(t, "-steps", "30000", "-seed", "5")
	sim(t, "-steps", "30000", "-seed", "5", "-shards", "3", "-halt-after", "1", "-checkpoint", ckpt)
	resumed := sim(t, "-resume", ckpt, "-shards", "3", "-checkpoint", ckpt)
	if strings.Contains(resumed, "shard 1/3") {
		t.Fatalf("resumed run re-ran a completed shard:\n%s", resumed)
	}
	for _, needle := range []string{"shard 2/3 complete at round 20000", "shard 3/3 complete at round 30000"} {
		if !strings.Contains(resumed, needle) {
			t.Fatalf("missing %q:\n%s", needle, resumed)
		}
	}
	if transcript(t, resumed) != transcript(t, straight) {
		t.Fatal("resumed shard chain diverges from straight run")
	}
}

// TestCheckpointFlagValidation covers the rejected flag combinations
// and bad snapshot files.
func TestCheckpointFlagValidation(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	cases := [][]string{
		{"-replicas", "2", "-checkpoint", filepath.Join(dir, "x.ckpt")},
		{"-replicas", "2", "-shards", "2"},
		{"-shards", "0"},
		{"-halt-after", "-1"},
		{"-halt-after", "1"}, // no -checkpoint
		{"-resume", filepath.Join(dir, "missing.ckpt")},
		{"-resume", filepath.Join(dir, "x.ckpt"), "-steps", "1000"},
		{"-steps", "5", "-shards", "10"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("aft-sim %v succeeded, want error", args)
		}
	}
}

// TestCheckpointWithSampling asserts the Fig. 6 series ride the
// checkpoint: a resumed sampled run prints the full staircase.
func TestCheckpointWithSampling(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "fig6.ckpt")
	straight := sim(t, "-steps", "12000", "-sample", "20", "-storm-every", "4000")
	sim(t, "-steps", "12000", "-sample", "20", "-storm-every", "4000",
		"-shards", "4", "-halt-after", "2", "-checkpoint", ckpt)
	resumed := sim(t, "-resume", ckpt)
	iStraight := strings.Index(straight, "Fig. 6")
	iResumed := strings.Index(resumed, "Fig. 6")
	if iStraight < 0 || iResumed < 0 {
		t.Fatal("sampled runs lack the Fig. 6 transcript")
	}
	if straight[iStraight:] != resumed[iResumed:] {
		t.Fatal("resumed Fig. 6 series diverge from straight run")
	}
}
