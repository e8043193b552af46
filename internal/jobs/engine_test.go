// Engine tests: campaign jobs run on a width-1 batch campaign and write
// batch checkpoints, and a store or fleet that still holds checkpoints
// written by the fused engine upgrades in place. The snapshot schema is
// engine-agnostic, so the transcripts stay byte-identical to the
// reference loop's.

package jobs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
)

// referenceResult renders the terminal record the reference loop gives
// for cfg: the independent oracle for every engine.
func referenceResult(t *testing.T, id string, cfg experiments.AdaptiveRunConfig, resumed bool) *Result {
	t.Helper()
	res, err := experiments.RunAdaptiveReference(cfg)
	if err != nil {
		t.Fatalf("RunAdaptiveReference: %v", err)
	}
	return CampaignResult(id, cfg, res, resumed)
}

// checkpointRounds restores a stored checkpoint and reports the round
// it covers.
func checkpointRounds(t *testing.T, snap *checkpoint.Snapshot) int64 {
	t.Helper()
	c, err := experiments.RestoreCampaign(snap)
	if err != nil {
		t.Fatalf("stored checkpoint does not restore: %v", err)
	}
	return c.Rounds()
}

// storedCheckpoint is the snapshot recovery would resume a job from:
// the newest of its two checkpoint slots that restores, or nil.
func storedCheckpoint(st *store, id string) *checkpoint.Snapshot {
	if c, slot, _ := st.recoverCheckpoint(id); c != nil {
		return st.readCheckpoint(id, slot)
	}
	return nil
}

// readSlotFile reads and decodes one checkpoint slot file.
func readSlotFile(t *testing.T, path string) *checkpoint.Snapshot {
	t.Helper()
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// fusedFixture is a campaign checkpoint the fused scalar engine of
// earlier versions wrote (meta "fused"), as a store or fleet from before
// its deletion still holds: experiments.DefaultFig7Config(48_000) with
// SampleEvery 1000 (seed 1906), cut at round 12_000.
const fusedFixture = "../experiments/testdata/fused-campaign.ckpt"

// readFusedFixture loads fusedFixture and returns it with the campaign
// configuration it carries.
func readFusedFixture(t *testing.T) (*checkpoint.Snapshot, experiments.AdaptiveRunConfig) {
	t.Helper()
	snap, err := checkpoint.ReadFile(fusedFixture)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotEngine(t, snap); got != "fused" {
		t.Fatalf("fixture written by %q, want fused", got)
	}
	rc, err := experiments.RestoreReferenceCampaign(snap)
	if err != nil {
		t.Fatalf("fixture does not restore: %v", err)
	}
	if rc.Rounds() != 12_000 {
		t.Fatalf("fixture at round %d, want 12000", rc.Rounds())
	}
	return snap, rc.Config()
}

// snapshotEngine reports which engine wrote a campaign snapshot.
func snapshotEngine(t *testing.T, snap *checkpoint.Snapshot) string {
	t.Helper()
	if snap == nil {
		t.Fatal("no checkpoint on disk")
	}
	return string(snap.Section("meta"))
}

// TestFusedCheckpointStoreUpgrades recovers a store whose campaign
// checkpoint the fused engine wrote, as a store from before campaign
// jobs moved to the batch engine holds — and, like every store from
// before the two checkpoint slots, in the single file
// checkpoint.aftckpt. The new server resumes it, writes its own batch
// checkpoint to slot 1 beside the fused one, and the final record is
// the uninterrupted run's, resumed flag aside.
func TestFusedCheckpointStoreUpgrades(t *testing.T) {
	snap, cfg := readFusedFixture(t)
	dir := t.TempDir()

	// The old store: a queued campaign with a fused checkpoint at round
	// 12 000 and no result.
	s0, err := NewServer(Options{Dir: dir, DisableLocalPool: true})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s0.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	// The old single-file layout, written the way older builds wrote it.
	legacy := filepath.Join(dir, "jobs", st.ID, "checkpoint.aftckpt")
	if err := checkpoint.WriteFileAtomic(legacy, snap.Encode()); err != nil {
		t.Fatal(err)
	}
	s0.Close()
	if got := snapshotEngine(t, storedCheckpoint(s0.store, st.ID)); got != "fused" {
		t.Fatalf("seeded checkpoint written by %q, want fused", got)
	}
	slot1 := filepath.Join(dir, "jobs", st.ID, "checkpoint.1.aftckpt")
	if _, err := os.Stat(slot1); !os.IsNotExist(err) {
		t.Fatalf("old store already has a slot-1 file: %v", err)
	}

	// The new server: killed right after its first checkpoint, which
	// must be the batch engine's.
	s1, err := NewServer(Options{Dir: dir, Workers: 1, CheckpointEvery: 9_000, testHaltAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s1.halted:
	case <-time.After(time.Minute):
		t.Fatal("crash hook never fired")
	}
	s1.Close()
	if s1.resumedJobs.Value() != 1 {
		t.Fatalf("resumed %d jobs from the fused checkpoint, want 1", s1.resumedJobs.Value())
	}
	ckpt := storedCheckpoint(s1.store, st.ID)
	if got := snapshotEngine(t, ckpt); got != "batch" {
		t.Fatalf("server wrote a %q checkpoint, want batch", got)
	}
	if got := checkpointRounds(t, ckpt); got != 21_000 {
		t.Fatalf("server checkpoint at round %d, want 21000 (fused 12000 + one 9000 chunk)", got)
	}
	// The first write after the upgrade went to slot 1; slot 0 still
	// holds the acknowledged fused checkpoint it superseded.
	if got := checkpointRounds(t, readSlotFile(t, slot1)); got != 21_000 {
		t.Fatalf("slot 1 at round %d, want the new 21000 checkpoint", got)
	}
	if got := snapshotEngine(t, readSlotFile(t, legacy)); got != "fused" {
		t.Fatalf("slot 0 written by %q, want the untouched fused checkpoint", got)
	}

	s2 := newTestServer(t, Options{Dir: dir, Workers: 1, CheckpointEvery: 9_000})
	res, err := s2.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceResult(t, st.ID, cfg, true)
	if res.State != StateDone || res.Rounds != want.Rounds ||
		res.Transcript != want.Transcript || !bytes.Equal(res.Summary, want.Summary) {
		t.Fatalf("upgraded store finished as %s (%s), rounds %d:\n%s\n%s\nwant:\n%s\n%s",
			res.State, res.Error, res.Rounds, res.Transcript, res.Summary, want.Transcript, want.Summary)
	}
}

// TestSampledCampaignKillResumeMatchesReference runs a Fig. 6 campaign
// (SampleEvery > 0) submitted over HTTP, kills the server after its
// second checkpoint, and resumes it on a fresh server: the staircase
// and the histogram must match the reference loop byte for byte.
func TestSampledCampaignKillResumeMatchesReference(t *testing.T) {
	cfg := experiments.DefaultFig6Config()
	want := referenceResult(t, "", cfg, false).Transcript
	if !strings.Contains(want, "Fig. 6") {
		t.Fatalf("reference transcript lacks the Fig. 6 series:\n%s", want)
	}
	dir := t.TempDir()
	s1, err := NewServer(Options{Dir: dir, Workers: 1, CheckpointEvery: 2_500, testHaltAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	w := do(t, s1, "POST", "/jobs", string(body))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", w.Code, w.Body)
	}
	st := decode[Status](t, w)
	select {
	case <-s1.halted:
	case <-time.After(time.Minute):
		t.Fatal("crash hook never fired")
	}
	s1.Close()
	if got := checkpointRounds(t, storedCheckpoint(s1.store, st.ID)); got != 5_000 {
		t.Fatalf("killed at round %d, want 5000", got)
	}

	s2 := newTestServer(t, Options{Dir: dir, Workers: 1, CheckpointEvery: 2_500})
	res, err := s2.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone || res.Transcript != want {
		t.Fatalf("resumed Fig. 6 campaign: state %s (%s)\n--- got\n%s\n--- want\n%s",
			res.State, res.Error, res.Transcript, want)
	}
	if s2.resumedJobs.Value() != 1 {
		t.Fatalf("resumed %d jobs, want 1", s2.resumedJobs.Value())
	}
}

// TestFleetChainAcceptsFusedUploadMidChain drives a shard chain by hand:
// a batch shard, then a shard whose worker still ran the fused engine
// and hands back fusedFixture, then batch shards to the end. The
// coordinator verifies and stores the fused upload, hands the fused
// checkpoint to the next shard, and the stitched transcript is the
// reference loop's.
func TestFleetChainAcceptsFusedUploadMidChain(t *testing.T) {
	s := newTestServer(t, Options{
		DisableLocalPool: true,
		CheckpointEvery:  6_000,
		ShardRounds:      6_000,
	})
	fused, cfg := readFusedFixture(t)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}

	// Shard 1 (rounds 6000-12000) ends at the fixture's round.
	shards := int(cfg.Steps / 6_000)
	for shard := 0; shard < shards; shard++ {
		engine := "batch"
		if shard == 1 {
			engine = "fused"
		}
		g := waitLease(t, s, "w-"+engine)
		if g.Rounds != int64(shard)*6_000 {
			t.Fatalf("shard %d granted at round %d", shard, g.Rounds)
		}
		if engine == "fused" {
			w := fleetReq(t, s, "PUT", "/v1/jobs/"+g.Job+"/checkpoint",
				fused.Encode(), uploadHeaders(g.Worker, g.Token))
			if w.Code != http.StatusOK || !decode[UploadReply](t, w).ShardDone {
				t.Fatalf("fused upload: %d %s", w.Code, w.Body)
			}
		} else {
			if completed := driveGrant(t, s, g); completed != (shard == shards-1) {
				t.Fatalf("shard %d completed=%v", shard, completed)
			}
		}
		if shard < 2 {
			if got := snapshotEngine(t, storedCheckpoint(s.store, st.ID)); got != engine {
				t.Fatalf("shard %d stored a %q checkpoint, want the uploaded %s one", shard, got, engine)
			}
		}
	}

	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceResult(t, st.ID, cfg, true); res.State != StateDone || res.Transcript != want.Transcript {
		t.Fatalf("mixed-engine chain: state %s (%s)\n--- got\n%s\n--- want\n%s",
			res.State, res.Error, res.Transcript, want.Transcript)
	}
}
