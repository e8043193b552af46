// Checkpoint-slot tests: campaign checkpoints alternate between two
// slot files overwritten in place, so a crash can tear at most the slot
// that does not hold the last acknowledged checkpoint. Each test builds
// the crash state a torn overwrite leaves on disk and restarts on it.

package jobs

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
)

// slotCampaign is the campaign the slot tests checkpoint every
// slotEvery rounds.
func slotCampaign() experiments.AdaptiveRunConfig { return testCampaign(40_000, 500) }

const slotEvery = 4_000

// ackedSlot reports the in-memory checkpoint index of a job.
func ackedSlot(s *Server, id string) int {
	j := s.jobByID(id)
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	return j.ckptSlot
}

// snapshotAt runs cfg for rounds rounds and encodes its snapshot.
func snapshotAt(t *testing.T, cfg experiments.AdaptiveRunConfig, rounds int64) []byte {
	t.Helper()
	c, err := experiments.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(rounds)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap.Encode()
}

// haltAfter runs the job on a one-worker server until the crash hook
// fires after the server's halt-th checkpoint, then abandons it.
func haltAfter(t *testing.T, dir string, spec Spec, halt int64) (*Server, string) {
	t.Helper()
	s, err := NewServer(Options{Dir: dir, Workers: 1, CheckpointEvery: slotEvery, testHaltAfter: halt})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.halted:
	case <-time.After(time.Minute):
		t.Fatal("crash hook never fired")
	}
	s.Close()
	return s, st.ID
}

// recoverOnly starts a server with no local pool on dir and waits for
// its recovery replay, so the recovered state is observable before any
// work runs.
func recoverOnly(t *testing.T, dir string) *Server {
	t.Helper()
	s := newTestServer(t, Options{Dir: dir, DisableLocalPool: true, CheckpointEvery: slotEvery})
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	return s
}

// finishLocally runs the job to its end on a one-worker server and
// compares the record with the reference loop's.
func finishLocally(t *testing.T, dir, id string, cfg experiments.AdaptiveRunConfig, resumed bool) *Server {
	t.Helper()
	s := newTestServer(t, Options{Dir: dir, Workers: 1, CheckpointEvery: slotEvery})
	res, err := s.Wait(waitCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceResult(t, id, cfg, resumed)
	if res.State != StateDone || res.Transcript != want.Transcript || !bytes.Equal(res.Summary, want.Summary) {
		t.Fatalf("finished as %s (%s):\n%s\n%s\nwant:\n%s\n%s",
			res.State, res.Error, res.Transcript, res.Summary, want.Transcript, want.Summary)
	}
	return s
}

// TestTornSlotResumesAcknowledgedCheckpoint kills a campaign after its
// third checkpoint (slots 0, 1, 0: slot 0 holds the acknowledged round
// 12 000) and tears slot 1 the way a crash mid-overwrite would. The
// restart must report exactly the acknowledged checkpoint_rounds and
// finish byte-identical to the reference loop.
func TestTornSlotResumesAcknowledgedCheckpoint(t *testing.T) {
	cfg := slotCampaign()
	tears := map[string]func(t *testing.T, path string){
		// Power lost while the slot was being rewritten: the file ends
		// mid-container.
		"truncated": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		// Half of a newer snapshot landed over the old one before the
		// crash: new prefix, stale suffix.
		"partial-newer": func(t *testing.T, path string) {
			newer := snapshotAt(t, cfg, 16_000)
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(newer[:len(newer)/2], 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, tear := range tears {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s0, id := haltAfter(t, dir, Spec{Kind: KindCampaign, Campaign: &cfg}, 3)
			if got := ackedSlot(s0, id); got != 0 {
				t.Fatalf("third checkpoint acknowledged in slot %d, want 0", got)
			}
			tear(t, s0.store.checkpointPath(id, 1))
			if s0.store.readCheckpoint(id, 1) != nil {
				t.Fatal("torn slot still decodes")
			}

			s1 := recoverOnly(t, dir)
			st, _ := s1.StatusOf(id)
			if st.State != StateCheckpointed || st.CheckpointRounds != 12_000 {
				t.Fatalf("recovered %s at checkpoint_rounds %d, want checkpointed at 12000",
					st.State, st.CheckpointRounds)
			}
			if got := ackedSlot(s1, id); got != 0 {
				t.Fatalf("recovery adopted slot %d, want 0", got)
			}
			s1.Close()

			finishLocally(t, dir, id, cfg, true)
		})
	}
}

// TestNewestRestorableSlotWins seeds both slots with checkpoints that
// restore: recovery adopts the higher-round one whichever slot holds
// it, and a fleet lease ships exactly that checkpoint.
func TestNewestRestorableSlotWins(t *testing.T) {
	cfg := slotCampaign()
	older, newer := snapshotAt(t, cfg, 4_000), snapshotAt(t, cfg, 8_000)
	for newerSlot := range checkpointSlots {
		dir := t.TempDir()
		s0 := newTestServer(t, Options{Dir: dir, DisableLocalPool: true})
		st, _, err := s0.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		s0.Close()
		for slot, data := range map[int][]byte{newerSlot: newer, 1 - newerSlot: older} {
			if err := checkpoint.WriteFileInPlace(s0.store.checkpointPath(st.ID, slot), data); err != nil {
				t.Fatal(err)
			}
		}

		s1 := recoverOnly(t, dir)
		if got, _ := s1.StatusOf(st.ID); got.CheckpointRounds != 8_000 {
			t.Fatalf("newer in slot %d: recovered checkpoint_rounds %d, want 8000", newerSlot, got.CheckpointRounds)
		}
		if got := ackedSlot(s1, st.ID); got != newerSlot {
			t.Fatalf("newer in slot %d: recovery adopted slot %d", newerSlot, got)
		}
		g := waitLease(t, s1, "w")
		if g.Rounds != 8_000 || !bytes.Equal(g.Checkpoint, newer) {
			t.Fatalf("newer in slot %d: lease at round %d ships a different checkpoint", newerSlot, g.Rounds)
		}
		for !driveGrant(t, s1, g) {
			g = waitLease(t, s1, "w")
		}
		res, err := s1.Wait(waitCtx(t), st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceResult(t, st.ID, cfg, true); res.State != StateDone || res.Transcript != want.Transcript {
			t.Fatalf("newer in slot %d: finished as %s (%s)\n--- got\n%s\n--- want\n%s",
				newerSlot, res.State, res.Error, res.Transcript, want.Transcript)
		}
	}
}

// TestNoRestorableSlotRecomputesFromZero tears slot 0 and fills slot 1
// with a snapshot that decodes but is no campaign: the job recovers
// queued at round zero with a note, and recomputes the reference
// transcript from scratch.
func TestNoRestorableSlotRecomputesFromZero(t *testing.T) {
	cfg := slotCampaign()
	dir := t.TempDir()
	s0 := newTestServer(t, Options{Dir: dir, DisableLocalPool: true})
	st, _, err := s0.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	s0.Close()
	torn := snapshotAt(t, cfg, 8_000)
	if err := checkpoint.WriteFileInPlace(s0.store.checkpointPath(st.ID, 0), torn[:len(torn)-9]); err != nil {
		t.Fatal(err)
	}
	foreign := checkpoint.New("aft/not-a-campaign", 1).Encode()
	if err := checkpoint.WriteFileInPlace(s0.store.checkpointPath(st.ID, 1), foreign); err != nil {
		t.Fatal(err)
	}

	s1 := recoverOnly(t, dir)
	if got, _ := s1.StatusOf(st.ID); got.State != StateQueued || got.CheckpointRounds != 0 {
		t.Fatalf("recovered %s at checkpoint_rounds %d, want queued at 0", got.State, got.CheckpointRounds)
	}
	if notes := strings.Join(s1.RecoveryNotes(), "\n"); !strings.Contains(notes, "unusable checkpoint") {
		t.Fatalf("recovery notes do not mention the unusable checkpoint:\n%s", notes)
	}
	s1.Close()

	if s2 := finishLocally(t, dir, st.ID, cfg, false); s2.resumedJobs.Value() != 0 {
		t.Fatalf("resumed %d jobs from unrestorable slots, want 0", s2.resumedJobs.Value())
	}
}

// TestCheckpointSlotsAlternateAcrossRestarts kills the campaign after
// each server's first checkpoint, three times over: the writes land in
// slots 0, 1, 0, so after every restart the new checkpoint goes to the
// slot the recovered one is not in, and the other slot keeps the
// checkpoint before it.
func TestCheckpointSlotsAlternateAcrossRestarts(t *testing.T) {
	cfg := slotCampaign()
	spec := Spec{Kind: KindCampaign, Campaign: &cfg}
	dir := t.TempDir()
	for k := int64(1); k <= 3; k++ {
		s, id := haltAfter(t, dir, spec, 1)
		slot := int((k - 1) % 2)
		if got := ackedSlot(s, id); got != slot {
			t.Fatalf("checkpoint %d acknowledged in slot %d, want %d", k, got, slot)
		}
		if got := checkpointRounds(t, s.store.readCheckpoint(id, slot)); got != k*slotEvery {
			t.Fatalf("checkpoint %d: slot %d at round %d, want %d", k, slot, got, k*slotEvery)
		}
		if k > 1 {
			if got := checkpointRounds(t, s.store.readCheckpoint(id, 1-slot)); got != (k-1)*slotEvery {
				t.Fatalf("checkpoint %d: slot %d at round %d, want the previous %d", k, 1-slot, got, (k-1)*slotEvery)
			}
		}
	}
}
