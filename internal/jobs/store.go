// The on-disk job store: one directory per job, state derived from
// which files exist.
//
// Layout, under the store root:
//
//	jobs/<id>/spec.json            the submission (plus its sequence number)
//	jobs/<id>/checkpoint.aftckpt   campaign checkpoint slot 0 (campaigns only)
//	jobs/<id>/checkpoint.1.aftckpt campaign checkpoint slot 1 (campaigns only)
//	jobs/<id>/result.json          the terminal record (done/failed/cancelled)
//	memo/                          the shared experiments.SweepCache
//
// The files double as the state machine: spec without result is an
// in-flight job (checkpointed if a checkpoint slot restores, queued
// otherwise), spec with result is terminal. There is deliberately no
// separate status file to keep in sync — a crash can therefore never
// leave the store self-contradictory, only slightly stale, and staleness
// costs at most CheckpointEvery rounds of recomputation.
//
// Spec and result are written once each, by atomic rename
// (checkpoint.WriteFileAtomic). Campaign checkpoints are rewritten
// every chunk, so they take the cheaper path: two slot files,
// overwritten in place (checkpoint.WriteFileInPlace) and alternately —
// each write goes to the slot that does not hold the last acknowledged
// checkpoint. A crash mid-overwrite tears only that slot, which then
// fails the container CRC, while the other slot still holds the
// acknowledged checkpoint; recovery reads both and resumes from the
// newest that restores, so checkpoint_rounds never rewinds. Slot 0 keeps
// the single-file name older stores used, so such a store is a store
// whose slot 1 was never written.

package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
)

// storedSpec is the on-disk form of a submission: the spec plus the
// server-assigned sequence number that preserves submission order
// across restarts.
type storedSpec struct {
	Seq  int64 `json:"seq"`
	Spec Spec  `json:"spec"`
}

// store is the on-disk layout rooted at dir.
type store struct {
	dir string
}

// openStore creates the layout directories.
func openStore(dir string) (*store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "memo"), 0o755); err != nil {
		return nil, err
	}
	return &store{dir: dir}, nil
}

// memoDir is the shared sweep-cell cache directory.
func (st *store) memoDir() string { return filepath.Join(st.dir, "memo") }

// jobDir is the directory of one job.
func (st *store) jobDir(id string) string { return filepath.Join(st.dir, "jobs", id) }

// specPath names the submission record file.
func (st *store) specPath(id string) string { return filepath.Join(st.jobDir(id), "spec.json") }

// checkpointSlots names the two campaign checkpoint slot files; slot 0
// is the single-file name of older stores.
var checkpointSlots = [2]string{"checkpoint.aftckpt", "checkpoint.1.aftckpt"}

// noSlot marks a job with no acknowledged checkpoint slot.
const noSlot = -1

// nextSlot is the slot a checkpoint write goes to when acked holds the
// last acknowledged checkpoint (noSlot: none): never acked itself.
func nextSlot(acked int) int {
	if acked == 0 {
		return 1
	}
	return 0
}

// checkpointPath names one campaign checkpoint slot file.
func (st *store) checkpointPath(id string, slot int) string {
	return filepath.Join(st.jobDir(id), checkpointSlots[slot])
}

// resultPath names the terminal record file.
func (st *store) resultPath(id string) string { return filepath.Join(st.jobDir(id), "result.json") }

// writeSpec persists a new job's submission record.
// checkpoint.WriteFileAtomic supplies the crash-safety discipline
// (create parents, temp file, fsync, rename) for spec and result.
func (st *store) writeSpec(id string, rec storedSpec) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode spec: %w", err)
	}
	return checkpoint.WriteFileAtomic(st.specPath(id), data)
}

// writeResult persists a job's terminal record.
func (st *store) writeResult(id string, res *Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode result: %w", err)
	}
	return checkpoint.WriteFileAtomic(st.resultPath(id), data)
}

// readResult loads a job's terminal record, or nil when none exists.
func (st *store) readResult(id string) (*Result, error) {
	data, err := os.ReadFile(st.resultPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("jobs: decode result for %s: %w", id, err)
	}
	return &res, nil
}

// readCheckpoint loads and verifies one checkpoint slot, or nil when
// the slot is missing or fails the container CRC.
func (st *store) readCheckpoint(id string, slot int) *checkpoint.Snapshot {
	snap, err := checkpoint.ReadFile(st.checkpointPath(id, slot))
	if err != nil {
		return nil
	}
	return snap
}

// writeCheckpoint durably overwrites one checkpoint slot in place with
// an encoded snapshot. The caller picks the slot with nextSlot, so the
// slot overwritten never holds the last acknowledged checkpoint.
func (st *store) writeCheckpoint(id string, slot int, encoded []byte) error {
	return checkpoint.WriteFileInPlace(st.checkpointPath(id, slot), encoded)
}

// recoverCheckpoint reads both checkpoint slots of a campaign job and
// returns the campaign in the newest snapshot that restores, by rounds,
// with its slot. A slot that is missing, torn (fails the CRC), or
// decodes but fails the campaign cross-checks loses to the other. When
// neither restores, c is nil, slot is noSlot, and err reports a restore
// failure if a slot decoded, so the job recomputes from round zero with
// a recovery note.
func (st *store) recoverCheckpoint(id string) (c *experiments.Campaign, slot int, err error) {
	slot = noSlot
	for s := range checkpointSlots {
		snap := st.readCheckpoint(id, s)
		if snap == nil {
			continue
		}
		restored, rerr := experiments.RestoreCampaign(snap)
		if rerr != nil {
			err = rerr
			continue
		}
		if c == nil || restored.Rounds() > c.Rounds() {
			c, slot = restored, s
		}
	}
	if c != nil {
		err = nil
	}
	return c, slot, err
}

// restoredJob is one job recovered by scan.
type restoredJob struct {
	id     string
	rec    storedSpec
	result *Result // nil for in-flight jobs
}

// scan recovers every job from disk, sorted by submission sequence. A
// job directory whose spec.json is missing or undecodable is skipped
// with an error in the returned list of notes — the server starts
// anyway, because refusing to serve every healthy job over one damaged
// directory would turn a partial fault into a total outage.
func (st *store) scan() (jobs []restoredJob, notes []string, err error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		data, err := os.ReadFile(st.specPath(id))
		if err != nil {
			notes = append(notes, fmt.Sprintf("job %s: unreadable spec: %v", id, err))
			continue
		}
		var rec storedSpec
		if err := json.Unmarshal(data, &rec); err != nil {
			notes = append(notes, fmt.Sprintf("job %s: corrupt spec: %v", id, err))
			continue
		}
		if err := rec.Spec.Validate(); err != nil {
			notes = append(notes, fmt.Sprintf("job %s: invalid spec: %v", id, err))
			continue
		}
		res, err := st.readResult(id)
		if err != nil {
			// A torn result cannot happen under the atomic-rename rule,
			// but a hand-edited one can; treat the job as in-flight and
			// recompute rather than serving damaged output.
			notes = append(notes, fmt.Sprintf("job %s: %v (re-running)", id, err))
			res = nil
		}
		jobs = append(jobs, restoredJob{id: id, rec: rec, result: res})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].rec.Seq < jobs[j].rec.Seq })
	return jobs, notes, nil
}
