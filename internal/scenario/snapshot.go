// Scenario checkpoint/resume: the chaos harness serialized into
// internal/checkpoint containers.
//
// A scenario run is a discrete-event simulation with state spread over
// many subsystems — the phase program and its fault models, the organ
// campaign (itself checkpointable, see internal/experiments), the
// adaptive executor and its alpha-count oracle, the watchdog timers,
// the invariant checkers, and the transcript recorded so far. Checkpoint
// runs a spec up to a chosen simulated step and captures all of it;
// Resume rebuilds the runner mid-flight and reconstructs the scheduler
// queue in exactly the event order the uninterrupted run would have had,
// so the resumed run's transcript is byte-identical to the straight
// run's — the golden tests assert this against the same committed
// transcripts the fresh runs are checked against.
//
// The event-queue reconstruction is the delicate part. The scheduler
// orders same-time events by push sequence, so Resume must re-push the
// pending events — the watchdog check chains, the teardown event, and
// the tick chain — in the order their originals were pushed. For each
// pending event that order is determined by its push time (when the
// event that scheduled it executed) with a fixed rank for ties:
// watchdog chains before the teardown event at time zero (schedule
// starts the chains first), and any same-step check before the tick
// re-arm (within a step, checks execute before the tick that was pushed
// at the same step only if pushed earlier, which for the chains at
// equal intervals reduces to spec order). See scheduleResume.

package scenario

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"aft/internal/accada"
	"aft/internal/checkpoint"
	"aft/internal/experiments"
	"aft/internal/faults"
	"aft/internal/simclock"
	"aft/internal/trace"
	"aft/internal/watchdog"
)

// SnapshotKind identifies scenario snapshots inside a checkpoint
// container.
const SnapshotKind = "aft/scenario"

// snapshotVersion is the scenario payload schema version.
const snapshotVersion = 1

// modelState is one phase model's state. Bernoulli/Never/Always models
// are stateless; Burst carries its Gilbert–Elliott chain state and
// Scripted its position.
type modelState struct {
	Kind string `json:"kind"`
	Bad  bool   `json:"bad,omitempty"`
	Pos  int64  `json:"pos,omitempty"`
}

// watchdogState is one watchdog's counters plus the absolute time of
// its next pending check, recorded at snapshot time so Resume does not
// have to re-derive the chain's phase.
type watchdogState struct {
	State     watchdog.State `json:"state"`
	NextCheck int64          `json:"next_check"`
}

// invariantsState is the serializable state of the invariant sweep.
type invariantsState struct {
	Checked      int64       `json:"checked"`
	Violations   []Violation `json:"violations,omitempty"`
	Tripped      []string    `json:"tripped,omitempty"`
	PrevNonce    uint64      `json:"prev_nonce"`
	PrevResizes  int64       `json:"prev_resizes"`
	LatchedAt    int64       `json:"latched_at"`
	LatchActive  bool        `json:"latch_active,omitempty"`
	SawPermanent bool        `json:"saw_permanent,omitempty"`
	FrozenRounds int64       `json:"frozen_rounds,omitempty"`
	RoundsFrozen bool        `json:"rounds_frozen,omitempty"`
}

// runnerState is the JSON "state" section of a scenario snapshot. The
// organ campaign travels separately, as a nested campaign snapshot in
// the "organ" section.
type runnerState struct {
	Spec Spec   `json:"spec"`
	Seed uint64 `json:"seed"`
	// At is the simulated step the snapshot was taken at: every event
	// at times <= At has executed, none after.
	At int64 `json:"at"`

	Torn      bool  `json:"torn,omitempty"`
	PrevPhase int   `json:"prev_phase"`
	PrevRes   int64 `json:"prev_res"`
	Latched   bool  `json:"latched,omitempty"`

	ProgIdx int          `json:"prog_idx"`
	ProgRng [4]uint64    `json:"prog_rng"`
	Models  []modelState `json:"models"`

	Events []trace.Event `json:"events"`

	Invariants invariantsState       `json:"invariants"`
	Executor   *accada.ExecutorState `json:"executor,omitempty"`
	Watchdogs  []watchdogState       `json:"watchdogs,omitempty"`
}

// exportState captures the invariant sweep for a checkpoint.
func (inv *invariants) exportState() invariantsState {
	st := invariantsState{
		Checked:      inv.checked,
		Violations:   inv.violations,
		PrevNonce:    inv.prevNonce,
		PrevResizes:  inv.prevResizes,
		LatchedAt:    inv.latchedAt,
		LatchActive:  inv.latchActive,
		SawPermanent: inv.sawPermanent,
		FrozenRounds: inv.frozenRounds,
		RoundsFrozen: inv.roundsFrozen,
	}
	// Deterministic order: armed order, which is fixed by the spec.
	for _, name := range inv.armed {
		if inv.tripped[name] {
			st.Tripped = append(st.Tripped, name)
		}
	}
	return st
}

// restoreState rewinds the invariant sweep to a captured state.
func (inv *invariants) restoreState(st invariantsState) error {
	if st.Checked < 0 {
		return fmt.Errorf("scenario: negative restored invariant count")
	}
	armed := make(map[string]bool, len(inv.armed))
	for _, name := range inv.armed {
		armed[name] = true
	}
	for _, name := range st.Tripped {
		if !armed[name] {
			return fmt.Errorf("scenario: restored tripped invariant %q is not armed by the spec", name)
		}
		inv.tripped[name] = true
	}
	inv.checked = st.Checked
	inv.violations = st.Violations
	inv.prevNonce = st.PrevNonce
	inv.prevResizes = st.PrevResizes
	inv.latchedAt = st.LatchedAt
	inv.latchActive = st.LatchActive
	inv.sawPermanent = st.SawPermanent
	inv.frozenRounds = st.FrozenRounds
	inv.roundsFrozen = st.RoundsFrozen
	return nil
}

// Checkpoint executes the scenario deterministically up to simulated
// step at — every event at times <= at runs, none after — and returns a
// snapshot from which Resume continues the run. Valid checkpoints lie
// in [0, Horizon-2]: later steps would capture a run already in its
// finishing sequence. Sabotage runs are not checkpointable (they exist
// to prove the detection path, not to be resumed).
func Checkpoint(spec Spec, opt Options, at int64) (*checkpoint.Snapshot, error) {
	if opt.Sabotage != "" {
		return nil, fmt.Errorf("scenario: sabotage runs cannot be checkpointed")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if at < 0 || at > spec.Horizon-2 {
		return nil, fmt.Errorf("scenario: checkpoint step %d outside [0, %d]", at, spec.Horizon-2)
	}
	r, err := newRunner(spec, opt)
	if err != nil {
		return nil, err
	}
	r.schedule()
	// Not sched.Run(at): a horizon of 0 means "no horizon" there, while
	// checkpointing at step 0 legitimately wants exactly the events at
	// time zero to run.
	for {
		next, ok := r.sched.Next()
		if !ok || next > simclock.Time(at) {
			break
		}
		r.sched.Step()
	}
	return r.snapshot(at)
}

// snapshot serializes the runner after it has completed every event at
// times <= at.
func (r *runner) snapshot(at int64) (*checkpoint.Snapshot, error) {
	st := runnerState{
		Spec:       r.spec,
		Seed:       r.seed,
		At:         at,
		Torn:       r.torn,
		PrevPhase:  r.prevPhase,
		PrevRes:    r.prevRes,
		Latched:    r.latch.Tripped(),
		ProgIdx:    r.prog.idx,
		ProgRng:    r.prog.rng.State(),
		Events:     r.rec.Events(),
		Invariants: r.inv.exportState(),
	}
	for i, m := range r.prog.models {
		ms := modelState{Kind: r.spec.Phases[i].Model.Kind}
		switch model := m.(type) {
		case *faults.Burst:
			ms.Bad = model.InBadState()
		case *faults.Scripted:
			ms.Pos = model.Pos()
		}
		st.Models = append(st.Models, ms)
	}
	if r.exec != nil {
		es := r.exec.ExportState()
		st.Executor = &es
	}
	for i, wd := range r.dogs {
		interval := r.spec.Watchdogs[i].Interval
		// Chains start at time 0 and check at every multiple of their
		// interval, so the next pending check is the first multiple
		// past the checkpoint step.
		next := (at/interval + 1) * interval
		st.Watchdogs = append(st.Watchdogs, watchdogState{State: wd.ExportState(), NextCheck: next})
	}

	data, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("scenario: encode snapshot: %w", err)
	}
	snap := checkpoint.New(SnapshotKind, snapshotVersion)
	snap.Add("state", data)
	if r.camp != nil {
		organ, err := r.camp.Snapshot()
		if err != nil {
			return nil, err
		}
		snap.Add("organ", organ.Encode())
	}
	return snap, nil
}

// Resume rebuilds a scenario run from a snapshot and executes it to
// completion, returning the same Result — transcript included, byte for
// byte — the uninterrupted run produces.
func Resume(snap *checkpoint.Snapshot) (*Result, error) {
	return resume(snap, nil)
}

// ResumeSpec resumes a snapshot under a modified spec: hindsight
// replay, the shrinker's fast path. Instead of re-executing a shrunk
// candidate from step zero, the shrinker checkpoints the failing spec
// once before its divergence point and resumes each candidate from
// that shared prefix. The modified spec must agree with the snapshot's
// on everything that has already happened — phases, targets, seed
// streams, teardown class, replays at or before the checkpoint step —
// so the divergence is strictly in the future: a shorter horizon or a
// dropped future replay. resumeCompat enforces exactly that.
func ResumeSpec(snap *checkpoint.Snapshot, spec Spec) (*Result, error) {
	return resume(snap, &spec)
}

func resume(snap *checkpoint.Snapshot, override *Spec) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("scenario: nil snapshot")
	}
	if snap.Kind != SnapshotKind {
		return nil, fmt.Errorf("scenario: snapshot kind %q is not %q", snap.Kind, SnapshotKind)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("scenario: snapshot version %d unsupported (this build reads %d)",
			snap.Version, snapshotVersion)
	}
	var st runnerState
	if err := json.Unmarshal(snap.Section("state"), &st); err != nil {
		return nil, fmt.Errorf("scenario: decode snapshot state: %w", err)
	}
	if override != nil {
		if err := override.Validate(); err != nil {
			return nil, err
		}
		if err := resumeCompat(st, *override); err != nil {
			return nil, err
		}
		st.Spec = *override
	}
	r, err := newRunner(st.Spec, Options{Seed: st.Seed})
	if err != nil {
		return nil, err
	}
	if r.seed != st.Seed {
		return nil, fmt.Errorf("scenario: snapshot seed %d does not survive option plumbing", st.Seed)
	}
	if st.At < 0 || st.At > st.Spec.Horizon-2 {
		return nil, fmt.Errorf("scenario: snapshot at step %d outside [0, %d]", st.At, st.Spec.Horizon-2)
	}
	if err := r.restore(snap, st); err != nil {
		return nil, err
	}
	r.scheduleResume(st)
	r.sched.Run(simclock.Time(r.spec.Horizon))
	return r.result(), nil
}

// resumeCompat rejects spec overrides that would rewrite the past. A
// snapshot taken at step At may only be resumed under a spec whose
// behaviour on steps [0, At] is identical to the snapshotted spec's:
// the same phases (the strike streams and targets), the same organ,
// policy, executor, watchdogs, and seed (the derived rng streams), the
// same teardown class, and the same replay injections at or before At.
// Only the future — horizon, post-At replays, a post-At teardown — may
// differ.
func resumeCompat(st runnerState, spec Spec) error {
	old := st.Spec
	switch {
	case spec.Seed != old.Seed:
		return fmt.Errorf("scenario: resume spec changes the seed (%d -> %d)", old.Seed, spec.Seed)
	case spec.Organ != old.Organ:
		return fmt.Errorf("scenario: resume spec changes the organ target")
	case !reflect.DeepEqual(spec.Policy, old.Policy):
		return fmt.Errorf("scenario: resume spec changes the organ policy")
	case !reflect.DeepEqual(spec.Phases, old.Phases):
		return fmt.Errorf("scenario: resume spec changes the phase schedule")
	case !reflect.DeepEqual(spec.Watchdogs, old.Watchdogs):
		return fmt.Errorf("scenario: resume spec changes the watchdogs")
	case !reflect.DeepEqual(spec.Executor, old.Executor):
		return fmt.Errorf("scenario: resume spec changes the executor")
	}
	if (spec.TeardownAt > 0) != (old.TeardownAt > 0) {
		return fmt.Errorf("scenario: resume spec changes the teardown class (%d -> %d)", old.TeardownAt, spec.TeardownAt)
	}
	if spec.TeardownAt > 0 {
		if st.Torn && spec.TeardownAt != old.TeardownAt {
			return fmt.Errorf("scenario: resume spec moves a teardown that already happened (%d -> %d)",
				old.TeardownAt, spec.TeardownAt)
		}
		if !st.Torn && spec.TeardownAt <= st.At {
			return fmt.Errorf("scenario: resume spec puts the teardown at %d, before the checkpoint step %d",
				spec.TeardownAt, st.At)
		}
	}
	past := func(rs []ReplaySpec) []ReplaySpec {
		var out []ReplaySpec
		for _, rp := range rs {
			if rp.At <= st.At {
				out = append(out, rp)
			}
		}
		return out
	}
	if !reflect.DeepEqual(past(spec.Replays), past(old.Replays)) {
		return fmt.Errorf("scenario: resume spec changes replay injections at or before the checkpoint step %d", st.At)
	}
	return nil
}

// restore overwrites the freshly constructed subsystems with snapshot
// state.
func (r *runner) restore(snap *checkpoint.Snapshot, st runnerState) error {
	if len(st.Models) != len(r.prog.models) {
		return fmt.Errorf("scenario: snapshot has %d model states for %d phases",
			len(st.Models), len(r.prog.models))
	}
	if st.ProgIdx < 0 || st.ProgIdx >= len(r.prog.phases) {
		return fmt.Errorf("scenario: restored phase index %d outside [0,%d)", st.ProgIdx, len(r.prog.phases))
	}
	r.prog.idx = st.ProgIdx
	if err := r.prog.rng.SetState(st.ProgRng); err != nil {
		return err
	}
	for i, ms := range st.Models {
		if ms.Kind != r.spec.Phases[i].Model.Kind {
			return fmt.Errorf("scenario: model state %d is %q, spec says %q", i, ms.Kind, r.spec.Phases[i].Model.Kind)
		}
		switch model := r.prog.models[i].(type) {
		case *faults.Burst:
			model.SetBadState(ms.Bad)
		case *faults.Scripted:
			if err := model.SetPos(ms.Pos); err != nil {
				return err
			}
		}
	}

	r.rec.Restore(st.Events)
	r.torn = st.Torn
	r.prevPhase = st.PrevPhase
	r.prevRes = st.PrevRes
	if st.Latched {
		r.latch.Trip()
	}

	if r.spec.Organ {
		organData := snap.Section("organ")
		if organData == nil {
			return fmt.Errorf("scenario: snapshot missing the organ section")
		}
		organSnap, err := checkpoint.Decode(organData)
		if err != nil {
			return err
		}
		camp, err := experiments.RestoreReferenceCampaignWithSource(organSnap, r.push)
		if err != nil {
			return err
		}
		r.camp = camp
	}

	if r.exec != nil {
		if st.Executor == nil {
			return fmt.Errorf("scenario: snapshot missing the executor state")
		}
		if err := r.exec.RestoreState(*st.Executor); err != nil {
			return err
		}
	}

	if len(st.Watchdogs) != len(r.dogs) {
		return fmt.Errorf("scenario: snapshot has %d watchdog states for %d watchdogs",
			len(st.Watchdogs), len(r.dogs))
	}
	for i, ws := range st.Watchdogs {
		if err := r.dogs[i].RestoreState(ws.State); err != nil {
			return err
		}
		interval := r.spec.Watchdogs[i].Interval
		if ws.NextCheck <= st.At || ws.NextCheck%interval != 0 {
			return fmt.Errorf("scenario: watchdog %d next check %d inconsistent with checkpoint step %d and interval %d",
				i, ws.NextCheck, st.At, interval)
		}
	}

	return r.inv.restoreState(st.Invariants)
}

// scheduleResume rebuilds the scheduler queue at step st.At in the push
// order the uninterrupted run would have: each pending event is ordered
// by the time its original was pushed, with ranks breaking ties exactly
// as schedule's construction order did (watchdog chains, then the
// teardown event, then the tick chain).
func (r *runner) scheduleResume(st runnerState) {
	r.sched = simclock.NewAt(simclock.Time(st.At))
	type pending struct {
		pushTime int64
		rank     int
		idx      int
		arm      func()
	}
	var events []pending
	for i := range r.dogs {
		wd, next := r.dogs[i], st.Watchdogs[i].NextCheck
		events = append(events, pending{
			// The pending check was pushed when the previous check of
			// the chain executed, one interval earlier.
			pushTime: next - r.spec.Watchdogs[i].Interval,
			rank:     0,
			idx:      i,
			arm:      func() { wd.ResumeAt(r.sched, simclock.Time(next)) },
		})
	}
	if r.spec.TeardownAt > st.At {
		events = append(events, pending{pushTime: 0, rank: 1, arm: r.scheduleTeardown})
	}
	events = append(events, pending{
		pushTime: st.At,
		rank:     2,
		arm:      func() { r.sched.At(simclock.Time(st.At+1), r.tick) },
	})
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].pushTime != events[j].pushTime {
			return events[i].pushTime < events[j].pushTime
		}
		if events[i].rank != events[j].rank {
			return events[i].rank < events[j].rank
		}
		return events[i].idx < events[j].idx
	})
	for _, ev := range events {
		ev.arm()
	}
}
