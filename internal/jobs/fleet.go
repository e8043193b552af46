// The fleet side of the coordinator: the /v1 worker protocol that lets
// stateless aft-worker processes execute jobs the clients submitted
// over the ordinary API. The protocol is four verbs — lease, renew,
// checkpoint, complete — designed so that any worker can be SIGKILLed
// at any instant and the system converges to the same results a single
// process would have produced:
//
//   - A lease is a fencing-token grant (internal/jobs/lease): the only
//     writes the coordinator accepts for a job are ones carrying the
//     current holder's token, so a worker presumed dead cannot clobber
//     its successor's progress no matter how delayed its packets are.
//   - Checkpoint uploads are verified, not trusted: the coordinator
//     restores the snapshot itself and derives the covered rounds from
//     it, so a corrupt or mislabelled upload is a 400, never a wrong
//     resume point.
//   - Long campaigns are cut into SplitCampaign shard chains: each
//     lease covers one shard, the next shard resumes from the uploaded
//     checkpoint (on whichever worker leases it next), and because
//     shard N+1 starts from shard N's exact state, the stitched
//     transcript is byte-identical to a single-process run.
//   - Duplicate deliveries are idempotent: re-uploading the checkpoint
//     a job already has is a 200 no-op, completing a job that is
//     already terminal is a 200 no-op, and an upload arriving after the
//     lease ended is a 409 the worker treats as "abandon this job".

package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
	"aft/internal/jobs/lease"
)

// ErrRecovering is returned (as a 503 body) to lease requests that
// arrive before the startup checkpoint replay finishes; handing out
// work early could recompute rounds a checkpoint already covers.
var ErrRecovering = errors.New("jobs: server is recovering; not ready to lease")

// Lease-protocol headers: the checkpoint upload carries a raw snapshot
// body, so its credentials travel as headers; the JSON verbs carry them
// in the body.
const (
	// HeaderWorker names the uploading worker on PUT …/checkpoint.
	HeaderWorker = "X-Aft-Worker"
	// HeaderToken carries the fencing token on PUT …/checkpoint.
	HeaderToken = "X-Aft-Lease-Token"
)

// maxCheckpointBody bounds an uploaded snapshot. Campaign snapshots are
// tens of kilobytes; 64 MiB leaves room for growth without letting a
// confused client exhaust memory.
const maxCheckpointBody = 64 << 20

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	// Worker is the caller's stable name (hostname-pid by convention);
	// it keys the fleet registry and appears in lease-conflict errors.
	Worker string `json:"worker"`
}

// Grant is the 200 body of POST /v1/lease: everything a stateless
// worker needs to run its slice of the job.
type Grant struct {
	// Job is the content-addressed job ID.
	Job string `json:"job"`
	// Kind echoes the spec kind for dispatch without inspecting Spec.
	Kind Kind `json:"kind"`
	// Spec is the full stored specification.
	Spec Spec `json:"spec"`
	// Worker echoes the caller's name.
	Worker string `json:"worker"`
	// Token is the fencing token; every subsequent write for this job
	// must carry it.
	Token uint64 `json:"token"`
	// LeaseMS is the lease duration in milliseconds; renew at a third
	// of this.
	LeaseMS int64 `json:"lease_ms"`
	// CheckpointEvery is the snapshot cadence in rounds the worker must
	// honour for campaigns.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// Rounds is the resume point: rounds already covered by the
	// checkpoint (0 for a fresh campaign).
	Rounds int64 `json:"rounds,omitempty"`
	// RunTo is the absolute round this lease's shard ends at; equal to
	// Total when the lease covers the rest of the campaign. 0 for
	// non-campaign jobs, which are atomic.
	RunTo int64 `json:"run_to,omitempty"`
	// Total is the campaign's configured rounds (0 when unknowable).
	Total int64 `json:"total,omitempty"`
	// Checkpoint is the encoded snapshot to resume from; empty for a
	// fresh start. (JSON base64-encodes it.)
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// RenewRequest is the body of POST /v1/jobs/{id}/renew.
type RenewRequest struct {
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
}

// RenewReply is the 200 body of a renew: the new deadline, plus the
// cancellation flag so a heartbeat doubles as the cancel signal.
type RenewReply struct {
	// DeadlineUnixMS is the renewed lease deadline.
	DeadlineUnixMS int64 `json:"deadline_unix_ms"`
	// Cancelled tells the worker to stop at the next checkpoint
	// boundary and upload; the coordinator finalizes from there.
	Cancelled bool `json:"cancelled,omitempty"`
}

// UploadReply is the 200 body of PUT /v1/jobs/{id}/checkpoint.
type UploadReply struct {
	// Rounds is the coordinator's (verified) durable round count after
	// this upload.
	Rounds int64 `json:"rounds"`
	// ShardDone tells the worker its shard ended here: drop the job
	// (the chain's next shard is leased separately) and lease again.
	ShardDone bool `json:"shard_done,omitempty"`
	// Cancelled tells the worker the job was cancelled and finalized at
	// this checkpoint; drop it.
	Cancelled bool `json:"cancelled,omitempty"`
}

// CompleteRequest is the body of POST /v1/jobs/{id}/complete.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
	// Result is the terminal result the worker computed; its ID and
	// Kind must match the job's.
	Result *Result `json:"result"`
}

// WorkerInfo is one fleet worker's registry entry, served by
// GET /v1/workers. All fields are guarded by the server mutex.
type WorkerInfo struct {
	// Name is the worker's self-reported stable name.
	Name string `json:"name"`
	// Active is the number of leases the worker currently holds.
	Active int64 `json:"active"`
	// Granted counts leases ever granted to this worker.
	Granted int64 `json:"granted"`
	// Expired counts this worker's leases that timed out (the worker
	// died or lost connectivity and the job was requeued).
	Expired int64 `json:"expired"`
	// Completed counts jobs this worker ran to a terminal result.
	Completed int64 `json:"completed"`
	// Uploads counts accepted checkpoint uploads.
	Uploads int64 `json:"uploads"`
	// LastSeenUnixMS is the wall time of the worker's last request.
	LastSeenUnixMS int64 `json:"last_seen_unix_ms"`
}

// WorkersReply is the body of GET /v1/workers.
type WorkersReply struct {
	Workers []WorkerInfo `json:"workers"`
}

// touchWorkerLocked updates (creating if needed) a worker's registry
// entry; the caller holds s.mu.
func (s *Server) touchWorkerLocked(name string) *WorkerInfo {
	w, ok := s.fleetWorkers[name]
	if !ok {
		w = &WorkerInfo{Name: name}
		s.fleetWorkers[name] = w
	}
	w.LastSeenUnixMS = time.Now().UnixMilli()
	return w
}

// shardEnd computes the absolute round the lease starting at the given
// resume point should run to: the end of the SplitCampaign shard
// containing it, or the whole campaign when sharding is off. Shard
// boundaries depend only on the campaign config and Options.ShardRounds
// — never on which worker runs what — which is what keeps the stitched
// transcript byte-identical to a single-process run.
func (s *Server) shardEnd(j *job, rounds int64) int64 {
	cfg := j.spec.Campaign
	if cfg == nil {
		return 0
	}
	if s.opts.ShardRounds <= 0 || cfg.Steps <= s.opts.ShardRounds {
		return cfg.Steps
	}
	n := int((cfg.Steps + s.opts.ShardRounds - 1) / s.opts.ShardRounds)
	shards, err := experiments.SplitCampaign(*cfg, n)
	if err != nil {
		return cfg.Steps
	}
	sh, err := experiments.ShardForRound(shards, rounds)
	if err != nil {
		return cfg.Steps
	}
	return sh.End
}

// handleLease pops the next runnable job and grants it to the caller
// under a fenced lease. 204 means no work; 503 means not ready (still
// recovering) or shutting down — both retryable.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad lease request: " + err.Error()})
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "lease request names no worker"})
		return
	}
	if s.stopping() {
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: ErrShuttingDown.Error()})
		return
	}
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, errorReply{Error: ErrRecovering.Error()})
		return
	}
	s.mu.Lock()
	info := s.touchWorkerLocked(req.Worker)
	j := s.popLocked()
	if j == nil {
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
		return
	}
	info.Granted++
	info.Active++
	// The grant ships the stored checkpoint; a campaign the shard
	// hand-back restored would otherwise stay in memory for the job's
	// whole life.
	j.restored = nil
	s.mu.Unlock()

	l, err := s.leases.Acquire(j.id, req.Worker)
	if err != nil {
		// Unreachable in normal operation (a queued job has no live
		// lease), but a requeue bug must fail closed: put the job back
		// rather than double-granting it.
		s.mu.Lock()
		info.Granted--
		info.Active--
		if !j.state.Terminal() {
			j.state = StateQueued
			s.enqueueLocked(j, true)
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, errorReply{Error: err.Error()})
		return
	}
	s.leasesGranted.Inc()

	var (
		rounds int64
		snap   *checkpoint.Snapshot
	)
	if j.spec.Kind == KindCampaign {
		rounds, snap = s.ackedCheckpoint(j)
	}
	grant := Grant{
		Job:     j.id,
		Kind:    j.spec.Kind,
		Spec:    j.spec,
		Worker:  req.Worker,
		Token:   l.Token,
		LeaseMS: s.opts.LeaseTTL.Milliseconds(),
		Rounds:  rounds,
		Total:   j.total,
	}
	if j.spec.Kind == KindCampaign {
		grant.CheckpointEvery = s.opts.CheckpointEvery
		grant.RunTo = s.shardEnd(j, rounds)
		j.runTo.Store(grant.RunTo)
		if snap != nil {
			grant.Checkpoint = snap.Encode()
		}
	}
	writeJSON(w, http.StatusOK, grant)
}

// ackedCheckpoint reads j's last acknowledged checkpoint from the one
// slot the in-memory index names, with the rounds it covers; snap is
// nil at round zero. Holding ckptMu keeps the pair consistent against a
// stale uploader whose write passed its fence check before the lease
// expired.
func (s *Server) ackedCheckpoint(j *job) (rounds int64, snap *checkpoint.Snapshot) {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	rounds = j.ckptRounds.Load()
	if rounds > 0 && j.ckptSlot != noSlot {
		snap = s.store.readCheckpoint(j.id, j.ckptSlot)
	}
	return rounds, snap
}

// handleRenew extends the caller's lease; the reply carries the cancel
// flag so the heartbeat is also the cancellation channel.
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req RenewRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad renew request: " + err.Error()})
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		s.touchWorkerLocked(req.Worker)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("unknown job %s", id)})
		return
	}
	l, err := s.leases.Renew(id, req.Worker, req.Token)
	if err != nil {
		s.rejectLeaseErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RenewReply{
		DeadlineUnixMS: l.Deadline.UnixMilli(),
		Cancelled:      j.cancel.Load(),
	})
}

// rejectLeaseErr maps lease-table errors onto the wire: fenced writes
// are 409 Conflict with the pinned lease error text as the body.
func (s *Server) rejectLeaseErr(w http.ResponseWriter, err error) {
	if lease.IsFenced(err) {
		s.fencedRejects.Inc()
	}
	writeJSON(w, http.StatusConflict, errorReply{Error: err.Error()})
}

// handleUpload accepts a campaign checkpoint from the current lease
// holder. The body is the raw encoded snapshot; worker identity and
// token travel in headers. The snapshot is restored server-side to
// verify it and derive its round count. Re-uploading the rounds the job
// already has is an idempotent no-op, so duplicated deliveries (and
// retries after a lost response) are harmless.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	worker := r.Header.Get(HeaderWorker)
	token, err := strconv.ParseUint(r.Header.Get(HeaderToken), 10, 64)
	if worker == "" || err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorReply{Error: fmt.Sprintf("checkpoint upload needs %s and numeric %s headers", HeaderWorker, HeaderToken)})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxCheckpointBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "read body: " + err.Error()})
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if ok {
		s.touchWorkerLocked(worker)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("unknown job %s", id)})
		return
	}
	if j.spec.Kind != KindCampaign {
		writeJSON(w, http.StatusConflict,
			errorReply{Error: fmt.Sprintf("job %s is a %s; only campaigns checkpoint", id, j.spec.Kind)})
		return
	}

	// ckptMu makes the fence check and the write it authorizes atomic
	// per job: a delayed stale upload cannot interleave between a newer
	// holder's check and write.
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	if err := s.leases.Check(id, worker, token); err != nil {
		s.rejectLeaseErr(w, err)
		return
	}

	// Trust but verify: restore the snapshot here and derive the round
	// count from the campaign itself rather than any client claim.
	snap, err := checkpoint.Decode(body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad snapshot: " + err.Error()})
		return
	}
	c, err := experiments.RestoreCampaign(snap)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "snapshot does not restore: " + err.Error()})
		return
	}
	if c.Config() != *j.spec.Campaign {
		writeJSON(w, http.StatusBadRequest,
			errorReply{Error: fmt.Sprintf("snapshot describes a different campaign than job %s", id)})
		return
	}
	rounds := c.Rounds()
	cur := j.ckptRounds.Load()
	switch {
	case rounds < cur:
		// A delayed duplicate of an earlier chunk from the same (still
		// live) lease: the newer checkpoint already supersedes it.
		writeJSON(w, http.StatusOK, UploadReply{Rounds: cur})
		return
	case rounds == cur:
		// Exact duplicate delivery: idempotent, but fall through so the
		// shard-done / cancelled decision is re-sent (the first reply
		// may have been the one the network ate).
	default:
		// The body decoded and restored, and the container has one
		// encoding, so the verified bytes are stored as they came.
		if err := s.persistCheckpointLocked(j, body, rounds); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorReply{Error: "persist checkpoint: " + err.Error()})
			return
		}
		s.roundsRun.Add(rounds - cur)
		j.rounds.Store(rounds)
		s.remoteUploads.Inc()
		s.mu.Lock()
		if wi, ok := s.fleetWorkers[worker]; ok {
			wi.Uploads++
		}
		s.mu.Unlock()
		s.publish(j) // progress: verified remote checkpoint landed
	}

	reply := UploadReply{Rounds: j.ckptRounds.Load()}
	switch {
	case j.cancel.Load():
		// Checkpoint-on-cancel, fleet edition: the upload we just
		// accepted is the durable stopping point.
		reply.Cancelled = true
		s.releaseLease(id, worker, token)
		s.finalize(j, &Result{
			ID: j.id, Kind: j.spec.Kind, State: StateCancelled,
			Error:  "cancelled by request",
			Rounds: j.ckptRounds.Load(),
		})
	case j.runTo.Load() > 0 && rounds >= j.runTo.Load() && rounds < j.total:
		// Shard boundary: take the job back and requeue it so the next
		// lease — any worker's — runs the chain's next shard from this
		// exact state.
		reply.ShardDone = true
		s.releaseLease(id, worker, token)
		s.mu.Lock()
		if !j.state.Terminal() {
			j.state = StateCheckpointed
			j.restored = c
			j.runTo.Store(0)
			// Head of its client's queue: a shard hand-back continues an
			// in-flight campaign rather than starting a new turn.
			s.enqueueLocked(j, true)
		}
		s.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, reply)
}

// releaseLease returns a lease and maintains the worker registry; a
// fenced release (the lease expired while we processed the request) is
// fine — the reaper already did the bookkeeping.
func (s *Server) releaseLease(id, worker string, token uint64) {
	if err := s.leases.Release(id, worker, token); err != nil {
		return
	}
	s.mu.Lock()
	if wi, ok := s.fleetWorkers[worker]; ok {
		wi.Active--
	}
	s.mu.Unlock()
}

// handleComplete accepts a terminal result from the current lease
// holder. Completing an already-terminal job is an idempotent 200 (the
// duplicate-delivery case); the coordinator persists the result durably
// before replying.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req CompleteRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxCheckpointBody)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad complete request: " + err.Error()})
		return
	}
	if req.Result == nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "complete request carries no result"})
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	var terminal bool
	if ok {
		s.touchWorkerLocked(req.Worker)
		terminal = j.state.Terminal()
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("unknown job %s", id)})
		return
	}
	if terminal {
		// Duplicate delivery of a completion that already landed.
		writeJSON(w, http.StatusOK, s.mustStatus(id))
		return
	}
	if req.Result.ID != id || req.Result.Kind != j.spec.Kind || !req.Result.State.Terminal() {
		writeJSON(w, http.StatusBadRequest,
			errorReply{Error: fmt.Sprintf("result does not describe job %s reaching a terminal state", id)})
		return
	}
	if err := s.leases.Check(id, req.Worker, req.Token); err != nil {
		s.rejectLeaseErr(w, err)
		return
	}
	s.releaseLease(id, req.Worker, req.Token)
	s.finalize(j, req.Result)
	s.remoteCompletions.Inc()
	s.mu.Lock()
	if wi, ok := s.fleetWorkers[req.Worker]; ok {
		wi.Completed++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, s.mustStatus(id))
}

// mustStatus returns the status of a job known to exist.
func (s *Server) mustStatus(id string) Status {
	st, _ := s.StatusOf(id)
	return st
}

// handleWorkers lists the fleet registry in name order.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.fleetWorkers))
	for name := range s.fleetWorkers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]WorkerInfo, 0, len(names))
	for _, name := range names {
		out = append(out, *s.fleetWorkers[name])
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, WorkersReply{Workers: out})
}
