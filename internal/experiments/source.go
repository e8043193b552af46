// External corruption sources for the §3.3 campaign engines.
//
// Both engines — the batch engine at width 1 and the reference loop —
// were built around the Fig. 6/7 storm generator, but the chaos harness
// (internal/scenario) needs to drive the same organ — same controller
// policy, same corrupt-value stream — from arbitrary scripted fault
// campaigns. CorruptionSource abstracts "how many replicas does the
// environment corrupt this round?" so that both engines accept any
// deterministic per-round stream, and aft-chaos -diff can prove
// batch/reference parity on workloads the storm model cannot express.
package experiments

// CorruptionSource yields the number of replicas the environment
// corrupts at each round. Implementations must be deterministic and are
// queried exactly once per round with strictly increasing step values.
type CorruptionSource interface {
	Corruptions(step int64) int
}

// StepFaults is one round's full fault environment, the superset of a
// bare corruption count the chaos harness's generated scenarios need.
type StepFaults struct {
	// Corruptions is the number of replicas corrupted this round.
	Corruptions int
	// Colluding makes the corrupted replicas a Byzantine group voting
	// one shared wrong value instead of failing independently.
	Colluding bool
	// Partitioned severs the organ↔controller link this round: the vote
	// runs, but the controller never observes the outcome and no resize
	// can be issued.
	Partitioned bool
}

// FaultSource is a CorruptionSource that can additionally mark rounds
// as colluding or partitioned. When a source passed to
// NewCampaignWithSource or NewReferenceCampaignWithSource implements
// FaultSource, the engine consults Faults instead of Corruptions —
// exactly once per round, with strictly increasing step values. The
// reference loop routes the round through
// redundancy.Switchboard.StepFaultyRef; the batch engine reproduces it
// on packed ballots. A source whose Faults never sets a flag produces
// byte-identical transcripts to the plain CorruptionSource path.
type FaultSource interface {
	CorruptionSource
	Faults(step int64) StepFaults
}

// Corruptions implements CorruptionSource on the storm generator, so
// the stock Fig. 6/7 environment is just one source among others.
func (s *storms) Corruptions(step int64) int { return s.corruptions(step) }

// RunAdaptiveReferenceSource is RunAdaptiveReference with the storm
// generator replaced by an external corruption source: the pre-engine
// per-round loop (closure corruption, heap ballots, map histogram)
// retained as the differential-testing oracle for source-driven
// campaigns. The result must render byte-identically to a
// NewCampaignWithSource run over an equivalent source; the scenario
// test suite asserts exactly that on every committed scenario.
func RunAdaptiveReferenceSource(cfg AdaptiveRunConfig, src CorruptionSource) (AdaptiveRunResult, error) {
	rc, err := NewReferenceCampaignWithSource(cfg, src)
	if err != nil {
		return AdaptiveRunResult{}, err
	}
	rc.Run(cfg.Steps)
	return rc.Result(), nil
}
