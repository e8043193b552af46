package scenario

import (
	"fmt"

	"aft/internal/experiments"
)

// DiffReport is the outcome of one differential replay.
type DiffReport struct {
	Scenario string
	Seed     uint64
	Rounds   int64
	// Transcript is the (shared) Fig. 7-style rendering both engines
	// must produce byte-identically.
	Transcript string
}

// Differential replays the scenario's organ track — the exact fault
// stream the Runner feeds the switchboard — through both campaign
// engines, the width-1 batch (experiments.NewCampaignWithSource) and
// the reference loop the Runner itself steps, and fails unless every
// observable outcome is identical: the rendered Fig. 7 transcript (occupancy histogram,
// failures, replica-rounds, time at minimal redundancy) and the
// controller's raise/lower decisions. It returns an error describing
// the first divergence, or the shared report on parity.
//
// Scenarios without an organ have no differential surface and report
// zero rounds.
func Differential(spec Spec, seed uint64) (DiffReport, error) {
	if err := spec.Validate(); err != nil {
		return DiffReport{}, err
	}
	if seed == 0 {
		seed = spec.Seed
	}
	rep := DiffReport{Scenario: spec.Name, Seed: seed, Rounds: spec.OrganRounds()}
	if rep.Rounds == 0 {
		return rep, nil
	}
	cfg := organConfig(spec, seed)

	progA, err := newProgram(spec, programRng(seed))
	if err != nil {
		return rep, err
	}
	eng, err := experiments.NewCampaignWithSource(cfg, organSource{prog: progA})
	if err != nil {
		return rep, err
	}
	eng.Run(rep.Rounds)
	engRes := eng.Result()

	progB, err := newProgram(spec, programRng(seed))
	if err != nil {
		return rep, err
	}
	refRes, err := experiments.RunAdaptiveReferenceSource(cfg, organSource{prog: progB})
	if err != nil {
		return rep, err
	}

	engT := experiments.RenderFig7(engRes, spec.Policy.Min)
	refT := experiments.RenderFig7(refRes, spec.Policy.Min)
	if engT != refT {
		return rep, fmt.Errorf("scenario %s: batch engine and reference loop diverge:\n--- batch\n%s--- reference\n%s",
			spec.Name, engT, refT)
	}
	if engRes.Raises != refRes.Raises || engRes.Lowers != refRes.Lowers {
		return rep, fmt.Errorf("scenario %s: controller decisions diverge: batch %d/%d raises/lowers, reference %d/%d",
			spec.Name, engRes.Raises, engRes.Lowers, refRes.Raises, refRes.Lowers)
	}
	if engRes.Rounds != refRes.Rounds {
		return rep, fmt.Errorf("scenario %s: round counts diverge: batch %d, reference %d",
			spec.Name, engRes.Rounds, refRes.Rounds)
	}
	rep.Transcript = engT
	return rep, nil
}
