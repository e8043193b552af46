package experiments

import (
	"reflect"
	"testing"

	"aft/internal/redundancy"
)

// rampSource corrupts a scripted number of replicas: k(step) cycles
// 0,0,0,1,0,2 — enough to provoke raises and quiet decay.
type rampSource struct{}

func (rampSource) Corruptions(step int64) int {
	switch step % 6 {
	case 3:
		return 1
	case 5:
		return 2
	default:
		return 0
	}
}

func sourceConfig(steps int64) AdaptiveRunConfig {
	return AdaptiveRunConfig{Steps: steps, Seed: 99, Policy: redundancy.DefaultPolicy()}
}

// TestSourceEnginesByteIdentical: the batch engine and the reference
// loop must agree on every observable outcome for an external
// corruption source, exactly as they do for the storm model.
func TestSourceEnginesByteIdentical(t *testing.T) {
	cfg := sourceConfig(40_000)
	eng, err := NewCampaignWithSource(cfg, rampSource{})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(cfg.Steps)
	engRes := eng.Result()
	refRes, err := RunAdaptiveReferenceSource(cfg, rampSource{})
	if err != nil {
		t.Fatal(err)
	}
	a := RenderFig7(engRes, cfg.Policy.Min)
	b := RenderFig7(refRes, cfg.Policy.Min)
	if a != b {
		t.Fatalf("transcripts diverge:\n--- batch\n%s--- reference\n%s", a, b)
	}
	if engRes.Raises != refRes.Raises || engRes.Lowers != refRes.Lowers {
		t.Fatalf("controller decisions diverge: %d/%d vs %d/%d",
			engRes.Raises, engRes.Lowers, refRes.Raises, refRes.Lowers)
	}
	if engRes.Raises == 0 {
		t.Fatal("source never provoked a raise; the parity check is vacuous")
	}
}

// TestSourceValidation covers the construction error paths.
func TestSourceValidation(t *testing.T) {
	if _, err := NewCampaignWithSource(sourceConfig(0), rampSource{}); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := NewCampaignWithSource(sourceConfig(10), nil); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := RunAdaptiveReferenceSource(sourceConfig(0), rampSource{}); err == nil {
		t.Error("zero steps accepted by reference")
	}
	if _, err := RunAdaptiveReferenceSource(sourceConfig(10), nil); err == nil {
		t.Error("nil source accepted by reference")
	}
	bad := sourceConfig(10)
	bad.Policy.Min = 4 // even: invalid
	if _, err := NewCampaignWithSource(bad, rampSource{}); err == nil {
		t.Error("invalid policy accepted")
	}
}

// TestCampaignSignVerifiesOnOwnSwitchboard: requests produced by
// ReferenceCampaign.Sign must authenticate against the campaign's
// switchboard (fresh nonce accepted, stale nonce rejected as a replay),
// the contract the chaos scenarios' attack injection relies on.
func TestCampaignSignVerifiesOnOwnSwitchboard(t *testing.T) {
	cfg := sourceConfig(10)
	c, err := NewReferenceCampaignWithSource(cfg, rampSource{})
	if err != nil {
		t.Fatal(err)
	}
	sb := c.Switchboard()
	fresh := c.Sign(cfg.Policy.Min+2, redundancy.Raise, sb.LastNonce()+1)
	if err := sb.Apply(fresh); err != nil {
		t.Fatalf("fresh self-signed request rejected: %v", err)
	}
	stale := c.Sign(cfg.Policy.Min, redundancy.Lower, sb.LastNonce())
	if err := sb.Apply(stale); err == nil {
		t.Fatal("stale nonce accepted")
	}
}

// scriptSource is a FaultSource driven by a per-round script.
type scriptSource func(step int64) StepFaults

func (s scriptSource) Corruptions(step int64) int   { return s(step).Corruptions }
func (s scriptSource) Faults(step int64) StepFaults { return s(step) }

// every returns the faults f on rounds that are multiples of period and
// a quiet round otherwise.
func every(period int64, f StepFaults) scriptSource {
	return func(step int64) StepFaults {
		if step%period == 0 {
			return f
		}
		return StepFaults{}
	}
}

// TestCampaignWithSourceMatchesReference steps the batch engine's
// source path against the reference loop round by round: every
// outcome, the final result, and the complete final state must agree.
func TestCampaignWithSourceMatchesReference(t *testing.T) {
	pinned := redundancy.Policy{Min: 3, Max: 3, CriticalDTOF: 0, Step: 2, LowerAfter: 1000}
	cases := []struct {
		name   string
		src    CorruptionSource
		policy redundancy.Policy
		sample int64
	}{
		{"plain", rampSource{}, redundancy.DefaultPolicy(), 0},
		{"collude k<n/2", every(5, StepFaults{Corruptions: 1, Colluding: true}), redundancy.DefaultPolicy(), 0},
		{"collude k>n/2", every(3, StepFaults{Corruptions: 2, Colluding: true}), pinned, 0},
		{"collude k>n", every(13, StepFaults{Corruptions: 20, Colluding: true}), redundancy.DefaultPolicy(), 0},
		{"collude k<0", every(1, StepFaults{Corruptions: -3, Colluding: true}), redundancy.DefaultPolicy(), 0},
		{"partition", scriptSource(func(step int64) StepFaults {
			// Fully corrupted, partitioned windows: every round would
			// raise, but none may reach the policy kernel.
			if step%400 < 50 {
				return StepFaults{Corruptions: 3, Partitioned: true}
			}
			return StepFaults{Corruptions: rampSource{}.Corruptions(step)}
		}), redundancy.DefaultPolicy(), 7},
		{"sampled mix", scriptSource(func(step int64) StepFaults {
			return StepFaults{
				Corruptions: int(step % 7),
				Colluding:   step%3 == 0,
				Partitioned: step%11 == 0,
			}
		}), redundancy.DefaultPolicy(), 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := AdaptiveRunConfig{Steps: 5_000, Seed: 31, Policy: tc.policy, SampleEvery: tc.sample}
			c, err := NewCampaignWithSource(cfg, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := NewReferenceCampaignWithSource(cfg, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			b := c.b
			b.RecordOutcomes(true)
			fsrc, _ := tc.src.(FaultSource)
			for step := int64(0); step < cfg.Steps; step++ {
				quiet, n := b.quiet[0], b.nCtrl[0]
				b.Step()
				assertOutcomeEqual(t, step, 0, b.LaneOutcome(0), rc.Step())
				if fsrc != nil && fsrc.Faults(step).Partitioned && (b.quiet[0] != quiet || b.nCtrl[0] != n) {
					t.Fatalf("round %d: partitioned round reached the controller", step)
				}
			}
			got, want := c.Result(), rc.Result()
			if a, b := renderBoth(got, tc.policy.Min), renderBoth(want, tc.policy.Min); a != b {
				t.Fatalf("transcripts diverge:\n--- batch\n%s--- reference\n%s", a, b)
			}
			if got.Raises != want.Raises || got.Lowers != want.Lowers {
				t.Fatalf("controller decisions diverge: %d/%d vs %d/%d", got.Raises, got.Lowers, want.Raises, want.Lowers)
			}
			bs, err := c.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			rs, err := rc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			bst, err := decodeCampaign(bs)
			if err != nil {
				t.Fatal(err)
			}
			rst, err := decodeCampaign(rs)
			if err != nil {
				t.Fatal(err)
			}
			bst.engine, rst.engine = "", ""
			if !reflect.DeepEqual(bst, rst) {
				t.Fatalf("final state diverges:\nbatch     %+v\nreference %+v", bst, rst)
			}
		})
	}
}

// TestCampaignWithSourceQuietZeroAlloc: a quiet round on the source
// path — the source consulted, a unanimous vote, a policy decision —
// performs zero heap allocations.
func TestCampaignWithSourceQuietZeroAlloc(t *testing.T) {
	cfg := AdaptiveRunConfig{Steps: 1_000_000, Seed: 5, Policy: redundancy.DefaultPolicy()}
	c, err := NewCampaignWithSource(cfg, every(1, StepFaults{}))
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2_000) // past the first LowerAfter window
	if allocs := testing.AllocsPerRun(20_000, func() { c.Run(1) }); allocs != 0 {
		t.Fatalf("quiet source round allocates %.2f objects, want 0", allocs)
	}
}
