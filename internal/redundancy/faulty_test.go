package redundancy

import (
	"testing"

	"aft/internal/voting"
	"aft/internal/xrand"
)

func faultySwitchboard(t *testing.T) *Switchboard {
	t.Helper()
	farm, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSwitchboard(farm, DefaultPolicy(), []byte("faulty"))
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

// TestStepFaultyRefFlagsOffEqualsStep: with collude and partitioned
// both false, StepFaultyRef is Step with a first-k corruption predicate
// — same outcomes, same resizes, same nonce stream, same rng
// consumption. The scenario runner routes every organ round through
// StepFaultyRef, so this equivalence is what keeps the golden
// transcripts valid.
func TestStepFaultyRefFlagsOffEqualsStep(t *testing.T) {
	a, b := faultySwitchboard(t), faultySwitchboard(t)
	ra, rb := xrand.New(7), xrand.New(7)
	for step := uint64(0); step < 200; step++ {
		k := int(step % 5) // sweeps 0..4 across a 3..9 band
		oa, resA := a.StepFaultyRef(step, k, false, false, ra)
		ob, resB := b.Step(step, func(i int) bool { return i < k }, rb)
		if resA != resB || oa.Failed() != ob.Failed() || oa.DTOF != ob.DTOF || oa.N != ob.N {
			t.Fatalf("step %d diverged: %+v/%v vs %+v/%v", step, oa, resA, ob, resB)
		}
	}
	if a.Resizes() != b.Resizes() || a.LastNonce() != b.LastNonce() {
		t.Fatalf("switchboards diverged: resizes %d/%d nonce %d/%d",
			a.Resizes(), b.Resizes(), a.LastNonce(), b.LastNonce())
	}
	if a.Resizes() == 0 {
		t.Fatal("workload produced no resizes; the equivalence is vacuous")
	}
	if ra.State() != rb.State() {
		t.Fatal("rng streams diverged")
	}
}

// TestStepFaultyPartitionSkipsObservation: a partitioned round still
// votes (the replicas run regardless of the control link) but the
// controller neither updates its streaks nor resizes — the organ stays
// frozen at its current dimensioning however bad the rounds get.
func TestStepFaultyPartitionSkipsObservation(t *testing.T) {
	sb := faultySwitchboard(t)
	rng := xrand.New(11)
	for step := uint64(0); step < 50; step++ {
		// Every replica corrupted: dtof 0, a guaranteed raise trigger.
		o, resized := sb.StepFaultyRef(step, 3, false, true, rng)
		if !o.Failed() {
			t.Fatalf("step %d: fully corrupted round succeeded: %+v", step, o)
		}
		if resized {
			t.Fatalf("step %d: partitioned round resized", step)
		}
	}
	if sb.Resizes() != 0 || sb.LastNonce() != 0 {
		t.Fatalf("partitioned rounds reached the controller: resizes=%d nonce=%d",
			sb.Resizes(), sb.LastNonce())
	}
	// Link restored: the same disturbance now raises immediately.
	if _, resized := sb.StepFaultyRef(50, 3, false, false, rng); !resized {
		t.Fatal("restored link did not resize on a critical round")
	}
	if sb.Farm().N() != 3+DefaultPolicy().Step {
		t.Fatalf("raise did not land: n=%d", sb.Farm().N())
	}
}

// TestStepFaultyCollusionBeatsIndependence: on a 3-replica organ, two
// colluders elect a wrong majority (silent failure, dtof 0 invisible)
// while two independent corruptions produce detectable total dissent.
func TestStepFaultyCollusionBeatsIndependence(t *testing.T) {
	col := faultySwitchboard(t)
	o, _ := col.StepFaultyRef(1, 2, true, false, xrand.New(13))
	if !o.HasMajority || o.Correct {
		t.Fatalf("2-of-3 colluders did not elect a wrong majority: %+v", o)
	}
	ind := faultySwitchboard(t)
	o, _ = ind.StepFaultyRef(1, 2, false, false, xrand.New(13))
	if o.HasMajority {
		t.Fatalf("2 independent corruptions agreed under seed 13; pick another seed: %+v", o)
	}
}
