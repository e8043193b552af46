package voting

import (
	"testing"

	"aft/internal/xrand"
)

// firstK is the corruption predicate of the first k replicas.
func firstK(k int) func(int) bool { return func(i int) bool { return i < k } }

// TestColludingMajorityElectsWrongValue is the point of the model: a
// colluding group of more than n/2 replicas elects a wrong majority,
// where the same number of independently-failing replicas almost never
// agrees on one wrong value.
func TestColludingMajorityElectsWrongValue(t *testing.T) {
	farm, err := NewFarm(5, ident)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	o := farm.RoundShared(42, firstK(3), rng)
	if !o.HasMajority {
		t.Fatalf("3 of 5 colluders did not form a majority: %+v", o)
	}
	if o.Correct {
		t.Fatalf("colluding majority reported the correct value: %+v", o)
	}
	if !o.Failed() {
		t.Fatal("wrong-majority round not counted as failed")
	}
	if o.Votes[0] != o.Votes[1] || o.Votes[1] != o.Votes[2] {
		t.Fatalf("colluders did not share one value: %v", o.Votes)
	}
	if o.Votes[0] == 42 {
		t.Fatal("colluders voted the golden value")
	}

	// The independent storm of the same intensity: three distinct wrong
	// values, no majority for any of them — detectable dissent instead
	// of a silent wrong consensus.
	indep := farm.Round(42, firstK(3), xrand.New(1))
	if indep.HasMajority && !indep.Correct {
		t.Fatalf("independent faults happened to collude under seed 1; pick another seed: %v", indep.Votes)
	}
}

// TestColludingMinorityIsOutvoted: a colluding group below the
// majority threshold is outvoted like any other dissent, but with the
// whole group stacked on one value the dissent is maximally
// concentrated.
func TestColludingMinorityIsOutvoted(t *testing.T) {
	farm, err := NewFarm(7, ident)
	if err != nil {
		t.Fatal(err)
	}
	o := farm.RoundShared(7, firstK(3), xrand.New(2))
	if !o.HasMajority || !o.Correct {
		t.Fatalf("4 honest of 7 lost the vote: %+v", o)
	}
	if o.Dissent != 3 {
		t.Fatalf("dissent %d, want 3", o.Dissent)
	}
}

// TestColludingSharedParity: RoundShared and the packed-ballot form of
// a colluding round the batch campaign engine runs — one CorruptValue
// draw shared by the first k replicas, tallied by TallyWords — produce
// identical outcomes and identical rng consumption from the same state.
func TestColludingSharedParity(t *testing.T) {
	const n = 7
	words := make([]uint64, DissentWords(n))
	vals := make([]uint64, n)
	for _, k := range []int{0, 1, 2, 3, 5, 7} {
		ref, err := NewFarm(n, ident)
		if err != nil {
			t.Fatal(err)
		}
		a, b := xrand.New(99), xrand.New(99)
		for round := uint64(0); round < 50; round++ {
			ro := ref.RoundShared(round, firstK(k), a)
			for i := 0; i < k; i++ {
				if i == 0 {
					vals[0] = CorruptValue(round, b)
				} else {
					vals[i] = vals[0]
				}
			}
			SetFirstK(words, k)
			po := TallyWords(n, round, words, vals[:k], nil)
			if po.HasMajority != ro.HasMajority || po.Value != ro.Value ||
				po.Dissent != ro.Dissent || po.DTOF != ro.DTOF || po.Correct != ro.Correct {
				t.Fatalf("k=%d round %d: packed %+v vs RoundShared %+v", k, round, po, ro)
			}
			if a.State() != b.State() {
				t.Fatalf("k=%d round %d: rng streams diverged", k, round)
			}
		}
	}
}

// TestColludingClampsK: a group size below zero corrupts no replica,
// one above n corrupts all of them.
func TestColludingClampsK(t *testing.T) {
	farm, err := NewFarm(3, ident)
	if err != nil {
		t.Fatal(err)
	}
	if o := farm.RoundShared(1, firstK(-4), xrand.New(3)); o.Failed() {
		t.Fatalf("negative k corrupted the round: %+v", o)
	}
	o := farm.RoundShared(1, firstK(100), xrand.New(3))
	if !o.Failed() || o.Dissent != 0 {
		// All replicas collude: unanimous wrong consensus.
		t.Fatalf("over-dimensioned k did not corrupt every replica: %+v", o)
	}
}

// TestColludingZeroKConsumesNoRandomness: rng is untouched when no
// replica colludes, so the batch engine and the reference loop keep
// their streams aligned across calm rounds.
func TestColludingZeroKConsumesNoRandomness(t *testing.T) {
	farm, err := NewFarm(3, ident)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(4)
	before := rng.State()
	farm.RoundShared(5, firstK(0), rng)
	farm.RoundShared(5, nil, rng)
	farm.RoundShared(5, func(int) bool { return false }, rng)
	if rng.State() != before {
		t.Fatal("calm round consumed randomness")
	}
}
