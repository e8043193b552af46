package voting

import (
	"testing"
	"testing/quick"

	"aft/internal/xrand"
)

func ident(v uint64) uint64 { return v }

// TestFig5DTOFTable reproduces the paper's Fig. 5: a 7-replica organ
// moving from consensus (distance 4) through growing dissent to failure
// (distance 0).
func TestFig5DTOFTable(t *testing.T) {
	tests := []struct {
		m    int
		want int
	}{
		{0, 4}, // (a) consensus: farthest from failure
		{1, 3},
		{2, 2}, // (b)-(c): dissent shrinks the distance
		{3, 1},
		{4, 0}, // (d) no majority possible at m=4 of 7 -> 0 anyway
	}
	for _, tt := range tests {
		if got := DTOF(7, tt.m); got != tt.want {
			t.Errorf("DTOF(7,%d) = %d, want %d", tt.m, got, tt.want)
		}
	}
}

func TestDTOFClamp(t *testing.T) {
	if got := DTOF(3, 3); got != 0 {
		t.Fatalf("DTOF(3,3) = %d, want 0 (clamped)", got)
	}
	if got := DTOF(5, 100); got != 0 {
		t.Fatalf("DTOF(5,100) = %d, want 0", got)
	}
}

func TestMaxDTOF(t *testing.T) {
	for n, want := range map[int]int{1: 1, 3: 2, 5: 3, 7: 4, 9: 5} {
		if got := MaxDTOF(n); got != want {
			t.Errorf("MaxDTOF(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: DTOF is within [0, MaxDTOF(n)] and decreases by exactly 1
// per extra dissenter until it hits 0.
func TestDTOFProperty(t *testing.T) {
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw)%15*2 + 1 // odd, 1..29
		m := int(mRaw) % (n + 1)
		d := DTOF(n, m)
		if d < 0 || d > MaxDTOF(n) {
			return false
		}
		if m > 0 {
			prev := DTOF(n, m-1)
			if prev > 0 && prev-d != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewFarmValidation(t *testing.T) {
	if _, err := NewFarm(3, nil); err == nil {
		t.Fatal("nil method accepted")
	}
	if _, err := NewFarm(0, ident); err == nil {
		t.Fatal("zero replicas accepted")
	}
	if _, err := NewFarm(4, ident); err == nil {
		t.Fatal("even replicas accepted")
	}
}

func TestSetReplicas(t *testing.T) {
	f, err := NewFarm(3, ident)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SetReplicas(7); err != nil {
		t.Fatal(err)
	}
	if f.N() != 7 {
		t.Fatalf("N() = %d", f.N())
	}
	if err := f.SetReplicas(4); err == nil {
		t.Fatal("even resize accepted")
	}
	if err := f.SetReplicas(-1); err == nil {
		t.Fatal("negative resize accepted")
	}
}

func TestCleanRoundConsensus(t *testing.T) {
	f, err := NewFarm(7, ident)
	if err != nil {
		t.Fatal(err)
	}
	o := f.Round(42, nil, nil)
	if !o.HasMajority || o.Value != 42 || !o.Correct {
		t.Fatalf("clean round = %+v", o)
	}
	if o.Dissent != 0 || o.DTOF != 4 {
		t.Fatalf("clean round dissent/dtof = %d/%d, want 0/4", o.Dissent, o.DTOF)
	}
	if o.Failed() {
		t.Fatal("clean round failed")
	}
}

func TestCorruptedMinorityMasked(t *testing.T) {
	f, err := NewFarm(7, ident)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	// Corrupt replicas 0..2 (3 of 7): majority of 4 survives.
	o := f.Round(42, func(i int) bool { return i < 3 }, rng)
	if !o.HasMajority || o.Value != 42 || !o.Correct {
		t.Fatalf("outcome = %+v", o)
	}
	if o.Dissent != 3 || o.DTOF != 1 {
		t.Fatalf("dissent/dtof = %d/%d, want 3/1", o.Dissent, o.DTOF)
	}
}

func TestCorruptedMajorityFails(t *testing.T) {
	f, err := NewFarm(7, ident)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(2)
	// Corrupt 4 of 7 with random (distinct) garbage: the correct votes
	// are only 3, no strict majority.
	o := f.Round(42, func(i int) bool { return i < 4 }, rng)
	if o.HasMajority {
		// Random corruption could in principle collide; with this seed it
		// does not.
		t.Fatalf("outcome = %+v, expected no majority", o)
	}
	if o.DTOF != 0 {
		t.Fatalf("failed round DTOF = %d, want 0", o.DTOF)
	}
	if !o.Failed() {
		t.Fatal("Failed() = false on majority loss")
	}
	_, failures := f.Stats()
	if failures != 1 {
		t.Fatalf("failures = %d", failures)
	}
}

func TestWrongMajorityIsFailure(t *testing.T) {
	// If corrupted replicas all agree on the same wrong value and
	// outnumber the correct ones, the organ reports a majority that is
	// not correct — Failed() must be true.
	votes := []uint64{7, 7, 7, 42, 42}
	o := Tally(votes, 42)
	if !o.HasMajority || o.Value != 7 {
		t.Fatalf("tally = %+v", o)
	}
	if o.Correct || !o.Failed() {
		t.Fatal("wrong majority not flagged as failure")
	}
}

func TestTallyTieBreaksTowardGolden(t *testing.T) {
	// With equal counts, prefer golden as "the" candidate value (it
	// cannot reach majority anyway at a tie, but Dissent bookkeeping
	// stays sane).
	votes := []uint64{1, 1, 42, 42}
	o := Tally(votes, 42)
	if o.HasMajority {
		t.Fatalf("tie produced a majority: %+v", o)
	}
	if o.DTOF != 0 {
		t.Fatalf("tie DTOF = %d", o.DTOF)
	}
}

func TestTallyEmpty(t *testing.T) {
	o := Tally(nil, 0)
	if o.N != 0 || o.HasMajority {
		t.Fatalf("empty tally = %+v", o)
	}
}

func TestCorruptValueNeverEqualsGolden(t *testing.T) {
	rng := xrand.New(3)
	for i := 0; i < 1000; i++ {
		g := rng.Uint64()
		if corruptValue(g, rng) == g {
			t.Fatal("corruption produced the golden value")
		}
	}
	if corruptValue(5, nil) == 5 {
		t.Fatal("nil-rng corruption produced the golden value")
	}
}

// Property: with fewer than ceil(n/2) corrupted replicas the organ
// always produces the correct value.
func TestMinorityCorruptionMaskedProperty(t *testing.T) {
	f := func(seed uint64, nRaw, badRaw uint8) bool {
		n := int(nRaw)%7*2 + 3 // odd, 3..15
		maxBad := (n - 1) / 2
		bad := int(badRaw) % (maxBad + 1)
		farm, err := NewFarm(n, ident)
		if err != nil {
			return false
		}
		rng := xrand.New(seed)
		o := farm.Round(99, func(i int) bool { return i < bad }, rng)
		return o.HasMajority && o.Correct && o.Dissent == bad &&
			o.DTOF == DTOF(n, bad)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: DTOF of any outcome equals DTOF(N, Dissent) when a majority
// exists and 0 otherwise.
func TestOutcomeDTOFConsistencyProperty(t *testing.T) {
	f := func(seed uint64, badRaw uint8) bool {
		farm, err := NewFarm(9, ident)
		if err != nil {
			return false
		}
		bad := int(badRaw) % 10
		rng := xrand.New(seed)
		o := farm.Round(7, func(i int) bool { return i < bad }, rng)
		if o.HasMajority {
			return o.DTOF == DTOF(o.N, o.Dissent)
		}
		return o.DTOF == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTallySmallMatchesMap cross-checks the stack tally against the map
// tally on random ballot multisets drawn from a tiny alphabet (to force
// collisions, ties, and wrong majorities).
func TestTallySmallMatchesMap(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(smallOrgan) + 1
		votes := make([]uint64, n)
		for i := range votes {
			votes[i] = uint64(rng.Intn(4)) // alphabet {0..3}
		}
		golden := uint64(rng.Intn(4))
		a := tallySmall(votes, golden)
		b := tallyMap(votes, golden)
		if a.HasMajority != b.HasMajority || a.Dissent != b.Dissent ||
			a.DTOF != b.DTOF || a.Correct != b.Correct {
			t.Fatalf("tally mismatch on %v golden=%d: small=%+v map=%+v",
				votes, golden, a, b)
		}
		if a.HasMajority && a.Value != b.Value {
			t.Fatalf("majority value mismatch on %v golden=%d: %d vs %d",
				votes, golden, a.Value, b.Value)
		}
	}
}

func BenchmarkRoundClean(b *testing.B) {
	f, err := NewFarm(7, ident)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Round(uint64(i), nil, nil)
	}
}

func BenchmarkRoundWithCorruption(b *testing.B) {
	f, err := NewFarm(7, ident)
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	corrupt := func(i int) bool { return i == 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Round(uint64(i), corrupt, rng)
	}
}
