package redundancy

import (
	"testing"

	"aft/internal/voting"
	"aft/internal/xrand"
)

// drive steps the switchboard through a deterministic mixed workload:
// quiet stretches (building the lowering streak) punctuated by
// corruption spikes (forcing raises).
func drive(sb *Switchboard, rounds int, seed uint64) {
	rng := xrand.New(seed)
	for i := 0; i < rounds; i++ {
		k := 0
		if i%97 == 0 {
			k = 2
		}
		sb.StepFaultyRef(uint64(i), k, false, false, rng)
	}
}

// TestSwitchboardStateRoundTrip captures the state mid-campaign,
// restores it into a fresh organ, and drives both forward in lockstep:
// every observable — outcomes, resize decisions, nonces — must match.
func TestSwitchboardStateRoundTrip(t *testing.T) {
	orig := newTestSwitchboard(t)
	rng := xrand.New(1906)
	drive(orig, 2500, 7)

	clone := newTestSwitchboard(t)
	if err := clone.RestoreState(orig.ExportState()); err != nil {
		t.Fatal(err)
	}
	cloneRng := xrand.New(1906)
	for i := 0; i < 1000; i++ {
		rng.Uint64()
		cloneRng.Uint64()
	}

	for i := 0; i < 3000; i++ {
		k := 0
		if i%53 == 0 {
			k = 3
		}
		ao, ar := orig.StepFaultyRef(uint64(i), k, false, false, rng)
		bo, br := clone.StepFaultyRef(uint64(i), k, false, false, cloneRng)
		if ao.N != bo.N || ao.DTOF != bo.DTOF || ao.Dissent != bo.Dissent || ar != br {
			t.Fatalf("round %d diverged: %+v/%v vs %+v/%v", i, ao, ar, bo, br)
		}
	}
	if orig.LastNonce() != clone.LastNonce() || orig.Resizes() != clone.Resizes() {
		t.Fatalf("counters diverged: nonce %d/%d resizes %d/%d",
			orig.LastNonce(), clone.LastNonce(), orig.Resizes(), clone.Resizes())
	}
	ar, al := orig.Controller().Stats()
	br, bl := clone.Controller().Stats()
	if ar != br || al != bl {
		t.Fatalf("controller stats diverged: %d/%d vs %d/%d", ar, al, br, bl)
	}
}

// TestRestoreStateRejectsCorruptStates exercises the validation paths a
// corrupt snapshot would hit.
func TestRestoreStateRejectsCorruptStates(t *testing.T) {
	base := newTestSwitchboard(t)
	drive(base, 500, 1)
	good := base.ExportState()

	cases := []struct {
		name string
		mod  func(*SwitchboardState)
	}{
		{"controller N below band", func(s *SwitchboardState) { s.Controller.N = 1; s.Farm.Replicas = 1 }},
		{"controller N above band", func(s *SwitchboardState) { s.Controller.N = 11; s.Farm.Replicas = 11 }},
		{"controller N even", func(s *SwitchboardState) { s.Controller.N = 4; s.Farm.Replicas = 4 }},
		{"negative quiet streak", func(s *SwitchboardState) { s.Controller.Quiet = -1 }},
		{"quiet streak past LowerAfter", func(s *SwitchboardState) { s.Controller.Quiet = 1000 }},
		{"negative raises", func(s *SwitchboardState) { s.Controller.Raises = -1 }},
		{"farm/controller disagreement", func(s *SwitchboardState) { s.Farm.Replicas = 5 }},
		{"negative farm rounds", func(s *SwitchboardState) { s.Farm.Rounds = -1 }},
		{"failures exceed rounds", func(s *SwitchboardState) { s.Farm.Failures = s.Farm.Rounds + 1 }},
		{"negative resizes", func(s *SwitchboardState) { s.Resizes = -1 }},
	}
	for _, tc := range cases {
		st := good
		tc.mod(&st)
		sb := newTestSwitchboard(t)
		if err := sb.RestoreState(st); err == nil {
			t.Errorf("%s: RestoreState accepted %+v", tc.name, st)
		}
	}

	// The untouched export must restore cleanly.
	if err := newTestSwitchboard(t).RestoreState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// TestFarmStateRoundTrip covers the farm-level export in isolation.
func TestFarmStateRoundTrip(t *testing.T) {
	farm, err := voting.NewFarm(5, func(v uint64) uint64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	for i := 0; i < 100; i++ {
		farm.Round(uint64(i), func(j int) bool { return j < i%7 }, rng)
	}
	st := farm.ExportState()

	clone, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if clone.N() != farm.N() {
		t.Fatalf("replicas %d vs %d", clone.N(), farm.N())
	}
	ar, af := farm.Stats()
	br, bf := clone.Stats()
	if ar != br || af != bf {
		t.Fatalf("stats %d/%d vs %d/%d", ar, af, br, bf)
	}
	if err := clone.RestoreState(voting.FarmState{Replicas: 4}); err == nil {
		t.Fatal("even replica count accepted")
	}
}
