package scenario

import (
	"strings"
	"testing"
)

// TestDifferentialParity proves, for every committed scenario, that the
// batch campaign engine and the pre-engine reference loop agree on the
// organ track's complete outcome — the scenario suite doubles as a
// standing differential test of the §3.3 hot path.
func TestDifferentialParity(t *testing.T) {
	for _, spec := range Builtins() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rep, err := Differential(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rounds != spec.OrganRounds() {
				t.Fatalf("differential covered %d rounds, want %d", rep.Rounds, spec.OrganRounds())
			}
			if spec.Organ && rep.Transcript == "" {
				t.Fatal("organ scenario produced an empty differential transcript")
			}
		})
	}
}

// TestDifferentialAcrossSeeds re-runs parity on seeds other than the
// spec default, so the agreement is not an artifact of one stream.
func TestDifferentialAcrossSeeds(t *testing.T) {
	spec, ok := Builtin("storm-ramp")
	if !ok {
		t.Fatal("storm-ramp builtin missing")
	}
	for _, seed := range []uint64{1, 7, 0xDEADBEEF} {
		if _, err := Differential(spec, seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialMatchesRunner anchors the differential replay to the
// Runner itself: the corruption track the diff engines consume must be
// the one the live run fed the switchboard, so the three paths (runner,
// batch, reference) all describe the same campaign.
func TestDifferentialMatchesRunner(t *testing.T) {
	for _, name := range []string{"storm-ramp", "transient-burst", "teardown"} {
		spec, ok := Builtin(name)
		if !ok {
			t.Fatalf("%s builtin missing", name)
		}
		res, err := Run(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Differential(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The Runner's organ summary counters must appear verbatim in
		// the differential transcript (same failures, same rounds).
		if !strings.Contains(rep.Transcript, "voting failures: ") {
			t.Fatalf("unexpected differential transcript:\n%s", rep.Transcript)
		}
		if res.OrganRounds != rep.Rounds {
			t.Errorf("%s: runner ran %d organ rounds, differential %d", name, res.OrganRounds, rep.Rounds)
		}
	}
}

func TestDifferentialRejectsInvalidSpec(t *testing.T) {
	spec, _ := Builtin("quiet")
	spec.Horizon = 0
	if _, err := Differential(spec, 0); err == nil {
		t.Fatal("Differential accepted an invalid spec")
	}
}
