// Package gen is the generative half of the chaos harness: a
// seed-deterministic random generator over the full scenario.Spec
// space, a checker that classifies how a generated spec fails (an
// invariant violation, a batch-vs-reference differential divergence, a
// panic), and a shrinker that minimizes a failing spec while
// preserving the exact failure.
//
// The generator is the fuzzing front end of internal/scenario: where
// the builtin suite covers eight hand-picked adversity profiles, a
// generated corpus sweeps phase counts, boundary-biased model
// parameters, over-dimensioned corruption, colluding voter groups,
// organ↔controller partitions, clock-skewed watchdogs, resize-attack
// mixes, and teardown timing — the combinations nobody thought to
// write down. Everything is a pure function of the generator seed: the
// same seed yields a byte-identical spec corpus, so a failing index is
// a complete reproducer until the shrinker produces a better one.
package gen

import (
	"fmt"

	"aft/internal/redundancy"
	"aft/internal/scenario"
	"aft/internal/xrand"
)

// Generator emits a deterministic stream of random scenario specs.
// Construct with New; each Next call returns the next spec of the
// seed's corpus. Every emitted spec passes scenario.Spec.Validate.
type Generator struct {
	rng  *xrand.Rand
	seed uint64
	idx  int
}

// New builds a generator for the given corpus seed.
func New(seed uint64) *Generator {
	return &Generator{rng: xrand.New(seed), seed: seed}
}

// prob draws a boundary-biased probability: the interesting corners of
// [0,1] (never, almost-never, almost-always, always) are sampled far
// more often than a uniform draw would.
func (g *Generator) prob() float64 {
	switch g.rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return 0.01
	case 3:
		return 0.99
	default:
		return g.rng.Float64()
	}
}

// horizon draws a run length, biased small: short horizons shrink the
// search space and most schedule bugs do not need long runs to appear.
func (g *Generator) horizon() int64 {
	switch g.rng.Intn(5) {
	case 0:
		return 10 + int64(g.rng.Intn(30))
	case 1:
		return 40 + int64(g.rng.Intn(60))
	case 2:
		return 100 + int64(g.rng.Intn(400))
	case 3:
		return 500 + int64(g.rng.Intn(1000))
	default:
		return 1500 + int64(g.rng.Intn(2500))
	}
}

// policy draws a switchboard policy: half the corpus runs the paper's
// default band, the rest sweeps narrow bands, degenerate Min==Max
// bands, large steps, and hair-trigger lowering.
func (g *Generator) policy() redundancy.Policy {
	if g.rng.Bool(0.5) {
		return redundancy.DefaultPolicy()
	}
	min := 1 + 2*g.rng.Intn(3)      // 1, 3, 5
	max := min + 2*g.rng.Intn(4)    // min .. min+6, odd
	step := 2 * (1 + g.rng.Intn(2)) // 2, 4
	// crit sweeps from "never raise" up past any reachable dtof, so
	// the corpus includes constant-raise controllers thrashing against
	// hair-trigger lowering.
	crit := g.rng.Intn(max + 2)
	lowerAfter := []int{1, 10, 100, 1000}[g.rng.Intn(4)]
	return redundancy.Policy{Min: min, Max: max, CriticalDTOF: crit, Step: step, LowerAfter: lowerAfter}
}

// model draws a fault model with boundary-biased parameters. Scripted
// strikes are drawn inside [0, window) — the phase's live steps — so
// they can actually fire; window is at least 1.
func (g *Generator) model(window int64) scenario.ModelSpec {
	switch g.rng.Intn(5) {
	case 0:
		return scenario.ModelSpec{Kind: "never"}
	case 1:
		return scenario.ModelSpec{Kind: "always"}
	case 2:
		return scenario.ModelSpec{Kind: "bernoulli", P: g.prob()}
	case 3:
		return scenario.ModelSpec{
			Kind:      "burst",
			PGood:     g.prob(),
			PBad:      g.prob(),
			GoodToBad: g.prob(),
			BadToGood: g.prob(),
		}
	default:
		n := 1 + g.rng.Intn(4)
		var strikes []int64
		for i := 0; i < n; i++ {
			st := int64(g.rng.Intn(int(window)))
			dup := false
			for _, have := range strikes {
				if have == st {
					dup = true
					break
				}
			}
			if !dup {
				strikes = append(strikes, st)
			}
		}
		return scenario.ModelSpec{Kind: "scripted", Strikes: strikes}
	}
}

// Next returns the next spec of the corpus. The sequence is a pure
// function of the generator seed.
func (g *Generator) Next() scenario.Spec {
	s := scenario.Spec{
		Name:        fmt.Sprintf("gen-%d-%d", g.seed, g.idx),
		Description: "generated chaos scenario",
		Seed:        g.rng.Uint64(),
		Horizon:     g.horizon(),
	}
	g.idx++
	if s.Seed == 0 {
		s.Seed = 1
	}

	s.Organ = g.rng.Bool(0.75)
	if g.rng.Bool(0.7) {
		s.Executor = &scenario.ExecutorSpec{Spares: g.rng.Intn(4), MaxRetries: g.rng.Intn(4)}
	}
	for i, n := 0, g.rng.Intn(3); i < n; i++ {
		interval := int64(1 + g.rng.Intn(30))
		deadline := int64(1 + g.rng.Intn(60))
		s.Watchdogs = append(s.Watchdogs, scenario.WatchdogSpec{
			Name:     fmt.Sprintf("wd-%d", i),
			Interval: interval,
			Deadline: deadline,
		})
	}
	if !s.Organ && s.Executor == nil && len(s.Watchdogs) == 0 {
		// A spec with no subsystem at all has nothing to fuzz.
		s.Organ = true
	}
	if s.Organ {
		s.Policy = g.policy()
		if g.rng.Bool(0.25) {
			s.TeardownAt = 1 + int64(g.rng.Intn(int(s.Horizon)))
		}
	}

	nPhases := 1 + g.rng.Intn(6)
	var start int64
	for i := 0; i < nPhases; i++ {
		if start >= s.Horizon {
			break
		}
		ph := scenario.Phase{
			Name:  fmt.Sprintf("p%d", i),
			Start: start,
			Model: g.model(s.Horizon - start),
		}
		g.targets(&ph, s)
		s.Phases = append(s.Phases, ph)
		start += 1 + int64(g.rng.Intn(int(s.Horizon)))
	}

	if s.Organ {
		kinds := []string{scenario.AttackReplay, scenario.AttackForge, scenario.AttackOutOfBand}
		for i, n := 0, g.rng.Intn(4); i < n; i++ {
			s.Replays = append(s.Replays, scenario.ReplaySpec{
				At:   int64(g.rng.Intn(int(s.Horizon))),
				Kind: kinds[g.rng.Intn(len(kinds))],
			})
		}
	}

	if err := s.Validate(); err != nil {
		// The generator is correct by construction; an invalid spec is a
		// bug in this package, not in the spec space.
		panic(fmt.Sprintf("gen: generated invalid spec %s: %v", s.Name, err))
	}
	return s
}

// targets draws a phase's target set, consistent with the spec's
// declared subsystems. A phase whose model can strike always gets at
// least one target (Validate rejects targetless striking phases).
func (g *Generator) targets(ph *scenario.Phase, s scenario.Spec) {
	if s.Organ && g.rng.Bool(0.5) {
		// Boundary-biased corruption: a lone minority voice, a random
		// count inside the band, the whole ceiling, and past the ceiling
		// (the switchboard clamps to the current dimensioning).
		switch g.rng.Intn(4) {
		case 0:
			ph.Corrupt = 1
		case 1:
			ph.Corrupt = 1 + g.rng.Intn(s.Policy.Max)
		case 2:
			ph.Corrupt = s.Policy.Max
		default:
			ph.Corrupt = s.Policy.Max + 2
		}
		ph.Collude = g.rng.Bool(0.4)
	}
	if s.Organ {
		ph.Partition = g.rng.Bool(0.25)
	}
	if s.Executor != nil {
		ph.Upset = g.rng.Bool(0.3)
		ph.Latch = g.rng.Bool(0.15)
	}
	if len(s.Watchdogs) > 0 {
		ph.Crash = g.rng.Bool(0.25)
		if g.rng.Bool(0.5) {
			// Skew around the first watchdog's deadline: just inside,
			// exactly at, just past, and far past the tolerated silence.
			d := s.Watchdogs[0].Deadline
			ph.Skew = []int64{1, d, d + 1, 2 * d}[g.rng.Intn(4)]
		}
	}
	if ph.Corrupt > 0 || ph.Upset || ph.Latch || ph.Crash || ph.Partition || ph.Skew > 0 {
		return
	}
	if ph.Model.Kind == "never" {
		return
	}
	// The model strikes but no target was drawn: force one, from
	// whatever subsystems the spec declares.
	switch {
	case s.Organ:
		ph.Corrupt = 1
	case s.Executor != nil:
		ph.Upset = true
	default:
		ph.Crash = true
	}
}
