// Package voting implements the replication-and-voting service of the
// paper's §3.3: a "restoring organ" in the style of the EFTOS Voting
// Farm, set up "after the user supplied the number of replicas and the
// method to replicate".
//
// After each voting round the package computes the paper's
// distance-to-failure
//
//	dtof(n, m) = ceil(n/2) − m
//
// where n is the number of replicas and m the number of votes that
// differ from the majority; dtof is 0 when no majority exists. dtof lies
// in [0, ceil(n/2)]: the maximum is reached at full consensus, and the
// larger the dissent the closer the organ is to failure (Fig. 5). The
// autonomic controller of package redundancy consumes these outcomes.
package voting

import (
	"fmt"

	"aft/internal/xrand"
)

// Method is the user-supplied computation to replicate.
type Method func(input uint64) uint64

// DTOF computes the paper's distance-to-failure for n replicas of which
// m dissent from the majority. Callers must pass m = n (or any m ≥
// ceil(n/2)) when no majority exists; the result is clamped to 0.
func DTOF(n, m int) int {
	d := (n+1)/2 - m
	if d < 0 {
		return 0
	}
	return d
}

// MaxDTOF returns the distance at full consensus, ceil(n/2).
func MaxDTOF(n int) int { return (n + 1) / 2 }

// Outcome reports one voting round.
type Outcome struct {
	// N is the number of replicas that voted.
	N int
	// Votes are the raw ballots, one per replica.
	Votes []uint64
	// HasMajority reports whether any value got a strict majority
	// (> n/2 identical votes).
	HasMajority bool
	// Value is the majority value when HasMajority.
	Value uint64
	// Dissent is m: the number of votes differing from the majority
	// value. When no majority exists it equals N.
	Dissent int
	// DTOF is the distance-to-failure of this round.
	DTOF int
	// Correct reports whether the majority value equals the golden
	// (fault-free) result of the replicated method.
	Correct bool
}

// Failed reports whether the round failed to produce a correct majority,
// either because no majority existed or because the majority was wrong.
func (o Outcome) Failed() bool { return !o.HasMajority || !o.Correct }

// Farm is the restoring organ: n replicas of a method plus a majority
// voter.
type Farm struct {
	method Method
	n      int

	rounds   int64
	failures int64
}

// NewFarm builds a restoring organ with n replicas of method. n must be
// positive and odd (an even organ wastes a replica without improving the
// vote; the paper's experiments use 3–9).
func NewFarm(n int, method Method) (*Farm, error) {
	if method == nil {
		return nil, fmt.Errorf("voting: nil method")
	}
	f := &Farm{method: method}
	if err := f.SetReplicas(n); err != nil {
		return nil, err
	}
	return f, nil
}

// N reports the current number of replicas.
func (f *Farm) N() int { return f.n }

// SetReplicas resizes the organ. The new count must be positive and odd.
func (f *Farm) SetReplicas(n int) error {
	if n <= 0 {
		return fmt.Errorf("voting: replica count %d must be positive", n)
	}
	if n%2 == 0 {
		return fmt.Errorf("voting: replica count %d must be odd", n)
	}
	f.n = n
	return nil
}

// Round executes one replicated computation and vote. corrupted reports,
// for each replica index, whether the environment corrupts that
// replica's result this round (nil means no corruption). rng supplies
// the corrupted values; it may be nil when corrupted is nil.
func (f *Farm) Round(input uint64, corrupted func(i int) bool, rng *xrand.Rand) Outcome {
	golden := f.method(input)
	votes := make([]uint64, f.n)
	for i := range votes {
		votes[i] = golden
		if corrupted != nil && corrupted(i) {
			votes[i] = corruptValue(golden, rng)
		}
	}
	o := tally(votes, golden)
	f.rounds++
	if o.Failed() {
		f.failures++
	}
	return o
}

// RoundShared executes one replicated computation where the corrupted
// replicas are a colluding (Byzantine) voter group: corrupted reports,
// per replica index, membership in the group, and every member casts
// the same wrong value, drawn once from rng on the first corrupted
// replica. A group of more than n/2 colluders therefore elects a wrong
// majority that independent faults of the same intensity almost never
// produce — the fault model behind the chaos harness's "collude"
// phases. Ballots are heap-allocated per round, like Round; the batch
// campaign engine reproduces the same ballots and rng consumption on
// packed words.
func (f *Farm) RoundShared(input uint64, corrupted func(i int) bool, rng *xrand.Rand) Outcome {
	golden := f.method(input)
	votes := make([]uint64, f.n)
	drawn := false
	var shared uint64
	for i := range votes {
		votes[i] = golden
		if corrupted != nil && corrupted(i) {
			if !drawn {
				shared = corruptValue(golden, rng)
				drawn = true
			}
			votes[i] = shared
		}
	}
	o := tally(votes, golden)
	f.rounds++
	if o.Failed() {
		f.failures++
	}
	return o
}

// corruptValue produces a value guaranteed to differ from golden.
func corruptValue(golden uint64, rng *xrand.Rand) uint64 {
	if rng == nil {
		return golden ^ 0xDEADBEEFDEADBEEF
	}
	v := rng.Uint64()
	for v == golden {
		v = rng.Uint64()
	}
	return v
}

// smallOrgan is the largest organ tallied on the stack. The paper's
// experiments use 3–9 replicas; anything within smallOrgan tallies with
// zero heap allocations, larger organs fall back to a map.
const smallOrgan = 16

// tally computes the round outcome from raw ballots.
func tally(votes []uint64, golden uint64) Outcome {
	n := len(votes)
	// Fast path: unanimous golden consensus, the overwhelmingly common
	// case in the 65-million-round Fig. 7 experiment.
	allGolden := true
	for _, v := range votes {
		if v != golden {
			allGolden = false
			break
		}
	}
	if allGolden {
		return Outcome{
			N: n, Votes: votes, HasMajority: true, Value: golden,
			Dissent: 0, DTOF: MaxDTOF(n), Correct: true,
		}
	}
	if n <= smallOrgan {
		return tallySmall(votes, golden)
	}
	return tallyMap(votes, golden)
}

// tallySmall counts distinct ballot values in fixed-size stack arrays —
// no map, no heap. Every storm round lands here: the organ holds at most
// 9 replicas in the paper's regime, so at most 9 distinct values appear
// (and in the common dissent shapes only 2).
func tallySmall(votes []uint64, golden uint64) Outcome {
	var vals [smallOrgan]uint64
	var counts [smallOrgan]int
	distinct := 0
	for _, v := range votes {
		found := false
		for j := 0; j < distinct; j++ {
			if vals[j] == v {
				counts[j]++
				found = true
				break
			}
		}
		if !found {
			vals[distinct] = v
			counts[distinct] = 1
			distinct++
		}
	}
	bestVal, bestCount := uint64(0), 0
	for j := 0; j < distinct; j++ {
		if counts[j] > bestCount || (counts[j] == bestCount && vals[j] == golden) {
			bestVal, bestCount = vals[j], counts[j]
		}
	}
	return finishTally(votes, golden, bestVal, bestCount)
}

// tallyMap is the fallback for organs larger than smallOrgan.
func tallyMap(votes []uint64, golden uint64) Outcome {
	counts := make(map[uint64]int, 2)
	for _, v := range votes {
		counts[v]++
	}
	// Select the winner by scanning votes — first-appearance order, the
	// same tie-break the stack path uses — never by ranging the map: on
	// a count tie between non-golden values, map order would pick the
	// winner.
	bestVal, bestCount := uint64(0), 0
	for _, v := range votes {
		if c := counts[v]; c > bestCount || (c == bestCount && v == golden) {
			bestVal, bestCount = v, c
		}
	}
	return finishTally(votes, golden, bestVal, bestCount)
}

// finishTally derives the Outcome from the winning candidate.
func finishTally(votes []uint64, golden, bestVal uint64, bestCount int) Outcome {
	n := len(votes)
	o := Outcome{N: n, Votes: votes}
	if bestCount > n/2 {
		o.HasMajority = true
		o.Value = bestVal
		o.Dissent = n - bestCount
		o.Correct = bestVal == golden
	} else {
		o.Dissent = n
	}
	o.DTOF = DTOF(n, o.Dissent)
	if !o.HasMajority {
		o.DTOF = 0
	}
	return o
}

// Tally exposes the vote-counting core for tests and for harnesses that
// generate ballots themselves.
func Tally(votes []uint64, golden uint64) Outcome {
	if len(votes) == 0 {
		return Outcome{}
	}
	return tally(votes, golden)
}

// Stats reports the cumulative number of rounds and failed rounds.
func (f *Farm) Stats() (rounds, failures int64) {
	return f.rounds, f.failures
}
