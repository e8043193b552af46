// Packed-ballot tallying: the bitset fast path behind the batch
// campaign engine (internal/experiments/batch.go).
//
// A batch round does not materialize one ballot word per replica. It
// records which replicas dissent as a bitmask in []uint64 words, plus
// the dissenting values in rank order, and tallies with popcount
// (math/bits.OnesCount64): when the golden value holds a strict
// majority — every round of the paper's campaigns outside a heavy storm
// peak — the outcome is fully determined by the dissent count alone.
// Only when golden lacks a strict majority are the ballots materialized
// and handed to the exact scalar tally, so the tie-break semantics
// (first-appearance order, golden preferred on count ties) are shared
// with Round by construction, not by reimplementation.

package voting

import (
	"fmt"
	"math/bits"

	"aft/internal/xrand"
)

// DissentWords returns how many uint64 words a dissent bitmask for n
// replicas occupies.
func DissentWords(n int) int { return (n + 63) / 64 }

// SetFirstK writes the first-K corruption pattern of the §3.3 storm
// model into a dissent bitmask: bits 0..k-1 set, every other bit (and
// every remaining word) cleared. k is clamped to [0, 64*len(words)].
func SetFirstK(words []uint64, k int) {
	if k < 0 {
		k = 0
	}
	if max := 64 * len(words); k > max {
		k = max
	}
	for i := range words {
		switch {
		case k >= 64:
			words[i] = ^uint64(0)
			k -= 64
		case k > 0:
			words[i] = (uint64(1) << uint(k)) - 1
			k = 0
		default:
			words[i] = 0
		}
	}
}

// CorruptValue draws a corrupted ballot value guaranteed to differ from
// golden, consuming rng exactly as the scalar voting paths do (retry
// while the draw collides with golden). A nil rng yields the fixed
// golden^0xDEADBEEFDEADBEEF marker, as in Round with a nil generator.
func CorruptValue(golden uint64, rng *xrand.Rand) uint64 {
	return corruptValue(golden, rng)
}

// TallyWords computes a round outcome from a packed ballot: n replicas,
// of which the ones whose bit is set in dissent voted a non-golden
// value, and the rest voted golden. vals holds the dissenting values in
// bit-rank order (vals[0] is the value of the lowest set bit) and must
// have exactly popcount(dissent) entries over the first n bits; bits at
// positions >= n are ignored.
//
// The outcome is identical, field for field except Votes, to
// Tally(ballots, golden) over the materialized ballot slice. On the two
// popcount fast paths (unanimous consensus, golden strict majority)
// Votes is nil — no ballot slice ever exists. On the no-golden-majority
// fallback the ballots are materialized into scratch (reused when its
// capacity is at least n, freshly allocated otherwise) and Votes
// aliases it.
func TallyWords(n int, golden uint64, dissent []uint64, vals []uint64, scratch []uint64) Outcome {
	if n <= 0 {
		return Outcome{}
	}
	if need := DissentWords(n); len(dissent) < need {
		panic(fmt.Sprintf("voting: TallyWords: %d dissent words for %d replicas, need %d",
			len(dissent), n, need))
	}
	// Column-sum the dissent bits with popcount, masking the partial
	// final word so stray bits beyond n cannot inflate the count.
	d := 0
	full := n / 64
	for i := 0; i < full; i++ {
		d += bits.OnesCount64(dissent[i])
	}
	if tail := uint(n % 64); tail != 0 {
		d += bits.OnesCount64(dissent[full] & ((uint64(1) << tail) - 1))
	}
	if len(vals) != d {
		panic(fmt.Sprintf("voting: TallyWords: %d dissent values for %d set bits", len(vals), d))
	}
	if d == 0 {
		// Unanimous golden consensus — the same outcome tally's
		// all-golden fast path produces.
		return Outcome{
			N: n, HasMajority: true, Value: golden,
			Dissent: 0, DTOF: MaxDTOF(n), Correct: true,
		}
	}
	if n-d > n/2 {
		// Golden holds a strict majority outright: no dissenting value
		// can reach its count (each has at most d < n-d votes), so the
		// scalar tally would elect golden with bestCount = n-d.
		return Outcome{
			N: n, HasMajority: true, Value: golden,
			Dissent: d, DTOF: DTOF(n, d), Correct: true,
		}
	}
	// Golden lacks a strict majority (heavy corruption, or duplicate
	// corrupt values could outvote it): materialize the ballots in
	// replica order and run the exact scalar tally, inheriting its
	// first-appearance tie-break.
	votes := scratch
	if cap(votes) < n {
		votes = make([]uint64, n)
	}
	votes = votes[:n]
	rank := 0
	for i := 0; i < n; i++ {
		if dissent[i>>6]&(uint64(1)<<uint(i&63)) != 0 {
			votes[i] = vals[rank]
			rank++
		} else {
			votes[i] = golden
		}
	}
	return tally(votes, golden)
}
