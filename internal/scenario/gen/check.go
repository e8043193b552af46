// Classifying how a generated spec fails.
//
// A fuzz campaign needs more than pass/fail: the shrinker must know
// *which* failure it is preserving, or it will happily "minimize" an
// alpha-monotone violation into an unrelated panic. A failure
// signature is a short string — "invariant:<name>" for the first
// invariant violation, "diff" for a batch-vs-reference divergence,
// "panic" for a runtime panic anywhere in the run, "error" for a run
// the harness refuses — and two specs fail the same way exactly when
// their signatures are equal.

package gen

import (
	"fmt"

	"aft/internal/scenario"
)

// Failure signatures that are not invariant names.
const (
	// SigDiff marks a batch-vs-reference differential divergence.
	SigDiff = "diff"
	// SigPanic marks a runtime panic during the run.
	SigPanic = "panic"
	// SigError marks a spec the harness rejects or fails to run.
	SigError = "error"
)

// Check runs the spec under the invariant sweep and, when diff is set,
// the batch-vs-reference differential replay, and classifies the
// outcome: an empty signature means the spec passes, anything else
// names the failure. detail carries the human-readable evidence.
func Check(spec scenario.Spec, diff bool) (sig, detail string) {
	defer func() {
		if p := recover(); p != nil {
			sig, detail = SigPanic, fmt.Sprint(p)
		}
	}()
	res, err := scenario.Run(spec, scenario.Options{})
	if err != nil {
		return SigError, err.Error()
	}
	if len(res.Violations) > 0 {
		v := res.Violations[0]
		return "invariant:" + v.Invariant, v.String()
	}
	if diff {
		if _, err := scenario.Differential(spec, 0); err != nil {
			return SigDiff, err.Error()
		}
	}
	return "", ""
}

// Finding is one failing spec of a campaign, with its shrunk
// reproducer when shrinking was requested.
type Finding struct {
	// Index is the spec's position in the seed's corpus.
	Index int `json:"index"`
	// Spec is the generated spec as it failed.
	Spec scenario.Spec `json:"spec"`
	// Signature classifies the failure (see Check).
	Signature string `json:"signature"`
	// Detail is the failure evidence of the original spec.
	Detail string `json:"detail"`
	// Shrunk is the minimized spec preserving Signature, when the
	// campaign ran with Options.Shrink.
	Shrunk *scenario.Spec `json:"shrunk,omitempty"`
	// ShrinkEvals counts candidate executions the shrinker spent.
	ShrinkEvals int `json:"shrink_evals,omitempty"`
}

// Options configure a fuzz campaign.
type Options struct {
	// Diff adds the batch-vs-reference differential replay to every
	// spec's check.
	Diff bool
	// Shrink minimizes every failing spec before reporting it.
	Shrink bool
}

// Report is the outcome of a fuzz campaign.
type Report struct {
	// Seed is the corpus seed.
	Seed uint64 `json:"seed"`
	// Specs is how many specs were generated and checked.
	Specs int `json:"specs"`
	// Findings lists the failing specs, in corpus order.
	Findings []Finding `json:"findings,omitempty"`
}

// Campaign generates and checks n specs from the seed's corpus. It is
// deterministic: the same (seed, n, opt) produce the same report.
func Campaign(seed uint64, n int, opt Options) Report {
	return campaign(seed, n, opt, Check)
}

// campaign is Campaign with a substitutable checker, so the finding
// and shrinking paths are testable against synthetic oracles.
func campaign(seed uint64, n int, opt Options, check func(scenario.Spec, bool) (string, string)) Report {
	g := New(seed)
	rep := Report{Seed: seed, Specs: n}
	for i := 0; i < n; i++ {
		spec := g.Next()
		sig, detail := check(spec, opt.Diff)
		if sig == "" {
			continue
		}
		f := Finding{Index: i, Spec: spec, Signature: sig, Detail: detail}
		if opt.Shrink {
			s := &shrinker{sig: sig, diff: opt.Diff, check: check, memo: make(map[string]string)}
			shrunk, evals := s.run(spec)
			f.Shrunk = &shrunk
			f.ShrinkEvals = evals
		}
		rep.Findings = append(rep.Findings, f)
	}
	return rep
}
