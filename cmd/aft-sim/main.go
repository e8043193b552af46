// Command aft-sim runs the paper's §3.3 autonomic redundancy simulation
// with configurable length, seed, and disturbance regime, printing the
// Fig. 6-style series (when sampling) and the Fig. 7-style histogram.
//
// With -replicas R > 1 it runs R independent replicas of the campaign
// with seeds derived deterministically from -seed, spread across a
// worker pool (-parallel, 0 = one per CPU), and prints per-replica
// summaries plus the aggregate; replica i's result depends only on
// (seed, i), never on the worker count.
//
// Single runs execute on a width-1 batch campaign (the lockstep
// struct-of-arrays engine) by default; -engine reference selects the
// pre-engine loop for differential runs. The header line names the engine; everything below
// it (the Fig. 6/7 transcripts) is byte-identical across engines, so
// compare with `diff <(aft-sim ... | tail -n +2) <(aft-sim -engine
// reference ... | tail -n +2)`. The -replicas sweep always runs on
// batches (experiments.SweepSeeds), so -engine applies to single runs
// only.
//
// Single runs are checkpointable. -checkpoint FILE writes a snapshot of
// the campaign state (engine buffers, switchboard, PRNG streams — see
// internal/checkpoint) when the run completes; -shards N additionally
// splits the campaign into N sequential shards and rewrites the
// snapshot after each, so a kill between shards loses at most one
// shard's work; -resume FILE continues a snapshotted campaign to its
// configured length, rendering transcripts byte-identical to an
// uninterrupted run. -halt-after K stops after K shards (simulating the
// preemption a later -resume recovers from). Snapshots restore on
// either engine, whatever engine wrote them (the scalar fused engine
// that earlier versions ran included).
//
// Usage:
//
//	aft-sim [-steps N] [-seed S] [-sample K] [-storm-every N] [-max-level L]
//	        [-replicas R] [-parallel W] [-engine batch|reference]
//	        [-checkpoint FILE] [-resume FILE] [-shards N] [-halt-after K]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"aft/internal/checkpoint"
	"aft/internal/cli"
	"aft/internal/experiments"
	"aft/internal/redundancy"
	"aft/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// campaignRunner is the engine-agnostic shape of a steppable campaign;
// experiments.Campaign and experiments.ReferenceCampaign satisfy
// it.
type campaignRunner interface {
	Run(n int64)
	Rounds() int64
	Remaining() int64
	Config() experiments.AdaptiveRunConfig
	Result() experiments.AdaptiveRunResult
	Snapshot() (*checkpoint.Snapshot, error)
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-sim", flag.ContinueOnError)
	steps := fs.Int64("steps", 1_000_000, "number of voting rounds")
	seed := fs.Uint64("seed", 1906, "random seed")
	sample := fs.Int64("sample", 0, "series sampling period (0 = histogram only)")
	stormEvery := fs.Int64("storm-every", 0, "storm onset period (0 = steps/13)")
	maxLevel := fs.Int("max-level", 4, "maximum storm intensity level")
	replicas := fs.Int("replicas", 1, "independent replicas of the campaign")
	parallel := fs.Int("parallel", 0, "worker pool for replicas (0 = one per CPU)")
	engine := fs.String("engine", "batch", "campaign engine for single runs: batch (width-1 lockstep) or reference (pre-engine loop)")
	ckpt := fs.String("checkpoint", "", "write a campaign snapshot to FILE (after every shard with -shards)")
	resume := fs.String("resume", "", "resume the campaign snapshotted in FILE")
	shards := fs.Int("shards", 1, "split the campaign into N sequential checkpointed shards")
	haltAfter := fs.Int("halt-after", 0, "stop after completing K shards this invocation (0 = run to the end)")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}

	if *engine != "batch" && *engine != "reference" {
		return fmt.Errorf("unknown engine %q (want batch or reference)", *engine)
	}

	if *replicas > 1 {
		// The sweep rides the batch engine; refuse the conflicting flags
		// rather than silently ignoring them (transcripts are
		// engine-independent, but a differential run should say so).
		if *engine != "batch" {
			return fmt.Errorf("-engine %s applies to single runs only; the -replicas sweep always uses the batch engine", *engine)
		}
		if *ckpt != "" || *resume != "" || *shards != 1 {
			return fmt.Errorf("-checkpoint/-resume/-shards apply to single runs only")
		}
		cfg := stormConfig(*steps, *seed, *sample, *stormEvery, *maxLevel)
		return runReplicas(cfg, *replicas, *parallel, stdout)
	}
	if *shards < 1 {
		return fmt.Errorf("-shards %d must be at least 1", *shards)
	}
	if *haltAfter < 0 {
		return fmt.Errorf("-halt-after %d must be non-negative", *haltAfter)
	}
	if *haltAfter > 0 && *ckpt == "" {
		return fmt.Errorf("-halt-after needs -checkpoint, or the halted work is lost")
	}

	var c campaignRunner
	var err error
	if *resume != "" {
		// The campaign configuration rides the snapshot; flags that would
		// contradict it are rejected rather than silently ignored.
		var conflict error
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "steps", "seed", "sample", "storm-every", "max-level":
				conflict = fmt.Errorf("-%s conflicts with -resume: the snapshot carries the campaign configuration", f.Name)
			}
		})
		if conflict != nil {
			return conflict
		}
		c, err = restoreCampaign(*resume, *engine)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "resuming %d/%d rounds from %s (seed %d, %s engine)\n",
			c.Rounds(), c.Config().Steps, *resume, c.Config().Seed, *engine)
	} else {
		cfg := stormConfig(*steps, *seed, *sample, *stormEvery, *maxLevel)
		c, err = newCampaign(cfg, *engine)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "running %d rounds (seed %d, storms every %d rounds, max level %d, %s engine)\n",
			cfg.Steps, cfg.Seed, cfg.Storms.StormEvery, cfg.Storms.MaxLevel, *engine)
	}

	if err := runSharded(c, *shards, *ckpt, *haltAfter, stdout); err != nil {
		return err
	}
	if c.Remaining() > 0 {
		fmt.Fprintf(stdout, "halted at round %d of %d; continue with -resume %s\n",
			c.Rounds(), c.Config().Steps, *ckpt)
		return nil
	}
	res := c.Result()
	if res.Redundancy != nil {
		fmt.Fprint(stdout, experiments.RenderFig6(res))
	}
	fmt.Fprint(stdout, experiments.RenderFig7(res, c.Config().Policy.Min))
	return nil
}

// stormConfig assembles the campaign configuration from the flags.
func stormConfig(steps int64, seed uint64, sample, stormEvery int64, maxLevel int) experiments.AdaptiveRunConfig {
	cfg := experiments.DefaultFig7Config(steps)
	cfg.Seed = seed
	cfg.SampleEvery = sample
	if stormEvery > 0 {
		cfg.Storms.StormEvery = stormEvery
	}
	cfg.Storms.MaxLevel = maxLevel
	return cfg
}

// newCampaign builds a fresh campaign on the selected engine.
func newCampaign(cfg experiments.AdaptiveRunConfig, engine string) (campaignRunner, error) {
	if engine == "reference" {
		return experiments.NewReferenceCampaign(cfg)
	}
	return experiments.NewCampaign(cfg)
}

// restoreCampaign loads a snapshot file onto the selected engine.
func restoreCampaign(path, engine string) (campaignRunner, error) {
	snap, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if engine == "reference" {
		return experiments.RestoreReferenceCampaign(snap)
	}
	return experiments.RestoreCampaign(snap)
}

// runSharded drives the campaign shard by shard, rewriting the
// checkpoint file after each completed shard. With shards == 1 and no
// halt it degenerates to a single run (plus a final snapshot when
// -checkpoint is set). Shards already covered by a resumed snapshot are
// skipped.
func runSharded(c campaignRunner, shards int, ckpt string, haltAfter int, stdout io.Writer) error {
	plan, err := experiments.SplitCampaign(c.Config(), shards)
	if err != nil {
		return err
	}
	done := 0
	for _, sh := range plan {
		if sh.End <= c.Rounds() {
			continue // completed before the resume point
		}
		c.Run(sh.End - c.Rounds())
		if ckpt != "" {
			snap, err := c.Snapshot()
			if err != nil {
				return err
			}
			if err := snap.WriteFile(ckpt); err != nil {
				return err
			}
		}
		if shards > 1 {
			suffix := ""
			if ckpt != "" {
				suffix = fmt.Sprintf(" (checkpoint %s)", ckpt)
			}
			fmt.Fprintf(stdout, "shard %d/%d complete at round %d%s\n", sh.Index+1, sh.Count, c.Rounds(), suffix)
		}
		if done++; haltAfter > 0 && done >= haltAfter && c.Remaining() > 0 {
			return nil
		}
	}
	return nil
}

// runReplicas fans the campaign out over derived seeds and aggregates.
func runReplicas(cfg experiments.AdaptiveRunConfig, replicas, parallel int, stdout io.Writer) error {
	if cfg.SampleEvery > 0 {
		fmt.Fprintln(stdout, "(-sample applies to single runs only; disabled for the replica sweep)")
		cfg.SampleEvery = 0
	}
	seeds := xrand.Seeds(cfg.Seed, replicas)
	fmt.Fprintf(stdout, "running %d replicas x %d rounds (root seed %d, %d workers)\n",
		replicas, cfg.Steps, cfg.Seed, experiments.Workers(parallel))
	results, err := experiments.SweepSeeds(cfg, seeds, parallel)
	if err != nil {
		return err
	}
	minR := redundancy.DefaultPolicy().Min
	var failures, replicaRounds, rounds int64
	var minFraction float64
	for i, res := range results {
		fmt.Fprintf(stdout, "  replica %2d (seed %20d): failures=%-4d time@min=%9.5f%% avg-redundancy=%.4f\n",
			i, seeds[i], res.Failures, 100*res.MinFraction,
			float64(res.ReplicaRounds)/float64(res.Rounds))
		failures += res.Failures
		replicaRounds += res.ReplicaRounds
		rounds += res.Rounds
		minFraction += res.MinFraction
	}
	fmt.Fprintf(stdout, "aggregate over %d replicas: failures=%d time@min(r=%d)=%.5f%% avg-redundancy=%.4f\n",
		replicas, failures, minR, 100*minFraction/float64(replicas),
		float64(replicaRounds)/float64(rounds))
	return nil
}
