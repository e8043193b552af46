package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig4(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 4") {
		t.Fatalf("Fig. 4 output missing:\n%s", out.String())
	}
}

func TestRunFig5(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 5") {
		t.Fatalf("Fig. 5 output missing:\n%s", out.String())
	}
}

func TestRunUnknownFig(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "99"}, &out); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestBenchBatchAppendsTrajectory asserts the perf history grows by one
// dated entry per benchbatch point instead of being overwritten, each
// carrying the reference-loop baseline it was measured against.
func TestBenchBatchAppendsTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("benchbatch times the reference loop and the batch engine")
	}
	traj := filepath.Join(t.TempDir(), "trajectory.json")
	args := []string{"-fig", "benchbatch", "-steps", "30000", "-batch-width", "1", "-trajectory", traj}
	var buf strings.Builder
	for i := 0; i < 2; i++ {
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(buf.String(), "reference:") || !strings.Contains(buf.String(), "vs reference") {
		t.Fatalf("benchbatch output lacks the reference baseline:\n%s", buf.String())
	}
	data, err := os.ReadFile(traj)
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("trajectory is not a JSON array: %v\n%s", err, data)
	}
	if points := 2 * len(benchBatchCores()); len(entries) != points {
		t.Fatalf("trajectory has %d entries after 2 runs of %d points", len(entries), points/2)
	}
	for _, e := range entries {
		if e["date"] == "" || e["speedup"] == nil || e["reference_ns_per_round"] == nil {
			t.Fatalf("entry lacks date/speedup/reference: %v", e)
		}
	}
	// A corrupt history must be an error, not silently discarded.
	if err := os.WriteFile(traj, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &buf); err == nil {
		t.Fatal("corrupt trajectory accepted")
	}
}

// TestSweepCacheFlag asserts -cache serves repeat invocations from the
// memoized cells with identical output.
func TestSweepCacheFlag(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	runE10 := func(args ...string) string {
		var buf strings.Builder
		if err := run(append([]string{"-fig", "e10"}, args...), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	plain := runE10()
	cold := runE10("-cache", cacheDir)
	warm := runE10("-cache", cacheDir)
	if !strings.Contains(cold, "4 misses") {
		t.Fatalf("cold cache stats missing:\n%s", cold)
	}
	if !strings.Contains(warm, "4 hits, 0 misses") {
		t.Fatalf("warm cache stats missing:\n%s", warm)
	}
	strip := func(s string) string {
		i := strings.Index(s, "(sweep cache")
		if i < 0 {
			return s
		}
		return s[:i]
	}
	if strip(cold) != plain || strip(warm) != plain {
		t.Fatal("cached E10 output differs from uncached")
	}
}
