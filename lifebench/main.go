// Command lifebench is the aft-serve job-lifecycle benchmark: it runs
// the whole life of a job — HTTP submit, queue, lease, compute,
// checkpoint, durable result — against an in-process jobs.Server behind
// a real loopback listener, with the job store on disk and
// fsync-per-write as shipped, and prints every metric by name with its
// unit after checking that the results are correct.
//
// Usage (from the repository root, via run.sh, which builds it):
//
//	bash lifebench/run.sh --workload scenario-stream --seed 1 --seconds 20 --trace 0
//
// Workloads are scenario-stream, campaign-local and campaign-fleet (see
// README.md); "all" runs the three in turn and also checks that the two
// campaign workloads produced identical transcripts. --trace 0 prints
// the end-to-end metrics; --trace 1 runs the workload once plain and
// once traced, and prints the per-layer metrics, each next to the
// end-to-end metric and workload it should move, and the tracing
// overhead (traced minus plain end-to-end figures). The
// last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any output is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps a workload name to its body.
var workloads = map[string]workloadFunc{
	"scenario-stream": scenarioStream,
	"campaign-local":  campaignLocal,
	"campaign-fleet":  campaignFleet,
}

// workloadOrder is the order "all" runs them in.
var workloadOrder = []string{"scenario-stream", "campaign-local", "campaign-fleet"}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lifebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "scenario-stream, campaign-local, campaign-fleet, or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and tracing overhead")
	out := fs.String("out", filepath.Join(".bench_build", "lifebench"),
		"directory for job stores and span files; must be on a real disk, not tmpfs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "lifebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	} else if workloads[*name] == nil {
		fmt.Fprintf(stderr, "lifebench: unknown workload %q (want %s or all)\n",
			*name, strings.Join(workloadOrder, ", "))
		return 2
	}
	env := environment(*out)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	final := result{Correct: true, Metrics: map[string]metric{}}
	digests := map[string][]string{}
	for _, wl := range names {
		res, err := runWorkload(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, env, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "lifebench: %s: %v\n", wl, err)
			return 1
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = wl + "/" + k
			}
			final.Metrics[k] = v
		}
		digests[wl] = res.digests
	}
	if len(names) > 1 {
		if msg := compareDigests(digests["campaign-local"], digests["campaign-fleet"]); msg != "" {
			fmt.Fprintln(stdout, "MISMATCH:", msg)
			final.Correct = false
			final.Failed++
		} else {
			fmt.Fprintln(stdout, "campaign-local and campaign-fleet transcripts match on every shared cycle")
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "lifebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// compareDigests checks that two runs of the same campaign population
// produced the same per-cycle transcript digests.
func compareDigests(a, b []string) string {
	n := min(len(a), len(b))
	if n == 0 {
		return "no campaign cycle completed on both workloads"
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("cycle %d transcript digest %s (local) != %s (fleet)", i, a[i], b[i])
		}
	}
	return ""
}

// workloadResult is one workload's contribution to the final line.
type workloadResult struct {
	result
	digests []string
}

// runWorkload runs one workload plain (trace off), or plain and then
// traced (trace on), and reports its metrics.
func runWorkload(name string, seed uint64, dur time.Duration, traced bool, out string, env envRecord, w io.Writer) (workloadResult, error) {
	body := workloads[name]
	var res workloadResult
	if !traced {
		m, err := measure(name, body, seed, dur, nil, out)
		if err != nil {
			return res, err
		}
		m.report(w, name)
		res.result = result{Correct: m.correct(), Attempted: m.attempted(), Failed: m.failed(),
			Metrics: m.endToEnd()}
		res.digests = m.digests
		return res, nil
	}
	plain, err := measure(name, body, seed, dur, nil, out)
	if err != nil {
		return res, err
	}
	plain.report(w, name+" (plain)")
	tr := newTracer()
	tm, err := measure(name, body, seed, dur, tr, out)
	if err != nil {
		return res, err
	}
	tm.report(w, name+" (traced)")
	spanFile := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.write(spanFile, env); err != nil {
		return res, err
	}
	fmt.Fprintf(w, "spans written to %s\n", spanFile)
	spans := tr.snapshot()
	layers := perLayer(plain, tm, spans)
	printLayers(w, name, layers, spans)
	res.result = result{
		Correct:   plain.correct() && tm.correct(),
		Attempted: plain.attempted() + tm.attempted(),
		Failed:    plain.failed() + tm.failed(),
		Metrics:   layers,
	}
	res.digests = tm.digests
	return res, nil
}

// finite keeps a metric JSON-encodable: a percentile that landed on a
// failed request (+Inf) reports as the largest float32, which fails any
// bound, instead of breaking the result line.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return math.MaxFloat32
	}
	return v
}

// envRecord describes where a result was measured.
type envRecord struct {
	Host        string `json:"host"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Date        string `json:"date"`
	StoreFS     string `json:"store_fs"`
	FlushPolicy string `json:"flush_policy"`
}

// environment records the host, toolchain, and the store's filesystem.
func environment(out string) envRecord {
	host, _ := os.Hostname()
	return envRecord{
		Host:        host,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Date:        time.Now().UTC().Format(time.RFC3339),
		StoreFS:     fsType(out),
		FlushPolicy: "fsync per write: temp file, fsync, rename (checkpoint.WriteFileAtomic)",
	}
}

// fsMagic names the filesystems a store is likely to sit on, by statfs
// magic number.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x01021994: "tmpfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
}

// fsType reports the filesystem holding dir (created if needed).
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
