// Command perfbench is the repository's benchmark. It drives the real MIE
// stack in one process — a remote mie.Open client, a loopback wire-v2
// server over a durable core.Service and, on search, one replica follower —
// through one of two seeded workloads, checks the outputs, and prints one
// JSON result line. With --trace 1 it instead reports per-layer metrics
// from spans it records around its own calls into each module.
//
//	bash perfbench/run.sh --workload search --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --compare before.txt after.txt
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root; all files stay under root/.bench_build
	sz       sizes
}

// bench is the state of one run.
type bench struct {
	cfg   config
	work  string  // scratch directory, removed at exit
	tr    *tracer // nil on untraced runs
	vals  map[string]float64
	notes notes
	st    phaseStats // every timed op of the run, for attempted/failed
}

// workloads maps each workload name to its runner. Why each exists is in
// README.md and BENCHMARK.json.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	"search": runSearch,
	"fleet":  runFleet,
}

func main() {
	var cfg config
	var compare bool
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: search or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "checkout root")
	flag.BoolVar(&compare, "compare", false, "compare two result files (args: before after)")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: --compare needs two result files")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = traceFlag == 1
	cfg.sz = defaultSizes()
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if res != nil {
		out, merr := json.Marshal(res)
		if merr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", merr)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
	if err != nil || res == nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload run and returns its result line. A failed
// correctness check yields a result with correct=false and no metrics.
func run(cfg config) (*result, error) {
	runWorkload := workloads[cfg.workload]
	if runWorkload == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	base := filepath.Join(cfg.root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, fmt.Sprintf("%s-%d-", cfg.workload, cfg.seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{cfg: cfg, work: work, vals: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	printEnv(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	if err := runWorkload(ctx, b); err != nil {
		var ce checkError
		if errors.As(err, &ce) {
			fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", ce)
			return &result{Correct: false, Attempted: max(b.st.attempted, 1), Failed: b.st.failed, Metrics: map[string]metricValue{}}, nil
		}
		return nil, err
	}
	if b.st.attempted == 0 {
		return nil, fmt.Errorf("no operations ran")
	}
	b.vals["failed_frac"] = float64(b.st.failed) / float64(b.st.attempted)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		dir := filepath.Join(cfg.root, ".bench_build", "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
	return &result{Correct: true, Attempted: b.st.attempted, Failed: b.st.failed, Metrics: fill(defs, b.vals)}, nil
}

// setupRepeated runs setup sz.setups times (once when traced), keeps the
// last and records the median set-up time.
func setupRepeated[E interface{ close() }](ctx context.Context, b *bench, setup func(ctx context.Context, b *bench, dir string) (E, error)) (E, error) {
	n := b.cfg.sz.setups
	if b.tr != nil {
		n = 1
	}
	var times []float64
	var env E
	for i := 0; i < n; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("setup%d", i))
		// Each set-up starts from a collected heap, so it does not pay for
		// the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		e, err := setup(ctx, b, dir)
		if err != nil {
			return env, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			e.close()
			if err := os.RemoveAll(dir); err != nil {
				return env, err
			}
			continue
		}
		env = e
	}
	b.vals["setup_s"] = median(times)
	return env, nil
}

// checkError marks a failed correctness check: the run reports it instead
// of numbers.
type checkError struct{ msg string }

func (e checkError) Error() string { return e.msg }

func checkFailf(format string, args ...interface{}) error {
	return checkError{fmt.Sprintf(format, args...)}
}

// printEnv records the machine and inputs alongside the result, as one
// JSON line before it.
func printEnv(cfg config) {
	env := map[string]interface{}{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"git":        gitRevision(cfg.root),
		"sizes":      cfg.sz.describe(cfg.workload),
		// A fixed CPU task timed before set-up: compare it across runs to
		// tell a slower machine from a slower program.
		"calibration_ms": calibrate(),
	}
	out, err := json.Marshal(map[string]interface{}{"env": env})
	if err != nil {
		panic(err) // a map of plain values always marshals
	}
	fmt.Println(string(out))
}

// calibrate times SHA-256 over 16 MiB, the best of three.
func calibrate() float64 {
	buf := make([]byte, 16<<20)
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		best = math.Min(best, msSince(t0))
	}
	return best
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision names the commit under test, or "none" when root is not the
// top of a git work tree.
func gitRevision(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "none"
	}
	lines := strings.Fields(string(out))
	abs, aerr := filepath.Abs(root)
	if len(lines) != 2 || aerr != nil {
		return "none"
	}
	top, err1 := filepath.EvalSymlinks(lines[0])
	here, err2 := filepath.EvalSymlinks(abs)
	if err1 != nil || err2 != nil || top != here {
		return "none"
	}
	rev := lines[1]
	if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
