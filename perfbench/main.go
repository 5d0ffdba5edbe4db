// Command perfbench is the repository's benchmark. It drives both
// halves of the system through their public functions — the
// experiment/core simulator and the middleware → pbsd real stack —
// under four seeded workloads, checks every output outside the timed
// region, and prints the end-to-end metrics (untraced) or the
// per-layer metrics (traced) as one JSON object on its last line.
//
//	perfbench --workload gram-gt4 --seed 20060619 --seconds 20 --trace 0
//
// Run it through run.sh from the repository root, which builds it
// first; README.md documents the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the golden fixtures were generated with.
const defaultSeed = 20060619

// buildDir holds everything the benchmark writes, relative to the
// repository root it runs from.
const buildDir = ".bench_build"

type metricDef struct{ name, unit string }

// metricValue is one metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"p50_s", "s"},
	{"goodput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// env is what one pass of a workload runs with.
type env struct {
	seed    uint64
	seconds float64
	tmp     string  // fresh scratch directory inside buildDir
	tr      *tracer // nil on untraced passes
}

// outcome is one pass's measurements.
type outcome struct {
	// plain holds values measured from outside the program (times,
	// memory, generator accounting); an untraced pass supplies them.
	plain map[string]float64
	// traced holds values read from the program's instruments and the
	// benchmark's spans; only a traced pass supplies them.
	traced map[string]float64
	// attempted and failed count operations; failed excludes requests
	// the system deliberately refused (BUSY/LATE shedding), which
	// fail_frac counts.
	attempted, failed int64
	// problems lists failed correctness checks.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{plain: map[string]float64{}, traced: map[string]float64{}}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type benchWorkload struct {
	name string
	run  func(e env) (*outcome, error)
	// overheadOf names the end-to-end metric obs.trace_overhead_frac
	// compares between the traced and the untraced pass.
	overheadOf string
}

var workloads = []benchWorkload{
	{"sim-registry", runSimRegistry, "wall_s"},
	{"sim-grid", runSimGrid, "wall_s"},
	{"gram-gt4", runGramGT4, "p50_s"},
	{"gram-batch", runGramBatch, "p50_s"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: sim-registry, sim-grid, gram-gt4 or gram-batch")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || fs.NArg() != 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload <name> [--seed n] [--seconds s>=1] [--trace 0|1]")
		return 2
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if b, err := json.Marshal(map[string]any{"context": machineContext()}); err == nil {
		fmt.Fprintln(stdout, string(b))
	}

	pass := func(tr *tracer) (*outcome, error) {
		tmp, err := os.MkdirTemp(filepath.Join(buildDir, "tmp"), w.name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		return w.run(env{seed: *seed, seconds: *seconds, tmp: tmp, tr: tr})
	}
	base, err := pass(nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	outs := []*outcome{base}
	metrics := map[string]metricValue{}
	if *trace == 0 {
		for _, d := range endToEnd {
			metrics[d.name] = metricValue{base.plain[d.name], d.unit}
		}
	} else {
		tr := newTracer()
		traced, err := pass(tr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", w.name, err)
			return 1
		}
		outs = append(outs, traced)
		traced.traced["obs.trace_overhead_frac"] = traced.plain[w.overheadOf]/base.plain[w.overheadOf] - 1
		for k, v := range tr.selfTimes() {
			traced.traced["self_s."+k] = v
		}
		for _, d := range perLayer() {
			v, ok := base.plain[d.name]
			if !ok {
				v = traced.traced[d.name]
			}
			metrics[d.name] = metricValue{v, d.unit}
		}
		spansOut := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		if err := tr.write(spansOut); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}

	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: true, Metrics: metrics}
	for _, o := range outs {
		res.Attempted += o.attempted
		res.Failed += o.failed
		for _, p := range o.problems {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
		}
	}
	for name, m := range metrics {
		if v := m.Value; math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", w.name, name, v)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// machineContext records what the numbers depend on: core counts, CPU,
// Go version, and the filesystem under the journal and state
// directories (fsync on tmpfs is free, which decides what gram-gt4
// measures).
func machineContext() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"fs":         fsType(filepath.Join(buildDir, "tmp")),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// usage is the process's resource counters at one instant.
type usage struct {
	wall time.Time
	cpu  time.Duration
	mem  runtime.MemStats
}

func sample() usage {
	u := usage{wall: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&u.mem)
	return u
}

// peakRSSMB is the process's peak resident memory so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// runtimeMetrics records the Go runtime's work between two samples:
// GC count and pause, and the share of the GOMAXPROCS budget the
// process kept busy.
func runtimeMetrics(o *outcome, a, b usage) {
	wall := b.wall.Sub(a.wall).Seconds()
	o.plain["go.gc_count"] = float64(b.mem.NumGC - a.mem.NumGC)
	o.plain["go.gc_pause_s"] = float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e9
	o.plain["go.cpu_util"] = (b.cpu - a.cpu).Seconds() / (wall * float64(runtime.GOMAXPROCS(0)))
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 9

// medianSetup runs setup n times and returns the median duration; the
// result of the last call is kept, earlier ones are released.
func medianSetup[T any](n int, setup func() (T, error), release func(T)) (T, float64, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			release(v)
		} else {
			last = v
		}
	}
	return last, median(times), nil
}
