package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"redreq/internal/core"
	"redreq/internal/experiment"
	"redreq/internal/invariant"
	"redreq/internal/obs"
	"redreq/internal/report"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/workload"
)

// goldenExperiments are the experiments whose quick-scale JSON is
// pinned under cmd/redsim/testdata at the default seed.
var goldenExperiments = []string{"table1", "table4", "fig4", "qgrowth", "inflate", "faults", "validate", "trace", "routing"}

// registrySpecs is the deterministic registry: everything but the two
// wall-clock experiments (the set `make results` runs).
func registrySpecs() []*experiment.Spec {
	var out []*experiment.Spec
	for _, s := range experiment.All() {
		if s.Name != "sec4" && s.Name != "overload" {
			out = append(out, s)
		}
	}
	return out
}

// runSimRegistry runs the 17 deterministic experiments at quick scale
// through experiment.Reports with a fresh result cache, as
// `redsim -run all` users do.
func runSimRegistry(e env) (*outcome, error) {
	o := newOutcome()
	type setup struct {
		opts  experiment.Options
		specs []*experiment.Spec
	}
	st, setupS, err := medianSetup(setupReps, func() (setup, error) {
		opts := experiment.Quick()
		opts.BaseSeed = e.seed
		opts.Cache = core.NewMemo()
		specs := registrySpecs()
		for _, s := range specs {
			if s.Variants != nil {
				s.Variants(opts) // the configurations the run will execute
			}
		}
		return setup{opts, specs}, nil
	}, func(setup) {})
	if err != nil {
		return nil, err
	}
	opts, specs := st.opts, st.specs
	var delivered atomic.Int64
	opts.Progress = func(int, int) { delivered.Add(1) }
	if e.tr != nil {
		opts.Trace = obs.New()
	}

	reps := make([]*report.Report, len(specs))
	elapsed := make([]float64, len(specs))
	root := e.tr.begin("workload", spanRef{})
	a := sample()
	err = experiment.Reports(specs, opts, func(i int, rep *report.Report, d time.Duration) error {
		reps[i], elapsed[i] = rep, d.Seconds()
		e.tr.add("experiment.spec", root, a.wall, a.wall.Add(d))
		return nil
	})
	b := sample()
	e.tr.end(root)
	if err != nil {
		// Reports fails on any simulation error and on any validate
		// finding.
		return nil, fmt.Errorf("registry: %w", err)
	}

	if e.seed == defaultSeed {
		for i, s := range specs {
			if !slices.Contains(goldenExperiments, s.Name) {
				continue
			}
			var got bytes.Buffer
			if err := report.WriteJSON(&got, reps[i]); err != nil {
				return nil, err
			}
			want, err := os.ReadFile(filepath.Join("cmd", "redsim", "testdata", s.Name+"_quick.json"))
			if err != nil {
				return nil, err
			}
			o.check(bytes.Equal(got.Bytes(), want), "%s JSON differs from its golden fixture", s.Name)
		}
	}

	wall := b.wall.Sub(a.wall).Seconds()
	ms := opts.Cache.Stats()
	o.attempted = delivered.Load()
	o.plain["setup_s"] = setupS
	o.plain["wall_s"] = wall
	o.plain["p50_s"] = median(elapsed)
	o.plain["goodput_per_s"] = float64(delivered.Load()) / wall
	o.plain["peak_rss_mb"] = peakRSSMB()
	for i, s := range specs {
		o.plain["experiment.spec_s."+s.Name] = elapsed[i]
	}
	runtimeMetrics(o, a, b)
	o.plain["experiment.cpu_util"] = o.plain["go.cpu_util"]
	o.plain["go.alloc_mb"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / (1 << 20)
	o.plain["core.memo.hit"] = float64(ms.Hit)
	o.plain["core.memo.miss"] = float64(ms.Miss)
	o.plain["core.memo.inflight"] = float64(ms.Inflight)
	o.plain["core.stream.hit"] = float64(ms.StreamHit)
	o.plain["core.stream.miss"] = float64(ms.StreamMiss)
	o.plain["core.memo.retained_jobs"] = float64(ms.Jobs)
	if opts.Trace != nil {
		simTraceMetrics(o, opts.Trace.Snapshot(), wall)
	}
	return o, nil
}

// simTraceMetrics copies the engine, DES and scheduler counters of a
// traced simulation pass; busy is the wall time they accrued over.
func simTraceMetrics(o *outcome, snap obs.Snapshot, busy float64) {
	jobs, copies := snap.Counter("core.jobs"), snap.Counter("core.copies")
	o.traced["core.jobs"] = float64(jobs)
	o.traced["core.copies"] = float64(copies)
	o.traced["core.losers"] = float64(snap.Counter("core.cancels.losers"))
	if copies > 0 {
		o.traced["core.useful_frac"] = float64(jobs) / float64(copies)
	}
	for _, c := range []string{"des.scheduled", "des.fired", "des.canceled",
		"sched.starts.backfill", "sched.starts.in_order", "sched.reservations", "sched.compressions"} {
		o.traced[c] = float64(snap.Counter(c))
	}
	o.traced["des.fired_per_s"] = float64(snap.Counter("des.fired")) / busy
}

// The sim-grid platform: 64 clusters of 32 nodes under EASY with R2
// redundancy and a 60 s control latency, 5400 s of submissions
// (~69K jobs per run) at the workload model's peak-hour rate.
const (
	gridClusters = 64
	gridNodes    = 32
	gridHorizon  = 5400
	gridLoad     = 0.85
	gridMinRT    = 30
	gridMaxRT    = 7200
	seedStride   = 0x9E3779B97F4A7C15

	gridCalibrationSeed = 0xCA11B8A7E
)

func gridModel(scale float64) *workload.Model {
	m := workload.NewModel(gridNodes)
	m.RuntimeScale = scale
	m.MinRuntime = gridMinRT
	m.MaxRuntime = gridMaxRT
	return m
}

// gridScale calibrates the runtime scale so a 128-node reference
// cluster sees gridLoad, as core's TargetLoad calibration does. The
// calibration draws from a fixed seed: the scale is configuration, not
// input, and a per-seed estimate would move the offered load (and the
// work per run) from seed to seed.
func gridScale() float64 {
	ref := workload.NewModel(128)
	ref.MinRuntime = gridMinRT
	ref.MaxRuntime = gridMaxRT
	return ref.CalibrateClamped(rng.New(gridCalibrationSeed), 128, gridLoad, 50000)
}

// gridStreams generates one run's per-cluster job streams.
func gridStreams(scale float64, seed uint64) [][]workload.Job {
	m := gridModel(scale)
	out := make([][]workload.Job, gridClusters)
	for i := range out {
		out[i] = m.GenerateWindow(rng.New(seed+uint64(i+1)*seedStride), gridHorizon)
	}
	return out
}

func gridConfig(seed uint64, streams [][]workload.Job) core.Config {
	clusters := make([]core.ClusterSpec, gridClusters)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: gridNodes}
	}
	return core.Config{
		Clusters: clusters, Alg: sched.EASY, Scheme: core.SchemeR2,
		RedundantFraction: 1, Routing: core.RouteUniform,
		Horizon: gridHorizon, EstMode: workload.Exact,
		MinRuntime: gridMinRT, MaxRuntime: gridMaxRT,
		ControlLatency: 60, Seed: seed, Streams: streams,
	}
}

// refNominalS is the reference kernel's typical duration on the
// machine the benchmark was defined on (Intel Xeon, 2 vCPUs, Go
// 1.24): sim-grid's times are reported at the host speed that gives
// this kernel time, so there they read as plain seconds.
const refNominalS = 0.11

// runSimGrid runs one long sequential core.Run per budget second, each
// on its own seed, with the streams generated by the benchmark and
// passed in: the engine alone, no pool and no caches.
//
// On a shared host the same run's wall time drifts by a quarter over
// minutes. So each run is preceded by the benchmark's fixed reference
// kernel (ref.go), and every sim-grid time is scaled by refNominalS
// over the kernel's mean time in this pass (p50_s: each run by the
// kernel run just before it): a host running slow slows both, and the
// ratio between the simulator and the kernel is what is reported. The
// raw times stay in the per-layer core.run_s and sim_jobs_per_s.
func runSimGrid(e env) (*outcome, error) {
	o := newOutcome()
	runs := int(e.seconds)
	if runs < 3 {
		runs = 3
	}
	type setup struct {
		scale   float64
		streams [][]workload.Job
	}
	st, setupS, err := medianSetup(setupReps, func() (setup, error) {
		scale := gridScale()
		return setup{scale, gridStreams(scale, e.seed)}, nil
	}, func(setup) {
		// The next set-up starts on a collected heap instead of paying
		// for this one's streams.
		runtime.GC()
	})
	if err != nil {
		return nil, err
	}

	var (
		runS, genS, auditS []float64
		refS, scaledS      []float64
		jobs, copies       int64
		losers, findings   int
		allocs, pauseNs    uint64
		gcs                uint32
		cpu                time.Duration
		tr                 *obs.Trace
	)
	if e.tr != nil {
		tr = obs.New()
	}
	root := e.tr.begin("workload", spanRef{})
	streams := st.streams
	for k := 0; k < runs; k++ {
		seed := e.seed + uint64(k)*seedStride
		if k > 0 {
			ref := e.tr.begin("workload.gen", root)
			t0 := time.Now()
			streams = gridStreams(st.scale, seed)
			genS = append(genS, time.Since(t0).Seconds())
			e.tr.end(ref)
		}
		cfg := gridConfig(seed, streams)
		if tr != nil {
			cfg.Trace = obs.New()
		}
		// Both timed sections start on a collected heap, so neither
		// pays for the other's garbage.
		runtime.GC()
		refS = append(refS, refKernel())
		runtime.GC()

		ref := e.tr.begin("core.run", root)
		a := sample()
		res, err := core.Run(cfg)
		b := sample()
		e.tr.end(ref)
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", k, err)
		}
		runS = append(runS, b.wall.Sub(a.wall).Seconds())
		scaledS = append(scaledS, runS[k]*refNominalS/refS[k])
		// The runtime figures cover the core.Run sections only, not the
		// reference kernel or the forced collections between them.
		allocs += b.mem.TotalAlloc - a.mem.TotalAlloc
		gcs += b.mem.NumGC - a.mem.NumGC
		pauseNs += b.mem.PauseTotalNs - a.mem.PauseTotalNs
		cpu += b.cpu - a.cpu
		tr.Merge(cfg.Trace)

		ref = e.tr.begin("invariant.audit", root)
		t0 := time.Now()
		f := invariant.Check(invariant.FromConfig(&cfg), res)
		auditS = append(auditS, time.Since(t0).Seconds())
		e.tr.end(ref)
		findings += len(f)
		o.check(len(f) == 0, "run %d: %d invariant findings, first: %v", k, len(f), f)
		jobs += int64(len(res.Jobs))
		for _, j := range res.Jobs {
			copies += int64(j.Copies)
		}
		for _, c := range res.Clusters {
			losers += c.Stats.Canceled
		}
		o.attempted++
	}
	e.tr.end(root)

	busy := sum(runS)
	// speed > 1: the host ran the reference kernel faster than nominal.
	speed := refNominalS * float64(len(refS)) / sum(refS)
	o.plain["setup_s"] = setupS * speed
	o.plain["wall_s"] = busy * speed
	o.plain["p50_s"] = median(scaledS)
	o.plain["goodput_per_s"] = float64(jobs) / (busy * speed)
	o.plain["peak_rss_mb"] = peakRSSMB()
	o.plain["ref.kernel_s"] = median(refS)
	o.plain["sim_jobs_per_s"] = float64(jobs) / busy
	o.plain["core.run_s"] = median(runS)
	o.plain["workload.gen_s"] = median(genS)
	o.plain["invariant.audit_s"] = median(auditS)
	o.plain["invariant.findings"] = float64(findings)
	o.plain["core.jobs"] = float64(jobs)
	o.plain["core.copies"] = float64(copies)
	o.plain["core.losers"] = float64(losers)
	o.plain["core.useful_frac"] = float64(jobs) / float64(copies)
	o.plain["go.alloc_mb"] = float64(allocs) / (1 << 20)
	o.plain["go.gc_count"] = float64(gcs)
	o.plain["go.gc_pause_s"] = float64(pauseNs) / 1e9
	o.plain["go.cpu_util"] = cpu.Seconds() / (busy * float64(runtime.GOMAXPROCS(0)))
	if tr != nil {
		simTraceMetrics(o, tr.Snapshot(), busy)
	}
	return o, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
