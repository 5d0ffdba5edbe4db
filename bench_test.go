// Benchmark harness: BenchmarkExperiment drives every registered
// simulation experiment through the Spec registry at reduced scale
// (fewer replications, shorter submission window, shrunk sweep axes),
// printing the same tables the paper reports; cmd/redsim, cmd/pbsbench,
// and cmd/grambench run the full-scale versions. The remaining
// benchmarks target individual layers (simulator core, daemon,
// middleware, trace parsing).
//
// Run with:
//
//	go test -bench=. -benchmem
package redreq_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"redreq/internal/core"
	"redreq/internal/experiment"
	"redreq/internal/metrics"
	"redreq/internal/middleware"
	"redreq/internal/obs"
	"redreq/internal/pbsd"
	"redreq/internal/report"
	"redreq/internal/rng"
	"redreq/internal/sched"
	"redreq/internal/swf"
	"redreq/internal/workload"
)

// rngNew aliases rng.New for the benchmarks below.
var rngNew = rng.New

// benchOpts is the reduced-scale configuration shared by the
// simulation benchmarks.
func benchOpts() experiment.Options {
	o := experiment.Defaults()
	o.Reps = 2
	o.Horizon = 3600
	return o
}

// benchSweeps shrinks the sweep experiments' x-axes so one benchmark
// iteration stays tractable; experiments without a sweep axis run
// their full (fixed) variant sets.
var benchSweeps = map[string][]float64{
	"fig12":     {2, 5, 10},
	"fig3":      {3.43, 5.01, 7.84},
	"fig4":      {0, 0.4, 1.0},
	"loadsweep": {0.45, 0.90},
}

// BenchmarkExperiment runs every registered simulation experiment at
// reduced scale through the Spec registry — the same code path as
// `redsim -run <name>`. sec4 is excluded: it measures wall-clock rates
// itself, so a benchmark harness around it is meaningless (see
// BenchmarkFigure5 and the middleware benchmarks for its layers).
func BenchmarkExperiment(b *testing.B) {
	for _, spec := range experiment.All() {
		if spec.Name == "sec4" {
			continue
		}
		b.Run(spec.Name, func(b *testing.B) {
			opts := benchOpts()
			opts.Sweep = benchSweeps[spec.Name]
			for i := 0; i < b.N; i++ {
				rep, err := spec.Report(opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					rep.Render(os.Stdout)
				}
			}
		})
	}
}

// BenchmarkRegistryQuick measures one full-registry pass at the quick
// scale (experiment.Quick: 3 reps, 1-hour window, full default sweep
// axes) — the same work as `redsim -run all -reps 3 -horizon 3600`.
// sec4 is excluded as always (it measures wall clock itself). This is
// the wall-clock number `make bench` records into BENCH_core.json for
// cross-PR comparison of the whole pipeline, complementing the
// per-simulation numbers of BenchmarkSimulationCore/BenchmarkEngine.
// Each iteration starts a fresh memo cache, exactly like one redsim
// process: intra-pass reuse counts, cross-iteration reuse must not.
func BenchmarkRegistryQuick(b *testing.B) {
	var specs []*experiment.Spec
	for _, s := range experiment.All() {
		if s.Name != "sec4" {
			specs = append(specs, s)
		}
	}
	for i := 0; i < b.N; i++ {
		opts := experiment.Quick()
		opts.Cache = core.NewMemo()
		err := experiment.Reports(specs, opts, func(int, *report.Report, time.Duration) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := pbsd.Sweep([]int{0, 5000, 10000}, 2, 300*time.Millisecond, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			t := report.NewTable("Figure 5: daemon throughput vs queue size", "queue", "pairs/s", "bound r (iat=5.01)")
			for _, r := range results {
				t.AddRow(fmt.Sprintf("%d", r.QueueSize), report.Cell(r.PairRate, 1),
					fmt.Sprintf("%d", pbsd.LoadBound(r.PairRate, 5.01)))
			}
			t.Render(os.Stdout)
		}
	}
}

// BenchmarkMiddlewareMarshal measures raw SOAP-style marshalling of
// the [20] benchmark payload (Section 4.2, regime (a)).
func BenchmarkMiddlewareMarshal(b *testing.B) {
	payload := middleware.NewTripleArray(30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := middleware.MarshalTriples(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := middleware.UnmarshalTriples(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMiddlewareTransaction measures full middleware transactions
// (submit+cancel through the HTTP service over a real socket) in the
// GRAM-like durable+security mode (Section 4.2, regime (b)).
func BenchmarkMiddlewareTransaction(b *testing.B) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer backend.Close()
	stateDir := b.TempDir()
	svc, err := middleware.NewService(middleware.ServiceConfig{
		Durable: true, Security: true, StateDir: stateDir, Backend: backend,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ep, err := middleware.Start(svc, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	client := middleware.NewClient(ep.URL, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := client.Submit("bench-job", 1, time.Hour)
		if err != nil {
			b.Fatal(err)
		}
		if err := client.Cancel(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationCore measures raw simulator throughput: one
// 10-cluster EASY run under the ALL scheme (jobs simulated per second
// is the relevant ops metric; b.N scales the replication count).
func BenchmarkSimulationCore(b *testing.B) {
	clusters := make([]core.ClusterSpec, 10)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: 128}
	}
	cfg := core.Config{
		Clusters: clusters, Alg: sched.EASY, Scheme: core.SchemeAll,
		RedundantFraction: 1, Routing: core.RouteUniform,
		Horizon: 1800, EstMode: workload.Exact,
		TargetLoad: 0.93, MinRuntime: 30, MaxRuntime: 7200,
	}
	var jobs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		jobs += len(res.Jobs)
		if s := metrics.FromResult(res, nil); s.AvgStretch < 1 {
			b.Fatalf("impossible stretch %v", s.AvgStretch)
		}
	}
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkEngine measures one simulation run with tracing off and
// on. The trace=off case is the regression guard for the nil-trace
// fast path: observability must cost nothing measurable when
// disabled.
func BenchmarkEngine(b *testing.B) {
	clusters := make([]core.ClusterSpec, 4)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: 64}
	}
	cfg := core.Config{
		Clusters: clusters, Alg: sched.EASY, Scheme: core.SchemeAll,
		RedundantFraction: 1, Routing: core.RouteUniform,
		Horizon: 1800, EstMode: workload.Exact,
		TargetLoad: 0.85, MinRuntime: 30, MaxRuntime: 7200,
	}
	for _, traced := range []bool{false, true} {
		name := "trace=off"
		if traced {
			name = "trace=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := cfg
				run.Seed = uint64(i + 1)
				if traced {
					run.Trace = obs.New()
				}
				if _, err := core.Run(run); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRouting measures the per-policy cost of the routing axis on
// one platform: uniform is the no-information baseline, the informed
// policies add the grid information service (snapshot publishes every
// control latency plus per-decision visibility reads).
func BenchmarkRouting(b *testing.B) {
	clusters := make([]core.ClusterSpec, 8)
	for i := range clusters {
		clusters[i] = core.ClusterSpec{Nodes: 64}
	}
	base := core.Config{
		Clusters: clusters, Alg: sched.EASY, Scheme: core.SchemeR2,
		RedundantFraction: 1, Horizon: 1800, EstMode: workload.Exact,
		TargetLoad: 0.85, MinRuntime: 30, MaxRuntime: 7200,
		ControlLatency: 60,
	}
	for _, pol := range []core.Routing{
		core.RouteUniform, core.RouteLeastQueue, core.RouteLeastWork, core.RoutePowerTwo,
	} {
		b.Run("policy="+pol.String(), func(b *testing.B) {
			var jobs int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Routing = pol
				cfg.Seed = uint64(i + 1)
				res, err := core.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				jobs += len(res.Jobs)
				if pol.Informed() && res.Routing.Decisions == 0 {
					b.Fatal("informed policy made no routing decisions")
				}
			}
			b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}

// BenchmarkPBSDDirect measures the daemon's direct-API operation cost
// at a moderate queue depth (per-op cost is the Figure 5 driver).
func BenchmarkPBSDDirect(b *testing.B) {
	srv, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 2000; i++ {
		if _, err := srv.Submit("pre", 1, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Submit("bench", 1, time.Hour); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.DeleteHead(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPBSDSubmitCancel is the fast-path acceptance benchmark:
// submit + delete-head churn against a 1000-deep queue in the
// incremental scheduling mode vs the paper-faithful full-scan mode.
// The full scan pays O(queue) per operation by design (that collapse
// IS Figure 5); the incremental cycle must hold per-operation work
// flat, so the mode=incremental series should beat mode=fullscan by a
// wide multiple at this depth.
func BenchmarkPBSDSubmitCancel(b *testing.B) {
	const depth = 1000
	for _, mode := range []string{"incremental", "fullscan"} {
		b.Run("mode="+mode, func(b *testing.B) {
			srv, err := pbsd.New(pbsd.Config{Nodes: 16, FullScanCycle: mode == "fullscan"})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for i := 0; i < depth; i++ {
				if _, err := srv.Submit("pre", 1, time.Hour); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Submit("bench", 1, time.Hour); err != nil {
					b.Fatal(err)
				}
				if _, err := srv.DeleteHead(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkClientBatch measures the batched middleware path: each
// iteration pushes ops submit+cancel pairs through the real HTTP
// service as one SubmitBatch plus one CancelBatch envelope on a
// pooled pre-warmed client. ops=1 is the envelope-overhead floor;
// larger ops amortize the round trip, so pairs/s should climb with
// the batch size.
func BenchmarkClientBatch(b *testing.B) {
	backend, err := pbsd.New(pbsd.Config{Nodes: 16})
	if err != nil {
		b.Fatal(err)
	}
	defer backend.Close()
	svc, err := middleware.NewService(middleware.ServiceConfig{Backend: backend})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ep, err := middleware.Start(svc, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ep.Close()
	for _, ops := range []int{1, 8} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			client := middleware.NewClient(ep.URL, fmt.Sprintf("bench-batch-%d", ops))
			if err := client.Warm(context.Background(), 4); err != nil {
				b.Fatal(err)
			}
			jobs := make([]middleware.BatchJob, ops)
			for i := range jobs {
				jobs[i] = middleware.BatchJob{Name: "bench-job", Nodes: 1, Walltime: time.Hour}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				subs, err := client.SubmitBatch(jobs)
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]int64, len(subs))
				for j, r := range subs {
					if e := r.Err(); e != nil {
						b.Fatal(e)
					}
					ids[j] = r.JobID
				}
				if _, err := client.CancelBatch(ids); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*ops)/b.Elapsed().Seconds(), "pairs/s")
		})
	}
}

// BenchmarkSWFParse measures trace parsing throughput.
func BenchmarkSWFParse(b *testing.B) {
	model := workload.NewModel(128)
	jobs := model.GenerateWindow(rngNew(1), 3600)
	tr := swf.FromJobs(jobs, "bench", 128)
	var buf bytes.Buffer
	if err := swf.Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := swf.Parse(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
