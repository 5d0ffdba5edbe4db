package main

// perLayer lists the metrics a traced run reports, on every workload.
// A layer the workload does not exercise reads 0: no work was done
// there.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	// experiment: per-spec elapsed from the Reports emit callback.
	for _, s := range registrySpecs() {
		add("s", "experiment.spec_s."+s.Name)
	}
	add("ratio", "experiment.cpu_util")
	// core: result cache, then the engine.
	add("count", "core.memo.hit", "core.memo.miss", "core.memo.inflight",
		"core.stream.hit", "core.stream.miss", "core.memo.retained_jobs")
	add("s", "core.run_s")
	add("count", "core.jobs", "core.copies", "core.losers")
	add("ratio", "core.useful_frac")
	add("jobs/s", "sim_jobs_per_s")
	add("count", "des.scheduled", "des.fired", "des.canceled")
	add("1/s", "des.fired_per_s")
	add("count", "sched.starts.backfill", "sched.starts.in_order", "sched.reservations", "sched.compressions")
	add("s", "workload.gen_s", "invariant.audit_s")
	add("count", "invariant.findings")
	// the benchmark's reference kernel, which sim-grid's times are
	// scaled by.
	add("s", "ref.kernel_s")
	// middleware client, per call kind.
	for _, op := range []string{"submit", "cancel", "batch_submit", "batch_cancel"} {
		add("s", "client."+op+"_s.p50", "client."+op+"_s.p99")
	}
	add("s", "client.status_s.p50")
	add("count", "client.retries", "client.timeouts", "client.busy")
	// middleware service behind the benchmark's timing handler.
	add("s", "service.handler_s.p50", "service.handler_s.p99", "net.overhead_s.p50")
	add("count", "service.shed", "service.late", "service.idem_hits", "service.errors")
	add("ratio", "service.state_files_per_pair")
	// middleware codec, isolated replay of the workload's envelopes.
	for _, op := range []string{"submit", "cancel", "submit_batch4", "cancel_batch4", "status"} {
		add("us", "codec.marshal_us."+op, "codec.unmarshal_us."+op)
		add("count", "codec.allocs."+op)
	}
	// pbsd and its journal.
	add("ratio", "pbsd.cycles_per_op", "pbsd.scanned_per_op")
	add("us", "pbsd.submit_us", "pbsd.delete_us")
	add("count", "pbsd.queue_leak")
	add("s", "journal.recover_s")
	add("count", "journal.recovered")
	// real-stack end-to-end figures that only the gram workloads have.
	add("s", "request.p99_s")
	add("pairs/s", "capacity_pairs_per_s", "overload_goodput_pairs_per_s")
	add("ratio", "fail_frac")
	// Go runtime.
	add("count", "go.allocs_per_pair")
	add("KB", "go.alloc_kb_per_pair")
	add("MB", "go.alloc_mb")
	add("count", "go.gc_count")
	add("s", "go.gc_pause_s")
	add("ratio", "go.cpu_util")
	// observation cost.
	add("ratio", "obs.trace_overhead_frac")
	// the benchmark's own generator.
	add("s", "gen.lag_p99_s")
	add("count", "gen.inflight_max", "gen.dropped")
	// span self time: a span's duration minus its children's, summed
	// per span name.
	add("s", "self_s.workload", "self_s.experiment.spec", "self_s.core.run", "self_s.workload.gen",
		"self_s.invariant.audit", "self_s.gen.request", "self_s.client.submit", "self_s.client.cancel",
		"self_s.client.batch_submit", "self_s.client.batch_cancel", "self_s.client.status",
		"self_s.service.handler")
	return out
}
