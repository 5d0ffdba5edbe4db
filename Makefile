GO ?= go

# Label recorded with `make bench` entries in BENCH_core.json
# (override: make bench BENCH_LABEL=pr3-after).
BENCH_LABEL ?= dev

.PHONY: build test check bench bench-all fmt results validate examples overload-smoke overload-smoke-fast

# Experiments recorded in results_full.txt: the registry minus sec4,
# whose wall-clock measurements are not deterministic.
RESULTS_EXPERIMENTS = fig12,table1,table2,fig3,table3,fig4,table4,qgrowth,inflate,loadsweep,ablations,multiq,moldable,faults,validate,trace,routing

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the full verification gate: static analysis, the whole test
# suite under the race detector, and a one-iteration benchmark smoke so
# bench code cannot silently rot. staticcheck runs when installed and
# is skipped (with a note) otherwise — CI always installs it, so local
# environments without it still get the rest of the gate.
check:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi
	$(GO) test -race ./...
	$(GO) test -run=NONE -bench=Engine -benchtime=1x .

# bench runs the core simulator benchmarks and appends the numbers to
# BENCH_core.json (jobs/s from BenchmarkSimulationCore, ns/op and
# allocs/op from BenchmarkEngine, whole-registry wall-clock from
# BenchmarkRegistryQuick, daemon fast-vs-legacy pairs/s from
# BenchmarkPBSDSubmitCancel, batched middleware pairs/s from
# BenchmarkClientBatch), then prints the delta against the previous
# entry. See README "Performance".
bench:
	$(GO) test -run=NONE -bench='SimulationCore$$|Engine|RegistryQuick$$|Routing|PBSDSubmitCancel|ClientBatch' -benchmem . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' -out BENCH_core.json

# bench-all runs every benchmark (per-table/figure experiment drivers,
# middleware, daemon, trace parsing) without recording history.
bench-all:
	$(GO) test -bench=. -benchmem

fmt:
	gofmt -l -w .

# validate runs the validation harness: the invariant suite (causality,
# liveness, capacity, work conservation, CPU-time ledger, determinism)
# over representative scenarios, the analytical queueing twins, and the
# SWF trace replay. Exits non-zero on any violation; record confirmed
# violations in FINDINGS.md.
validate:
	$(GO) run ./cmd/redsim -run validate,trace -q

# examples runs each program under examples/ once, so they are
# executed and not just compiled; any non-zero exit fails the target.
# Each finishes in a few seconds.
examples:
	@for e in $(wildcard examples/*/); do \
		echo "$$e"; \
		$(GO) run ./$$e > /dev/null || exit 1; \
	done

# overload-smoke drives the overload experiment — the real daemon +
# middleware stack behind the fault proxy, open-loop load, admission
# control, and the breaker chaos window — at a single low rate under
# the race detector. Wall-clock and nondeterministic (like sec4), so
# it is a liveness/race gate, not a results snapshot; finishes in a
# few seconds.
overload-smoke:
	$(GO) run -race ./cmd/redsim -run overload -sweep 50 -stack legacy -q

# overload-smoke-fast is the same gate on the optimized stack only:
# incremental scheduling cycles, group-committed journal, pooled
# batched client. Exercises the fast path's concurrency under -race.
overload-smoke-fast:
	$(GO) run -race ./cmd/redsim -run overload -sweep 50 -stack fast -q

# results regenerates results_full.txt through the registry dispatcher
# (deterministic: fixed seeds, timing on stderr) and diffs it against
# the committed file. An unchanged file is left alone; a drifted one is
# replaced so the diff can be reviewed and committed.
results:
	$(GO) run ./cmd/redsim -run $(RESULTS_EXPERIMENTS) -q > results_full.txt.tmp
	@if diff -u results_full.txt results_full.txt.tmp; then \
		echo "results_full.txt: up to date"; rm results_full.txt.tmp; \
	else \
		mv results_full.txt.tmp results_full.txt; \
		echo "results_full.txt updated — review the diff above and commit"; \
	fi
