GO ?= go

.PHONY: check fmt-check tidy-check vet build test shuffle race race-runner race-broker race-guardian race-transcode race-vsa race-qoe race-edge fuzz-smoke bench bench-plan-phase bench-all bench-runner bench-overload bench-transcode bench-saturate bench-sla bench-edge chaos chaos-parallel trace-demo

# The full gate: what CI (and a careful human) runs before merging. The
# race target covers the plan pipeline's atomic counters and cache; the
# shuffle target catches inter-test state leaks; the hygiene targets keep
# the tree gofmt-clean and the module file tidy.
check: fmt-check tidy-check vet build race shuffle fuzz-smoke

# gofmt -l prints offending files and exits 0; fail when it prints.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:" >&2; echo "$$out" >&2; exit 1; fi

tidy-check:
	$(GO) mod tidy -diff

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

shuffle:
	$(GO) test -shuffle=on -count=1 ./...

race:
	$(GO) test -race ./...

# Focused race gate for the parallel sweep stack: the worker pool plus the
# hermeticity of every experiment cell it schedules.
race-runner:
	$(GO) test -race ./internal/runner/... ./internal/experiments/...

# Focused race gate for the control plane: brokers, the two-phase
# coordinator, and the admission/reservation layers they drive.
race-broker:
	$(GO) test -race ./internal/broker/... ./internal/core/... ./internal/gara/...

# Focused race gate for the runtime-QoS stack: guardian monitors, the
# transport accounting they sample, the congestion waterfill, and the
# circuit breaker / retry budget on the control plane.
race-guardian:
	$(GO) test -race . ./internal/guardian/... ./internal/transport/... ./internal/netsim/... ./internal/broker/...

# Focused race gate for the staged-execution stack: the transcoding farm
# (EDF queue, autoscaler, billing), the transport sessions consuming its
# GOPs, and the stage-DAG admission/reservation path.
race-transcode:
	$(GO) test -race . ./internal/transcode/... ./internal/transport/... ./internal/core/...

# Focused race gate for the lock-free accounting stack: the VSA
# accumulator/committer, the node books they reconcile into, and the
# admission hot path that parks holds on them.
race-vsa:
	$(GO) test -race ./internal/vsa/... ./internal/gara/... ./internal/core/...

# Focused race gate for the edge proxy-cache tier: per-site prefix stores
# under concurrent Observe/Tick, split-plan admission in core, and the
# public edge API plus golden equivalence in the root package. The
# experiments leg is scoped to the edge sweep — race-runner already covers
# the full experiments package.
race-edge:
	$(GO) test -race . ./internal/edgecache/... ./internal/core/...
	$(GO) test -race -run Edge ./internal/experiments/

# Focused race gate for the QoE persistence stack: guardians appending
# violation history through the vdbms engine into heap+btree storage while
# readers scan, plus the clause parser both layers share.
race-qoe:
	$(GO) test -race ./internal/guardian/... ./internal/vdbms/... ./internal/storage/... ./internal/qos/...

# Short coverage-guided fuzz passes: the MPEG layering parser (parse or
# ErrCorrupt, never panic) and the WITH QOS clause parser (parse or a
# positioned error, never panic; accepted clauses re-parse canonically).
fuzz-smoke:
	$(GO) test -fuzz=FuzzParser -fuzztime=10s ./internal/mpeg
	$(GO) test -fuzz=FuzzQoSClause -fuzztime=10s ./internal/vdbms

# The repository's benchmark (bench/README.md): five workloads, seven
# end-to-end metrics each; `go run ./bench <workload> -trace 1` adds the
# per-layer metrics. It prints; it writes no file.
bench:
	$(GO) run ./bench all

# Plan-phase benchmarks (cold vs warm candidate cache, full sort vs
# best-first pop), archived as a JSON artifact for diffing across PRs.
bench-plan-phase:
	$(GO) test -run '^$$' -bench PlanPhase -benchmem ./internal/core | $(GO) run ./cmd/benchjson > BENCH_plan_phase.json
	@cat BENCH_plan_phase.json

bench-all:
	$(GO) test -bench=. -benchmem ./...

# Serial vs parallel sweep wall-clock (the Scenario/Runner speedup),
# archived as a JSON artifact for diffing across PRs.
bench-runner:
	$(GO) test -run '^$$' -bench RunnerSweep -benchtime 2x ./internal/experiments | $(GO) run ./cmd/benchjson -out BENCH_runner.json
	@cat BENCH_runner.json

# Overload ramp, baseline vs guarded (guardian + breaker + admission
# queue), archived as a JSON artifact for diffing across PRs.
bench-overload:
	$(GO) run ./cmd/qsqbench -exp overload -replicas 3 -parallel 6 -bench BENCH_overload.json

# Transcode-farm Pareto sweep (worker-class mixes vs the inline baseline:
# dollars vs p99 startup delay), archived as a JSON artifact.
bench-transcode:
	$(GO) run ./cmd/qsqbench -exp transcode -replicas 3 -parallel 6 -bench BENCH_transcode.json

# Admission hot path at saturation: 10^5 sliding-window sessions on one
# hot site, broker-serialized baseline vs the VSA fast path, archived as a
# JSON artifact (fidelity hashes + admissions/sec + p99 decision latency).
bench-saturate:
	$(GO) run ./cmd/qsqbench -exp saturate -bench BENCH_admission_scale.json

# SLA-tier sweep: the same congestion ramp delivered under clause
# strictness tiers (none/bronze/silver/gold), QoE percentiles queried back
# through the vdbms qoe table, archived as a JSON artifact.
bench-sla:
	$(GO) run ./cmd/qsqbench -exp sla -replicas 3 -parallel 6 -bench BENCH_sla.json

# Edge-tier sweep: the same Zipf + diurnal + flash-crowd workload delivered
# origin-only and through the cooperative edge proxy-cache tier — startup
# percentiles, hit ratio and origin-link offload, archived as a JSON
# artifact.
bench-edge:
	$(GO) run ./cmd/qsqbench -exp edge -replicas 3 -parallel 6 -bench BENCH_edge.json

chaos:
	$(GO) run ./cmd/qsqbench -exp chaos

# Replica fan-out smoke: the chaos experiment swept over 4 independently
# seeded replicas on 4 workers.
chaos-parallel:
	$(GO) run ./cmd/qsqbench -exp chaos -parallel 4 -replicas 4 -chaos-horizon 300

# Generate a Chrome trace of the chaos run and sanity-check that the
# pipeline spans made it into the export (open trace.json in
# chrome://tracing or ui.perfetto.dev).
trace-demo:
	$(GO) run ./cmd/qsqbench -exp chaos -trace trace.json -metrics metrics.json
	@for span in plan_enumerate reserve stream failover teardown; do \
		grep -q "\"$$span\"" trace.json || { echo "trace.json missing $$span spans" >&2; exit 1; }; \
	done
	@echo "trace.json OK: plan/reserve/stream/failover/teardown spans present"
