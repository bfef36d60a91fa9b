GO ?= go

.PHONY: check fmt-check tidy-check vet build test shuffle race fuzz-smoke bench bench-all chaos chaos-parallel trace-demo

# The full gate, and the only one: what CI (and a careful human) runs before
# merging. The race target runs every package under the race detector; the
# shuffle target catches inter-test state leaks; the hygiene targets keep
# the tree gofmt-clean and the module file tidy. Both test targets include
# the root TestUnreachedNames, which fails on a name declared under
# internal/ that no non-test file reaches and testdata/unreached.txt does
# not list with a reason, and on a listed name that is reached again. A
# field that non-test code only writes (assigns, increments, sets as a
# literal key, or stores into through an index) is unreached too; an
# allowlist line names its class: key, marshalled, printed, facade or
# oracle (DESIGN.md §3).
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

# Short coverage-guided fuzz passes: the quasaqd line protocol (every reply
# is one ERR line, or payload lines ended by OK, with no payload line that
# reads as a terminator), the WITH QOS clause parser (parse or a
# positioned error, never panic; accepted clauses re-parse canonically) and
# the fault-schedule parser (parse or an error, never panic; accepted
# factors lie in (0,1]; accepted schedules re-parse to the same events).
fuzz-smoke:
	$(GO) test -fuzz=FuzzDispatch -fuzztime=10s ./cmd/quasaqd
	$(GO) test -fuzz=FuzzQoSClause -fuzztime=10s ./internal/vdbms
	$(GO) test -fuzz=FuzzFaultSchedule -fuzztime=10s ./internal/faults

# The repository's benchmark (bench/README.md): five workloads, seven
# end-to-end metrics each; `go run ./bench <workload> -trace 1` adds the
# per-layer metrics. It prints; it writes no file.
bench:
	$(GO) run ./bench all

bench-all:
	$(GO) test -bench=. -benchmem ./...

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
