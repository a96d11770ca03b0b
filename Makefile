# Tier-1 gate: everything a PR must keep green. `make check` is what CI
# and reviewers run; docs/ARCHITECTURE.md documents it as the gate.

GO ?= go

# External linter pins: CI runs these via `go run pkg@version` so a
# failure reproduces locally with the exact same tool version.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: check build vet lint lint-allows lint-extra test short race bench microbench artifacts-fast serve serve-smoke load-smoke trace-smoke docs-check loc clean

## check: the tier-1 gate — vet, lint (simcheck), the allow-directive
## audit, build, race-enabled tests.
check: vet lint lint-allows build race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

## lint: the simcheck suite (internal/analysis) over the whole tree.
## detlint/hotpath/ctxfirst/tracelint/errlint/apilint enforce the
## determinism, alloc-discipline, context-first, telemetry-naming,
## error-hygiene and wire-type invariants; leaklint/locklint/chanlint
## (the conccheck pack) enforce goroutine-lifecycle, mutex and channel
## discipline in the concurrent layers. docs/ARCHITECTURE.md §8
## documents each one and the runtime test it backstops.
SIMCHECK := bin/simcheck
SIMCHECK_SRC := $(shell find internal/analysis cmd/simcheck -name '*.go' -not -name '*_test.go' 2>/dev/null) go.mod

$(SIMCHECK): $(SIMCHECK_SRC)
	$(GO) build -o $(SIMCHECK) ./cmd/simcheck

lint: $(SIMCHECK)
	$(GO) vet -vettool=$(CURDIR)/$(SIMCHECK) ./...

## lint-allows: audit every //simcheck:allow directive in shipped code —
## one table row per exemption, nonzero exit if any justification is
## empty. The table in docs/ARCHITECTURE.md §8 snapshots this output.
lint-allows:
	scripts/lint_allows.sh

## lint-extra: third-party linters, version-pinned above. Needs network
## access to fetch the tools (CI runs this; offline dev boxes can skip).
lint-extra:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

## test: plain test run (no race detector), faster on small machines.
test:
	$(GO) test ./...

## short: the -short subset (includes the end-to-end smoke claim), what CI
## runs in addition to the race suite.
short:
	$(GO) test -short ./...

## race: full test suite under the race detector (the Runner is concurrent).
## The golden sweeps in the root package exceed go test's default 10m
## timeout under -race on a single-core box, so raise it explicitly.
race:
	$(GO) test -race -timeout 30m ./...

## bench: the tracked end-to-end benchmark. scripts/bench.sh runs
## perfbench on every BENCHMARK.json workload (5 runs each plus one traced
## seed-41 ledger), writes BENCH.json.new and fails if a median (or, for
## a metric too noisy for medians, its whole quartile box) regressed past
## its bound against the committed BENCH.json, which it never rewrites. Run it on an otherwise idle, dedicated machine; re-baseline
## deliberately with `mv BENCH.json.new BENCH.json`.
bench:
	scripts/bench.sh

## microbench: every go-test benchmark (per-artifact experiments, the
## BenchmarkFullRun sweep, eventq, memctrl, runner scaling) with
## allocation stats.
microbench:
	$(GO) test -bench=. -benchmem ./...

## artifacts-fast: CI-grade regeneration of every paper artifact — quarter
## -scale workloads, parallel runs. See EXPERIMENTS.md "fast path".
artifacts-fast:
	$(GO) run ./cmd/experiments -run all -scale 0.25 -step 4 -jobs 0 -v

## serve: the contention service with one pair pre-fitted, so the first
## query already hits the analytical fast path. docs/SERVER.md is the
## API reference and runbook.
serve:
	$(GO) run ./cmd/simserved -addr localhost:8080 -scale 0.1 -warm IntelUMA8/CG.W

## serve-smoke: build simserved, start it, and drive the SERVER.md recipe
## end to end — health, analytical hit, simulation fallback, analytical
## latency bound, graceful shutdown. CI runs this in the serve job.
serve-smoke:
	scripts/serve_smoke.sh

## load-smoke: boot simserved and validate it under open-loop load with
## cmd/loadgen — sustained RPS, achieved CV² vs configured, an analytical
## p99 bound and the M/M/1 latency-vs-load fit. CI runs this in the load
## job; docs/LOADGEN.md explains how to read the report.
load-smoke:
	scripts/load_smoke.sh

## trace-smoke: two self-served load points with tracing on, then
## cmd/traceview rebuilds the client+server waterfalls and gates trace
## completeness, client/server join coverage and the analytical p99 SLO.
## CI runs this in the trace job; docs/TRACING.md explains the output.
trace-smoke:
	scripts/trace_smoke.sh

## docs-check: grep fenced sh blocks in README/EXPERIMENTS/docs for
## commands, flags and make targets that no longer exist, so the docs
## cannot silently go stale.
docs-check:
	scripts/docs_check.sh

## loc: production Go lines — non-test .go files outside vendor/,
## testdata/, perfbench/ and hidden build directories. Quote this number
## for any "production lines X -> Y" claim.
loc:
	@find . -path './.*' -prune -o -path ./vendor -prune -o -path ./perfbench -prune \
		-o -name testdata -prune -o -name '*.go' -not -name '*_test.go' -print \
		| xargs cat | wc -l | awk '{print "production Go lines:", $$1}'

clean:
	$(GO) clean ./...
