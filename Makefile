# Developer entry points. Everything is stdlib Go; no external deps.

GO ?= go

.PHONY: all build test fmt-check loc bench-module race abba bench-json bench-gate slo serve results full-results fuzz examples vet chaos chaos-nightly chaos-sweep mutants elastic conflict scale

all: vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	test -z "$$(gofmt -l .)"

test:
	$(GO) test ./...

# The simplicity ledger: Go lines outside the benchmark module and its build
# directory, non-test and in all.
LOC_FILES = find . -name '*.go' -not -path './benchmark/*' -not -path './.bench_build/*'

loc:
	@printf 'non-test %s\n' "$$($(LOC_FILES) -not -name '*_test.go' -print0 | xargs -0 cat | wc -l)"
	@printf 'all      %s\n' "$$($(LOC_FILES) -print0 | xargs -0 cat | wc -l)"

# The benchmark is a nested module (benchmark/go.mod), so the root ./...
# patterns above never compile it: vet and smoke-test it on its own so an
# internal API change cannot break it silently.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/udpnet/ ./internal/sim/
	$(GO) test -race ./internal/netsim/ -run 'TestPutPacket|TestPutAckBatch|TestPool' -count=1
	$(GO) test -race . -run 'TestSendOptionsConcurrent|TestSendRacingClose|TestUDPJoinRacingSend|TestUDPSendReusesSlice|TestLiveJoinDrain' -count=10

# Before/after: BASE (and CHANGE, default the working tree) against each
# other, every BENCHMARK.json workload and BENCH_core.json row in ten
# alternating pairs: make abba BASE=HEAD~1 [CHANGE=HEAD]
abba:
	$(GO) run ./cmd/onepipe-bench -abba $(BASE)$(if $(CHANGE),..$(CHANGE))

# Refresh the committed performance-tracking report: the packages' own Go
# benchmarks its rows name, in -abba pairs against the commit that last
# wrote it. A row's ns/op changes only when the pairs call it changed; the
# hand-set gate_floor is copied untouched.
bench-json:
	$(GO) run ./cmd/onepipe-bench -bench-json

# CI's perf smoke: re-measure engine events/sec and fail below the
# hand-pinned gate_floor in the committed BENCH_core.json (a floor that
# re-capturing the file cannot lower).
bench-gate:
	$(GO) run ./cmd/onepipe-bench -bench-gate BENCH_core.json

# The SLO race: batched / unbatched / conflict-aware configs under one
# recorded trace + impairment profile, p50/p99/p999 (docs/workloads.md).
slo:
	$(GO) run ./cmd/onepipe-bench -fig slo

# The serving tier: closed-loop clients driving KV / txn / SMR services
# on the Fabric API, plus the elastic Join/Drain timeline
# (docs/serving.md).
serve:
	$(GO) run ./cmd/onepipe-bench -fig serve

# Regenerate every figure/table at quick scale into results_quick.txt.
results:
	$(GO) run ./cmd/onepipe-bench -all | tee results_quick.txt

# The paper's full sweeps (up to 512 processes; takes a while).
full-results:
	$(GO) run ./cmd/onepipe-bench -all -full | tee results_full.txt

fuzz:
	$(GO) test ./internal/wire/ -fuzz FuzzDecode -fuzztime 30s
	$(GO) test ./internal/wire/ -fuzz FuzzDecodeCaptured -fuzztime 30s -run '^$$'
	$(GO) test ./internal/wire/ -fuzz FuzzTSOrdering -fuzztime 15s
	$(GO) test ./internal/wire/ -fuzz FuzzParseAckBatch -fuzztime 15s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzAsmBufReorder -fuzztime 30s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzUnitRing -fuzztime 30s -run '^$$'
	$(GO) test ./internal/core/ -fuzz FuzzPairTable -fuzztime 30s -run '^$$'
	$(GO) test ./internal/barrier/ -fuzz FuzzRegisterSet -fuzztime 30s -fuzzminimizetime 0 -run '^$$'
	$(GO) test ./internal/sim/ -fuzz FuzzEngineOrder -fuzztime 30s -fuzzminimizetime 0 -run '^$$'
	$(GO) test ./internal/topology/ -fuzz FuzzRouteTable -fuzztime 30s -fuzzminimizetime 0 -run '^$$'
	$(GO) test ./internal/oracle/ -fuzz FuzzAgreement -fuzztime 30s -run '^$$'

# Quick chaos sweep (the PR-gating budget; see docs/testing.md).
chaos:
	$(GO) test ./internal/chaos/ -run 'TestChaos$$' -seeds 50 -v

# The nightly budget: a long randomized sweep under the race detector.
# Failing seeds' reports land in CHAOS_ARTIFACT_DIR for upload/replay.
chaos-nightly:
	CHAOS_ARTIFACT_DIR=$${CHAOS_ARTIFACT_DIR:-chaos-artifacts} \
	$(GO) test ./internal/chaos/ -race -run 'TestChaos' -seeds 300 -timeout 120m -v

# The wide sweep: seeds 1-300, 5000-5299 and 10000-11999 once each, without
# -race or minimization, one line per failing seed with its first violation
# (ROADMAP item 1's exit check; not a CI gate).
chaos-sweep:
	$(GO) test ./internal/chaos/ -run 'TestChaosSweep$$' -sweep 1-300,5000-5299,10000-11999 -timeout 60m

# The mutation catalogue (internal/mutants): plant each one-line bug in a
# copy of the module and require its contract check to catch it, or to miss
# it where the catalogue records a finding (docs/testing.md, kill table).
mutants:
	$(GO) test ./internal/mutants/ -run 'TestMutants$$' -mutants -timeout 20m -v

# Live-reconfiguration timeline: rolling host join + spine drain under
# load (docs/reconfiguration.md). The notes carry pass/fail verdicts.
elastic:
	$(GO) run ./cmd/onepipe-bench -fig elastic

# Conflict-aware ablation: relaxed (Generic Multicast) delivery raced
# against the unified total order across conflict rates (DESIGN.md #12).
conflict:
	$(GO) run ./cmd/onepipe-bench -fig conflict

# Simulator scale: all-to-all on a 1024-host fat-tree, engine Mev/s.
scale:
	$(GO) run ./cmd/onepipe-bench -fig scale

examples:
	@for ex in quickstart bank kvstore replication snapshot lockmanager; do \
		echo "=== examples/$$ex ==="; $(GO) run ./examples/$$ex || exit 1; done
