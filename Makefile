# Developer workflow targets. `make check` is the gate perf and
# refactor PRs must keep green (vet + full test suite under the race
# detector); `make bench` regenerates the perf trajectory, including
# the BENCH_core.json run report written by BenchmarkCorePipeline.

GO ?= go

.PHONY: build test check race vet test-allocs fuzz-checkpoint bench bench-core bench-kernel bench-shard bench-traced bench-index benchdiff benchdiff-traced serve-smoke chaos-smoke index-smoke cluster-smoke assembly-smoke metrics-lint clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The allocation pins are built with //go:build !race (the race
# detector changes allocation behaviour), so check runs them in a
# separate non-race pass.
test-allocs:
	$(GO) test -run 'ZeroSteadyStateAllocs' ./internal/align/

check: vet race test-allocs fuzz-checkpoint serve-smoke chaos-smoke index-smoke cluster-smoke assembly-smoke metrics-lint

# A short fuzzing pass over the job checkpoint decoder, starting from
# the committed seed corpus in internal/jobs/testdata/fuzz: crafted
# DWCP files must be rejected with a structured error or decode to a
# checkpoint that round-trips and lays out without panicking.
fuzz-checkpoint:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 10s ./internal/jobs/

# End-to-end serving check: darwind on a synthetic genome, load from
# darwin-client, non-empty SAM back, clean drain on SIGTERM.
serve-smoke:
	./scripts/serve_smoke.sh

# Resilience check: darwind under injected flush errors, per-read
# panics, and stream hiccups must return only well-formed responses,
# open the per-source circuit breaker within its threshold, refuse
# -faults without DARWIN_ALLOW_FAULTS=1, and drain with goroutines
# back at the pre-serve baseline.
chaos-smoke:
	./scripts/chaos_smoke.sh

# Persistent index roundtrip: darwin-index build/inspect/verify, SAM
# bit-identity across FASTA build / explicit -index / discovered
# sidecar, and corruption detection + graceful fallback.
index-smoke:
	./scripts/index_smoke.sh

# Distributed scatter-gather check: darwin-router over two darwind
# cluster workers booted from one shared .dwi must produce SAM
# byte-identical to the monolithic engine, survive a SIGSTOPped
# replica via hedged requests and a SIGKILLed one via failover, and
# drain cleanly.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Assembly job API durability check: submit an assemble job, SIGTERM
# darwind mid-overlap after a checkpoint lands, restart over the same
# -jobs-dir, and require the job to resume from its checkpoint and
# complete (resumed + resume_read in status, jobs/* metrics lint-clean,
# darwin-client -jobs-target end-to-end).
assembly-smoke:
	./scripts/assembly_smoke.sh

# Observability exposition check: a live darwind's /metrics must be
# valid OpenMetrics with no duplicate or undeclared families, and
# /v1/stats must serve the rolling SLO windows.
metrics-lint:
	./scripts/metrics_lint.sh

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Just the core-pipeline benchmark and its machine-readable report.
bench-core:
	$(GO) test -bench=BenchmarkCorePipeline -run '^$$' .
	@echo "report: BENCH_core.json"

# The kernel benchmarks: single tile (auto and forced-bitvector
# tiers), D-SOFT query, and end-to-end MapRead, whose run writes the
# BENCH_kernel.json report that benchdiff compares against a recorded
# baseline.
bench-kernel:
	$(GO) test -bench='BenchmarkAlignTile$$|BenchmarkAlignTileBitvector$$|BenchmarkGACTTile$$|BenchmarkDSOFTQuery$$|BenchmarkMapRead$$' -benchmem -run '^$$' .
	@echo "report: BENCH_kernel.json"

# BenchmarkShardMap: the sharded scatter-gather engine under a ¼-index
# residency budget (the bounded-memory worst case: every Map batch
# rebuilds evicted shards).
# Writes the BENCH_shard.json run report; diff two runs with
# ./scripts/benchdiff.sh BENCH_shard_old.json BENCH_shard.json.
bench-shard:
	$(GO) test -bench='BenchmarkShardMap$$' -benchmem -run '^$$' .
	@echo "report: BENCH_shard.json"

# MapRead under a live request span — the tracing-overhead guard's
# traced half. Writes BENCH_kernel_traced.json.
bench-traced:
	$(GO) test -bench='BenchmarkMapReadTraced$$' -benchmem -run '^$$' .
	@echo "report: BENCH_kernel_traced.json"

# Cold-start comparison: time-to-first-mapped-read building the index
# from FASTA vs mapping a prebuilt .dwi file. Writes BENCH_index.json
# with the measured speedup (see EXPERIMENTS.md).
bench-index:
	$(GO) test -bench='BenchmarkIndexColdStart' -benchmem -run '^$$' .
	@echo "report: BENCH_index.json"

# Compare the committed pre-kernel baseline against the current run;
# exits non-zero on a >10% throughput regression.
benchdiff:
	./scripts/benchdiff.sh BENCH_kernel_before.json BENCH_kernel.json

# Tracing-overhead gate: traced MapRead must stay within 3% of the
# untraced kernel run. Regenerate both sides on the same machine
# (`make bench-kernel bench-traced`) before judging a diff.
benchdiff-traced:
	./scripts/benchdiff.sh -threshold 0.03 BENCH_kernel.json BENCH_kernel_traced.json

clean:
	rm -f BENCH_core.json
