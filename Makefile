# satcheck build & reproduction targets. Everything is stdlib Go; the only
# prerequisite is a Go toolchain (>= 1.22).

GO ?= go

.PHONY: all build test vet lint race bench bench-table3 bench-bdd bench-kernel bench-cluster bench-ooc bench-all experiments examples fuzz zfuzz zfuzz-soak cluster-smoke certify-smoke ooc-smoke bench-smoke conformance-regen netlines clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis: go vet always; staticcheck only when installed (CI
# installs it — see .github/workflows/ci.yml — but it is not a local
# prerequisite, the toolchain stays the only one).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go vet ran)"; \
	fi

test:
	$(GO) test ./...

# Full suite under the race detector — the concurrency contracts of
# internal/checker and internal/server are proved here (CI runs this too).
race:
	$(GO) test -race ./...

# Record the full test and benchmark logs the repository ships with.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# Record the paper's Table 1/2 benchmark families (3 samples each) as
# BENCH_table2.json via cmd/benchjson; the raw log still streams to stdout.
# The Table 2 family includes the parallel checker, so this is also the
# recorded sequential-vs-parallel comparison.
bench:
	$(GO) test . -run TestNone -bench 'BenchmarkTable[12]' -benchmem -count=3 -cpu 4 \
		| $(GO) run ./cmd/benchjson -o BENCH_table2.json

# Record the Table 3 core-iteration family plus the incremental-subsystem
# ablation (scratch vs persistent session, core iteration and BMC) as
# BENCH_table3.json; see EXPERIMENTS.md for the recorded numbers.
# (No -cpu pin: the family is sequential — unlike the Table 2 parallel
# checker — and oversubscribing small machines distorts the comparison.)
bench-table3:
	$(GO) test . -run TestNone -bench 'BenchmarkTable3' -benchmem -count=3 \
		| $(GO) run ./cmd/benchjson -o BENCH_table3.json

# Record the BDD-vs-CDCL ablation (Tseitin parity, pigeonhole, XOR chains,
# random 3-SAT) as BENCH_bdd.json; see EXPERIMENTS.md for the recorded
# numbers and the win/loss analysis. -benchtime 1x because the slow side of
# each pair runs seconds to tens of seconds — three single-shot samples
# bound the variance without hour-long runs. (No -cpu pin: both solvers are
# sequential, same reasoning as bench-table3.)
bench-bdd:
	$(GO) test . -run TestNone -bench 'BenchmarkBDDvsCDCL' -benchmem -benchtime 1x -count=3 \
		| $(GO) run ./cmd/benchjson -o BENCH_bdd.json

# Record the trusted-kernel ablation as BENCH_kernel.json: the hybrid
# checker vs the kernel's steady-state LRAT check on the Table 2 families
# (the headline geomean speedup), the end-to-end kernel method, the LRAT
# check from the proof file's bytes (BenchmarkTable2KernelLRATFile), the
# kernel-vs-legacy LRAT verifier comparison, and the kernel package's
# zero-allocation micro-benchmark. See EXPERIMENTS.md (Ablation G).
bench-kernel:
	( $(GO) test . -run TestNone -bench 'BenchmarkTable2(Hybrid|Kernel)' -benchmem -count=3 -cpu 4 ; \
	  $(GO) test ./internal/drat -run TestNone -bench 'BenchmarkLRATKernelVsLegacy' -benchmem -count=3 ; \
	  $(GO) test ./internal/kernel -run TestNone -bench 'BenchmarkKernelCheck' -benchmem -count=3 ) \
		| $(GO) run ./cmd/benchjson -o BENCH_kernel.json

# Record the sharded-cluster throughput comparison (1-shard and 3-shard
# router vs a bare zcheckd on the same payload mix, caches disabled) as
# BENCH_cluster.json; see docs/CLUSTER.md.
bench-cluster:
	$(GO) test ./internal/cluster -run TestNone -bench 'Throughput' -benchmem -count=3 \
		| $(GO) run ./cmd/benchjson -o BENCH_cluster.json

# Cluster smoke: the chaos soak (3 shards, zfuzz-stream traffic, a shard
# crash-killed and replaced mid-load), the graceful-drain smoke (mixed
# sync/async traffic with one SIGTERM-style drain), and every branch of the
# router's one shard round trip — failover past a dead or backpressuring
# shard, a corrupt blob on the sync and dual paths, the 413, and pin
# release on every way a submission ends — plus a dispatch over a part
# already quarantined, a drain that waits out a retry backoff, and the
# router's golden /metrics text, all under the race detector. CI runs
# this as its own job.
cluster-smoke:
	$(GO) test -race -v -run 'TestClusterChaosSoak|TestClusterSmokeDrain|TestCorruptBlobNeverDispatched|TestSyncFailoverOnShardDeath|TestFailoverPastBackpressuringShard|TestClusterDualCorruptBlob|TestRouterBodyTooLarge|TestIngestReleasesPins|TestDispatchAfterQuarantine|TestShutdownWaitsOutRetryBackoff|TestRouterMetricsGolden' ./internal/cluster/

# The suite's UNSAT instances zsat must solve AND dually certify end to end
# (exit 20 = certified; anything else fails the smoke). The conformance
# fixtures are UNSAT by construction; the corpus entries are the pinned
# golden-verdict instances that solve UNSAT.
CERTIFY_UNSAT = \
	testdata/conformance/php4.cnf testdata/conformance/rat.cnf testdata/conformance/unit.cnf \
	testdata/corpus/php4.cnf testdata/corpus/tseitin10.cnf testdata/corpus/unsat-units.cnf \
	testdata/corpus/bmc-counter4x8.cnf testdata/corpus/cec-adder6.cnf testdata/corpus/sched10x3.cnf

# Certification battery (docs/CERTIFY.md, docs/TESTING.md): the certify
# unit/tamper/conformance/independence tests, the server and cluster
# dual-policy tests, and the zbulk batch tool, all under the race detector;
# then zsat -certify over every suite UNSAT instance (a binary is built
# because `go run` collapses exit 20 to 1) and zbulk over the conformance
# fixtures. CI runs this as its own job.
certify-smoke:
	$(GO) test -race -v -run 'TestBundle|TestGoldenBundle|TestCertify|TestConformance|TestPipelineIndependence|TestDualCertifyEndToEnd|TestDualPipelineSubRequests|TestDualBadRequests|TestClusterDual|TestBulk' \
		./internal/certify/ ./internal/server/ ./internal/cluster/ ./cmd/zbulk/
	@set -e; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o $$bin/zsat ./cmd/zsat; \
	for f in $(CERTIFY_UNSAT); do \
		st=0; $$bin/zsat -certify $$f >/dev/null || st=$$?; \
		if [ $$st -ne 20 ]; then echo "certify-smoke: zsat -certify $$f exited $$st (want 20)"; exit 1; fi; \
		echo "certify-smoke: $$f CERTIFIED_UNSAT"; \
	done
	$(GO) run ./cmd/zbulk -dir testdata/conformance

# Out-of-core acceptance gate (docs/OOC.md). Three layers: the ooc unit
# tier (window shifting, spill/reload, fail-closed paths) and the stress
# generator under the race detector; the OOC_SMOKE-gated full-size check —
# a 2M-lemma proof verified at a 64MiB window budget with the Go runtime's
# memory limit pinned to 256MiB in-process (debug.SetMemoryLimit); and the
# CLI end to end — zgen -proof-stress writes a proof whose in-memory kernel
# image peaks around 565 MiB RSS, zverify checks it in memory and out of
# core under GOMEMLIMIT=256MiB, and the verdict + unsat-core output must be
# byte-identical. CI runs this as its own job.
ooc-smoke:
	$(GO) test -race ./internal/ooc/... ./internal/gen/
	$(GO) test -race -run 'TestOOC' .
	OOC_SMOKE=1 $(GO) test -v -run TestOOCSmokeMemoryLimit -timeout 20m .
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/zgen ./cmd/zgen; \
	$(GO) build -o $$tmp/zverify ./cmd/zverify; \
	$$tmp/zgen -proof-stress -stress-lemmas 2000000 -o $$tmp/stress; \
	$$tmp/zverify -format lrat -method kernel -core $$tmp/stress.cnf $$tmp/stress.lrat \
		| grep -v -e '^method=' -e '^ooc:' > $$tmp/kernel.out; \
	GOMEMLIMIT=256MiB $$tmp/zverify -format lrat -method ooc -mem-budget 64MiB -core $$tmp/stress.cnf $$tmp/stress.lrat \
		| grep -v -e '^method=' -e '^ooc:' > $$tmp/ooc.out; \
	diff $$tmp/kernel.out $$tmp/ooc.out; \
	echo "ooc-smoke: verdict and core identical in and out of core"

# The benchmark (bench/) is a nested module, so the root go build/vet/test
# never compile it: vet it and run its short smoke tests, which fail when a
# root change drops a name the benchmark uses. CI runs this as its own job.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# Record the out-of-core ablation as BENCH_ooc.json: the in-memory kernel
# baseline vs the window-shifted checker at descending budgets on the same
# generated stress proof. -benchtime 1x because each run is a single
# end-to-end verification pass; see EXPERIMENTS.md (Ablation H).
bench-ooc:
	$(GO) test . -run TestNone -bench 'BenchmarkOOC' -benchmem -benchtime 1x -count=3 \
		| $(GO) run ./cmd/benchjson -o BENCH_ooc.json

# Regenerate the external-tool conformance fixtures from real drat-trim /
# lrat-trim runs when the binaries are on PATH; skips with a note otherwise
# (CI never needs them — the fixtures are committed bytes). See
# testdata/conformance/README.md.
conformance-regen:
	sh scripts/conformance_regen.sh

# Every benchmark in the repository, one sample, no recording.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/experiments -table all -df-mem-limit-mb 8

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/equivalence
	$(GO) run ./examples/unsatcore
	$(GO) run ./examples/faultinjection
	$(GO) run ./examples/bmc
	$(GO) run ./examples/interpolation

# Short fuzz sessions over the input parsers and the codec-agreement target.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParseDimacs -fuzztime 30s ./internal/cnf/
	$(GO) test -run xxx -fuzz FuzzReaderAuto -fuzztime 30s ./internal/trace/
	$(GO) test -run xxx -fuzz FuzzTraceParse -fuzztime 30s ./internal/trace/
	$(GO) test -run xxx -fuzz FuzzTraceCheck -fuzztime 30s ./internal/tracecheck/
	$(GO) test -run xxx -fuzz FuzzDerive -fuzztime 30s ./internal/tracecheck/
	$(GO) test -run xxx -fuzz FuzzChain -fuzztime 30s ./internal/resolve/
	$(GO) test -run xxx -fuzz FuzzDRATParse -fuzztime 30s ./internal/drat/
	$(GO) test -run xxx -fuzz FuzzLRATParse -fuzztime 30s ./internal/drat/
	$(GO) test -run xxx -fuzz FuzzLRATScan -fuzztime 30s ./internal/kernelcheck/
	$(GO) test -run xxx -fuzz FuzzSpillRecord -fuzztime 30s ./internal/ooc/
	$(GO) test -run xxx -fuzz FuzzERLRATBridge -fuzztime 30s ./internal/bdd/

# Adversarial conformance campaign (differential fuzz + mutation escapes);
# see docs/TESTING.md. zfuzz is the CI smoke shape, zfuzz-soak the nightly one.
zfuzz:
	$(GO) run ./cmd/zfuzz -rounds 200 -seed 1 -j 2

zfuzz-soak:
	$(GO) run ./cmd/zfuzz -duration 5m -j 2 -v

# Net Go line count of the working tree against BASE (default HEAD), for
# non-test and test files apart: `make netlines BASE=main`. New files count
# once git tracks them (git add).
BASE ?= HEAD
netlines:
	@git diff --numstat $(BASE) -- '*.go' | awk ' \
		{ t = ($$3 ~ /_test\.go$$/); add[t] += $$1; del[t] += $$2 } \
		END { printf "non-test Go: +%d -%d = %+d\n", add[0], del[0], add[0] - del[0]; \
		      printf "test Go:     +%d -%d = %+d\n", add[1], del[1], add[1] - del[1] }'

# Checked-in seed corpora live under testdata/fuzz/ — only drop the cached
# machine-generated corpus, never the repository's seeds.
clean:
	$(GO) clean -fuzzcache
