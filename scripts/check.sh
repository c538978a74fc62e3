#!/usr/bin/env sh
# check.sh — the repo's pre-commit gate: formatting, vet, build, a scan for
# fused multiply-adds on four other GOARCHes, the kernel, aggregation and
# codec tests as 32-bit binaries, the full test suite under the race detector (including the chaos fault-injection
# session and the parallel-vs-serial parity tests), a trainer benchmark
# smoke, and a short fuzz smoke over the frame, parameter-blob and
# TrainState decoders.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# No fused multiply-adds in the kernel and aggregation packages on any
# GOARCH: amd64 never fuses, but arm64, ppc64le, s390x and riscv64 do unless
# each product is rounded explicitly (float64(a*b)), and a fused op changes
# the bits of a sum (DESIGN.md §5). The toolchain cross-compiles offline;
# -gcflags=-S prints (or replays from the build cache) the assembly.
for arch in arm64 ppc64le s390x riscv64; do
    asm=$(GOARCH=$arch go build -gcflags=-S ./internal/tensor ./internal/agg 2>&1)
    case "$asm" in *TEXT*) ;; *) echo "fma scan: no assembly listing for $arch" >&2; exit 1 ;; esac
    fused=$(printf '%s\n' "$asm" | grep -E 'FN?M(ADD|SUB)' || true)
    if [ -n "$fused" ]; then
        echo "fma scan: fused multiply-adds under GOARCH=$arch:" >&2
        echo "$fused" >&2
        exit 1
    fi
done
# The portable GEMM body, the aggregation sum and the wire codec as 32-bit
# binaries, which run natively on amd64 Linux: a host without AVX runs
# gemmGo, and a 32-bit int must not cut a seed or a count.
GOARCH=386 go test ./internal/tensor ./internal/agg ./internal/wire
GOARCH=386 go test -run TrainState ./internal/core
# Project-specific invariants (determinism zones, lock discipline, error
# handling, telemetry naming, float comparisons, goroutine lifecycle,
# kernel allocation discipline, wire exhaustiveness) — exits non-zero on
# any finding; see cmd/fedmigr-lint and DESIGN.md §6.
go run ./cmd/fedmigr-lint ./...
# Self-lint: the lint engine is held to its own bar. -all-zones disables
# the package-path gates so errcheck and lockcheck apply to
# internal/analysis itself even though it sits in no analyzer zone.
go run ./cmd/fedmigr-lint -only errcheck,lockcheck -all-zones ./internal/analysis/...
# internal/experiments alone runs ~9 min under the race detector on a
# single core, right at go test's default 10m per-package timeout; give
# the suite explicit headroom so slow hosts don't flake.
go test -race -timeout 30m ./...
# Allocation-free training step, pinned without the race detector (whose
# runtime may allocate on its own): a warmed C10CNN/MLP/ResLite step, a
# second evaluation forward and the warmed *Into kernels must each report
# zero allocations; the golden model and session digests pin the arithmetic
# itself.
# Likewise the wire path: a warmed model hop (marshal into the sender's
# buffer, frame write, read through the connection's frameReader) allocates
# a handful of small objects and nothing model-sized. The optimised step
# is held to its pre-optimisation references (kept in the test files) bit
# for bit — the branch-free max-pool select and ReLU, the backward that
# stops at the lowest parameterised layer, Conv2D.InputGrad, Adam,
# TrainStep, PER sampling, the input-only critic probe, the simplex
# projection, the streaming aggregation sum, the assignment solver — and a
# warmed TrainStep must allocate nothing.
go test -run 'AllocatesNothing|AllocateNothing|TestGoldenModelHashes|TestGoldenSessionHash|MatchesReference|InputGrad|TestTrainStepAllocations|TestFrameAllocs|TestAppendParamsReusesBuffer' ./internal/tensor ./internal/nn ./internal/drl ./internal/qp ./internal/core ./internal/fednet .
# 100k-client streaming smoke: one full cohort-sampled, hierarchically
# aggregated run at 100 000 simulated clients. The test itself asserts the
# post-GC heap ceiling (256 MB) and that peak hydrated replicas equal the
# cohort size — the O(1)-memory contract of the streaming upload path.
go test -run 'Test100kClientStreamingSmoke' .
# Scheduler benchmark smoke: one iteration of the 50-client round at each
# worker count (compile + run sanity, not a measurement).
go test -run '^$' -bench 'BenchmarkTrainer' -benchtime=1x .
# Benchmark correctness smoke (not a measurement): its gates compare
# Workers=1 vs W and telemetry-on vs -off model hashes on a traced pass,
# exactly what a kernel or buffer-ownership change could break; the net
# workload's gates (zero FaultStats, migration count, goroutines settled,
# sessions identical) are what a wire-path or replica-recycling change could.
bash cmd/fedmigr-bench/run.sh --workload sim_cnn_compute --seed 1 --seconds 2 --trace 1 >/dev/null
bash cmd/fedmigr-bench/run.sh --workload sim_drl_small --seed 1 --seconds 2 --trace 1 >/dev/null
bash cmd/fedmigr-bench/run.sh --workload net_wire_heavy --seed 1 --seconds 2 --trace 1 >/dev/null
# Fuzz smoke over the three hand-written decoders.
go test -run '^$' -fuzz FuzzReadMessage -fuzztime 10s ./internal/fednet
go test -run '^$' -fuzz FuzzUnmarshalParams -fuzztime 5s ./internal/nn
go test -run '^$' -fuzz FuzzUnmarshalTrainState -fuzztime 5s ./internal/core
echo "check.sh: all checks passed"
