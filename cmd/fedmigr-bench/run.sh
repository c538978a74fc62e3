#!/usr/bin/env bash
# The benchmark's build file: compiles the driver from source into
# .bench_build/ in the checkout (the Go build cache goes there too, so a run
# writes nothing outside the checkout) and runs it with the given flags.
# BENCHMARK.json's command is this script; people can just as well
# `go run ./cmd/fedmigr-bench`.
set -euo pipefail
cd "$(dirname "$0")/../.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/fedmigr-bench ./cmd/fedmigr-bench
exec .bench_build/fedmigr-bench "$@"
