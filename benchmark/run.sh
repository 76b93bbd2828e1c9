#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is the command
# BENCHMARK.json names. Everything it writes — the Go build cache, the binary,
# the stores and span files of a run — goes under .bench_build/ of the
# checkout it is run from, and nothing outside it.
#
#   bash benchmark/run.sh --workload search-warm --seed 42 --seconds 16 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp" "$build/home"

# The go command keeps its cache, module path and telemetry under $HOME unless
# told otherwise; point all of them into the checkout.
export TMPDIR="$build/tmp"
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
    GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw GOTOOLCHAIN=local \
    go -C "$here" build -o "$build/iva-benchmark" .
# A first build leaves a hundred megabytes of cache to write back; let that
# finish before anything is timed.
sync

exec "$build/iva-benchmark" "$@"
