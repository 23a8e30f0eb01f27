#!/usr/bin/env bash
# The benchmark's one command, run from the root of a checkout:
#
#   bash bench/run.sh --workload scratch_ingest --seed 42 --seconds 25 --trace 0
#
# It builds the bench module from source and runs it. Everything the build
# leaves behind (binary, Go build cache, temporary files) goes to .bench_build
# in the checkout, and everything a run writes to bench/out: nothing outside
# the checkout is written.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	go build -C bench -o "$build/nurd-bench" .
exec "$build/nurd-bench" "$@"
