#!/usr/bin/env bash
# Builds the benchmark driver and the SUT from source into .bench_build/
# at the root of the checkout, then runs the driver with the given flags.
# Everything a run writes (build cache, binaries, journals, traces) stays
# under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/benchmark" && go build -o "$build/bin/" . ./sut)
cd "$root"
exec "$build/bin/benchmark" "$@"
