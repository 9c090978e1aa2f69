#!/usr/bin/env bash
# Builds the compute-cost benchmark from source and runs it. Run it from
# the root of a checkout; the arguments go to the benchmark:
#
#   bash perfbench/run.sh --workload node --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the traced run's output stay under
# .bench_build in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

(
	cd "$root/perfbench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
		go build -o "$build/perfbench" .
)
cd "$root"
exec "$build/perfbench" "$@"
