#!/usr/bin/env bash
# Code-size metric: non-test Go lines and package count, excluding the
# lint golden fixtures (internal/lint/testdata) and the perfbench module.
# Run from anywhere: `bash scripts/loc.sh` or `make loc`.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find . -name '*.go' ! -name '*_test.go' \
	! -path './internal/lint/testdata/*' ! -path './perfbench/*' | LC_ALL=C sort)
lines=$(echo "$files" | xargs cat | wc -l)
pkgs=$(echo "$files" | xargs -n1 dirname | LC_ALL=C sort -u | wc -l)
echo "non-test Go lines: $lines"
echo "packages: $pkgs"
