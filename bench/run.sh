#!/usr/bin/env bash
# Builds the harness inside the checkout (.bench_build/, including the Go
# build cache, so nothing is written outside it) and runs it from the
# checkout root with the arguments given.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache"
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -C bench -buildvcs=false -ldflags "-X main.commit=$commit" -o ../.bench_build/rackbench .
exec .bench_build/rackbench "$@"
