#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload fleet-1k --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache live in .bench_build/ (or
# $CARGO_TARGET_DIR when set), so the run writes nothing outside the
# checkout. The build needs the repository's own module one directory
# up; without it the build, and so the run, fails.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
