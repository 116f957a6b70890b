#!/usr/bin/env bash
# Builds the benchmark (perfbench) and the acic-serve daemon from this checkout,
# then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload figures-warm --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binaries, artifact stores, span files) stays under
# $CARGO_TARGET_DIR, .bench_build by default.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
mkdir -p "$out/bin" "$GOTMPDIR"
(
  cd "$root/perfbench"
  go build -o "$out/bin/perfbench" .
  go build -o "$out/bin/acic-serve" acic/cmd/acic-serve
) >&2
exec "$out/bin/perfbench" -work "$out/perfbench" -serve-bin "$out/bin/acic-serve" "$@"
