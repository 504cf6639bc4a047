#!/usr/bin/env bash
# Builds the dfbench load generator from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash dfbench/run.sh --workload decode --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the binary)
# and every trace file goes under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" # go env file, telemetry
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/dfbench" && go build -o "$out/dfbench" .)
exec "$out/dfbench" -out "$out" "$@"
