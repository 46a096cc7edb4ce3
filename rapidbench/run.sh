#!/usr/bin/env bash
# Builds the Rapid benchmark from the sources of the checkout it is run in and
# executes it with the given arguments. Run it from the repository root:
#
#   bash rapidbench/run.sh --workload churn-200 --seed 1 --seconds 30 --trace 0
#   bash rapidbench/run.sh --all --seed 1 --seconds 30
#
# Everything the build writes (compiler cache, binary, traces, run records)
# stays under the build directory inside the checkout: .bench_build, or the
# directory CARGO_TARGET_DIR names when a harness sets it for every language.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOENV=off

if ! (cd "$root/rapidbench" && go build -o "$out/rapidbench" .) >&2; then
	echo "rapidbench: build failed" >&2
	exit 3
fi
exec "$out/rapidbench" --out "$out" "$@"
