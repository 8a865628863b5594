#!/usr/bin/env bash
# Builds the benchmark and cmd/eccserve from this checkout, then runs
# one benchmark invocation. Run it from the repository root:
#
#   bash bench/run.sh --workload verify-hot --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (the Go build cache, temporary
# files, binaries, key files and trace files) stays under .bench_build/
# in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/eccserve || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, cmd/eccserve and bench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/bench" .
go -C bench build -o "$out/eccserve" repro/cmd/eccserve
exec "$out/bench" -eccserve .bench_build/eccserve -work .bench_build "$@"
