#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload sweep-dense512 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the benchmark's temporary
# files.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$out/tmp"
# Stamping the VCS revision fails where the checkout is not a repository
# git can read; build without it there.
if ! go -C benchmark build -o "$out/benchmark" . 2>"$out/build.log"; then
	go -C benchmark build -buildvcs=false -o "$out/benchmark" .
fi
exec "$out/benchmark" "$@"
