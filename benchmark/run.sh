#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything it writes -- the binary, the Go build cache, span files --
# goes under .bench_build/ at the root of the checkout. In a directory
# without the repository's go.mod the build fails and so does this script.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOMAXPROCS=2
build() { (cd "$root/benchmark" && go build "$@" -o "$out/sealdb-benchmark" .); }
# Stamping the commit needs a git checkout that git trusts; fall back.
build 2>"$out/build.log" || build -buildvcs=false
cd "$root"
exec "$out/sealdb-benchmark" "$@"
