#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run leave behind — Go build
# cache, temporary files, the binary, WAL directories, span files — goes
# under .bench_build in the current directory (the checkout root).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local

# The revision goes in through the linker rather than Go's own VCS stamping,
# which fails the whole build where git distrusts the directory.
rev=$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$rev" != unknown ] && ! git -C "$here" diff --quiet HEAD 2>/dev/null; then
	rev="$rev+dirty"
fi
go build -C "$here" -buildvcs=false -ldflags "-X main.buildRev=$rev" -o "$build/mnm-bench" .
exec "$build/mnm-bench" -dir .bench_build "$@"
