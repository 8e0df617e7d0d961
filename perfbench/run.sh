#!/usr/bin/env bash
# run.sh builds the perfbench binary from source and runs it with the
# given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, cache
# directories) stays under .bench_build/ in the current directory. The
# build log goes to stderr, so the last line of stdout is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

(
  cd "$root/perfbench"
  HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
    GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOENV=off GOFLAGS= \
    go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" -workdir "$out/work" "$@"
