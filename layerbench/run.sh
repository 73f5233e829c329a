#!/usr/bin/env bash
# Builds layerbench from source and runs it from the repository root,
# passing every argument through, e.g.
#
#   bash layerbench/run.sh --workload serve-views --seed 3 --seconds 30 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build/ in the repository, so a run writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "layerbench: $root holds no go.mod; the benchmark needs the repository's sources" >&2
	exit 1
fi

build="$root/.bench_build/layerbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C layerbench build -o "$build/layerbench" .
exec "$build/layerbench" "$@"
