#!/usr/bin/env bash
# Builds farosd and the e2ebench load generator from this checkout, then
# runs e2ebench with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload cold-detect --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays inside the checkout: the Go caches and binaries under
# .bench_build/, server state, logs and span files under .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home"

export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off CGO_ENABLED=0
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/farosd" ]; then
	echo "run.sh: no farosd sources here; run from the repository root" >&2
	exit 2
fi
go build -o "$build/bin/farosd.tmp.$$" ./cmd/farosd
mv "$build/bin/farosd.tmp.$$" "$build/bin/farosd"
go -C e2ebench build -o "$build/bin/e2ebench.tmp.$$" .
mv "$build/bin/e2ebench.tmp.$$" "$build/bin/e2ebench"

exec "$build/bin/e2ebench" -farosd "$build/bin/farosd" -out "$root/.bench_out" "$@"
