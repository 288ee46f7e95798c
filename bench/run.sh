#!/usr/bin/env bash
# Builds the daemon under test and the benchmark driver from the checkout
# this script sits in, then runs the driver with the arguments given.
# Everything the build writes stays inside the checkout (.bench_build/).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root" && go build -o "$build/vadalogd" ./cmd/vadalogd)
(cd "$here" && go build -o "$build/vadalogbench" .)
cd "$root"
exec "$build/vadalogbench" -daemon "$build/vadalogd" -out "$here/out" "$@"
