#!/usr/bin/env bash
# Launcher named by BENCHMARK.json. bench/ is a Go module of its own (the
# root module's `go build ./...` does not see it), so this script builds it
# into .bench_build/ at the root of the checkout and runs the binary. Go's
# build cache, module cache and temp dir are pointed inside the checkout as
# well: a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
  echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod must both exist)" >&2
  exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The go command keeps telemetry counters in the user's config directory;
# that, too, stays inside the checkout.
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -C "$root/bench" -o "$build/verobench" .
exec "$build/verobench" "$@"
