#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything this leaves behind — build cache, binary, state directories,
# span files — stays inside the checkout, under .bench_build/ and
# bench/out/. The toolchain is the local one and nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/state"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its settings file and its telemetry counters in
# the user's configuration directory; give it one of its own.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/orchestra-bench" .)
cd "$root"
exec "$build/orchestra-bench" -dir "$build/state" -traces "$root/bench/out" "$@"
