#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run
# it from the repository root. Everything the Go toolchain and the
# benchmark write stays under the build directory ($CARGO_TARGET_DIR when
# set, else .bench_build), and the toolchain never touches the network.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$here" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -work "$build" "$@"
