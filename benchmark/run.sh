#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the caller's arguments. Everything the Go toolchain
# writes (build cache, temp files, telemetry) is kept inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
(
	cd "$here"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
		GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOWORK=off \
		go build -o "$out/modelnet-bench" .
)
cd "$root"
exec "$out/modelnet-bench" "$@"
