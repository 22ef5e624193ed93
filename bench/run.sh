#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (Go build cache, module cache, toolchain
# bookkeeping, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
# The commit goes into the run header; a checkout that is not a git
# repository reports "unknown".
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
(
	cd "$here"
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
		GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
		go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/umon-bench" .
)
cd "$root"
exec "$out/umon-bench" "$@"
