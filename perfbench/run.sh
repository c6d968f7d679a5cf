#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it,
# passing every argument through (--workload, --seed, --seconds, --trace).
# The Go build cache, temporary files and the binary all live under
# .bench_build at the checkout root, so nothing is written outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --commit "$commit" "$@"
