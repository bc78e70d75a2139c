#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the engines' scratch files,
# span files and untraced baselines.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root holds no Go module to build; run from a full checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=

# perfbench/ is a module of its own that replaces opdelta with the checkout.
go -C "$root/perfbench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" --dir "$build/perfbench" "$@"
