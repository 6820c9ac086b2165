#!/usr/bin/env bash
# Builds the TraSS benchmark from source and runs it with the given flags:
#
#   bash _perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The binary, the Go build cache, temporary
# files and every database the benchmark creates live under .bench_build/ in
# the current directory. The build needs the repository's root module next
# to this directory; without it the script fails before printing any result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
