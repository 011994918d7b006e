#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root; every build and run artefact stays under
# .bench_build/ there:
#
#   bash perfbench/run.sh --workload sparse_slack --seed 1 --seconds 25 --trace 0
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -C perfbench -buildvcs=false -o "$out/perfbench" .
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" --commit "$commit" "$@"
