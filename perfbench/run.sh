#!/usr/bin/env bash
# Builds the benchmark driver and the CLIs it measures from the checkout's
# source, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload figures-cold --seed 42 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout; the last line of stdout is the JSON result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bin/" ./cmd/figures ./cmd/cosmicdance ./cmd/spacetrackd >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -work "$out/work" "$@"
