#!/usr/bin/env bash
# Builds quantiled and the benchmark from the checkout this script sits in,
# then runs one benchmark pass. All build and run state stays under
# .bench_build/ at the checkout root.
#
#   bash qbench/run.sh --workload ingest-bin --seed 1 --seconds 15 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/quantiled" ]]; then
	echo "qbench: $root is not a checkout of the repository (go.mod or cmd/quantiled missing)" >&2
	exit 1
fi

out="$root/.bench_build"
# Keep every file the toolchain writes (build cache, temporaries, telemetry
# counters under the user config dir) inside the checkout, and never fetch.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin"
(cd "$root" && go build -o "$out/bin/quantiled" ./cmd/quantiled)
(cd "$here" && go build -o "$out/bin/qbench" .)
exec "$out/bin/qbench" --quantiled "$out/bin/quantiled" --work "$out/run" "$@"
