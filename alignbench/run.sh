#!/usr/bin/env bash
# Builds alignd and the alignbench load generator from the source tree the
# script is run in, then runs the benchmark with the given arguments:
#
#   bash alignbench/run.sh --workload align-small-closed --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing is written
# outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/alignd || ! -f alignbench/go.mod ]]; then
	echo "alignbench: run from the repository root (go.mod, cmd/alignd and alignbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The go command keeps settings and telemetry under the user's config
# directory; point it inside the build directory too.
export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config

go build -o "$out/bin/alignd" ./cmd/alignd
(cd alignbench && go build -o "$out/bin/alignbench" .)
exec "$out/bin/alignbench" -alignd "$out/bin/alignd" -out "$out" "$@"
