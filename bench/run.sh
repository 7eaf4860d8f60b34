#!/usr/bin/env bash
# Builds craidperf from source into .bench_build/ of the checkout this
# file sits in, then runs it with the arguments given. Nothing is written
# outside the checkout: the Go build cache, module path and the go
# command's own configuration directory all live under .bench_build/.
#
#   bash bench/run.sh --workload msr-miss --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1 -out report.json      # every workload, see README.md
#   bash bench/run.sh -compare a.json b.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

started="${EPOCHREALTIME/[.,]/}"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
GOCACHE="$build/gocache" GOPATH="$build/gopath" \
GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off \
	go build -C "$here" -o "$build/bin/craidperf" ./craidperf
export CRAIDPERF_BUILD_US=$(( ${EPOCHREALTIME/[.,]/} - started ))

exec "$build/bin/craidperf" "$@"
