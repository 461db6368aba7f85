#!/usr/bin/env bash
# Builds ssbench from source and runs it with the given arguments, from
# the root of an ssrank checkout:
#
#   bash bench/run.sh --workload serial-stabilize --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binaries, and the
# result and span files. The toolchain never goes to the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ssrankd || ! -d bench/ssbench ]]; then
	echo "bench/run.sh: run from the root of an ssrank checkout (needs go.mod, cmd/ and bench/)" >&2
	exit 2
fi

root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config" "$out/bin"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -C bench -o "$out/bin/ssbench" ./ssbench
exec "$out/bin/ssbench" "$@"
