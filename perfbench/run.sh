#!/usr/bin/env bash
# Builds the benchmark and the sepeserve daemon it drives from the
# sources in the current directory, then runs one workload. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload table-churn --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binaries,
# result and trace files) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the current directory.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/bin/perfbench" .
go build -o "$out/bin/sepeserve" ./cmd/sepeserve
exec "$out/bin/perfbench" -serve-bin "$out/bin/sepeserve" -out "$out" "$@"
