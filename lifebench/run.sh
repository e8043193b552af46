#!/usr/bin/env bash
# Builds lifebench from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash lifebench/run.sh --workload scenario-stream --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, the binary, the job stores and the
# span files all stay under the build directory inside the checkout
# ($CARGO_TARGET_DIR when set, else .bench_build).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go/cache" "$build/go/tmp" "$build/go/config" "$build/lifebench"

export GOCACHE=$build/go/cache
export GOTMPDIR=$build/go/tmp
export GOMODCACHE=$build/go/modcache
export XDG_CONFIG_HOME=$build/go/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/lifebench" && go build -o "$build/lifebench/lifebench" .)
exec "$build/lifebench/lifebench" --out "$build/lifebench" "$@"
