#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of the repository. Everything the build writes (cache,
# binary, toolchain config) goes to $CARGO_TARGET_DIR (default
# .bench_build); results go to .bench_out.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -f refresher.go ]]; then
  echo "perfbench: the sc module sources are not in $root" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd perfbench && XDG_CONFIG_HOME="$build/config" go build -o "$build/perfbench" .)

commit=unknown
dirty=unknown
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
  if [[ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]]; then dirty=true; else dirty=false; fi
fi
exec "$build/perfbench" --commit "$commit" --dirty "$dirty" "$@"
