#!/usr/bin/env bash
# Build the benchmark from source in this checkout and run it; every
# argument is passed on to perfbench/main.exe. Build output goes to
# $CARGO_TARGET_DIR when it is set (a relative path inside the
# checkout), to _build otherwise; the shared dune cache is not used.
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir="${CARGO_TARGET_DIR:-_build}"
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build_dir" --display quiet perfbench/main.exe 1>&2
exec "$build_dir/default/perfbench/main.exe" "$@"
