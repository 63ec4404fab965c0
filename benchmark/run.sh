#!/usr/bin/env bash
# Build the benchmark (and the library it measures) from source, then run
# one workload:
#
#   bash benchmark/run.sh --workload serve_unique --seed 1 --seconds 12 --trace 0
#
# Every metric is printed as "name value unit"; the last line of stdout is
# one JSON object {"correct", "attempted", "failed", "metrics"}. The exit
# code is non-zero when the build fails or any correctness check fails.
# Add --smoke to shrink every phase: the three workloads then run in under
# a minute with every check still on.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/build"
mkdir -p "$build"

# Configure until it has generated a build system; later builds re-run the
# configure step themselves when a CMakeLists.txt changes.
if ! { { [[ -f "$build/Makefile" ]] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" -j 4 --target graphner_bench; } \
       >"$build/build.log" 2>&1; then
  tail -n 30 "$build/build.log" >&2
  echo "run.sh: build failed (full log in $build/build.log)" >&2
  exit 2
fi

exec "$build/graphner_bench" --build-dir "$build" "$@"
