#!/bin/sh
# Builds everything, runs the test suite and the lint pass, and runs the
# full experiment matrix (with two layout-seed variants per cell) through
# the parallel engine.
#
# The matrix document goes to build/matrix.json; its merged results are
# byte-identical for any --jobs value (see docs/engine.md).  It does not
# replace the committed numbers of record: BENCH_matrix.json is the
# hds_bench document described in docs/benchmarks.md, regenerated only
# with the command given there.
#
# Usage: scripts/run_all.sh [bench-scale]   (default 1.0)
set -e
cd "$(dirname "$0")/.."
SCALE="${1:-1.0}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"

ctest --test-dir build --output-on-failure -j"$JOBS" 2>&1 | tee test_output.txt

scripts/lint.sh --lint-only

./build/tools/hds_matrix \
  --jobs "$JOBS" \
  --scale "$SCALE" \
  --seeds 2 \
  --timing \
  --out build/matrix.json 2>&1 | tee bench_output.txt

echo "matrix results: build/matrix.json"
