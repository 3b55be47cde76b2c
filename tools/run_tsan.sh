#!/usr/bin/env bash
# Builds the repo under ThreadSanitizer and runs the concurrency-sensitive
# test binaries (thread pool, serial-vs-parallel differential, stress).
#
#   tools/run_tsan.sh [build-dir]
#
# Any data race in the pool, the per-worker oracle wiring, or the parallel
# candidate retrieval and evaluation shows up here even on a single-core host. Swap 'thread' for
# 'address' below (or configure -DURR_SANITIZE=address yourself) for ASan.
set -euo pipefail

BUILD_DIR="${1:-build-tsan}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DURR_SANITIZE=thread
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target thread_pool_test parallel_differential_test stress_test

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
"$BUILD_DIR/tests/thread_pool_test"
"$BUILD_DIR/tests/parallel_differential_test"
"$BUILD_DIR/tests/stress_test" \
  --gtest_filter='*MultiThreadedSolvesAreDeterministic*'

echo "TSan suite passed."
