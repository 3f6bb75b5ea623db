#!/usr/bin/env bash
# Tier-1 gate: configure, build, and run the full test suite — the exact
# sequence ROADMAP.md names as the bar every change must keep green.
#
#   $ scripts/check.sh            # RelWithDebInfo build + ctest
#   $ scripts/check.sh --asan     # ASan/UBSan build of every target, runs
#                                 # the whole tier-1 ctest suite under it
#   $ scripts/check.sh --tsan     # TSan build, runs the sharded-engine tests
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

if [[ "${1:-}" == "--tsan" ]]; then
  # ThreadSanitizer over everything that spins up the worker pool: the
  # sharded determinism + chaos suites (real threads at shards 2/4), plus
  # the single-threaded engine tests for the shared seams they exercise.
  cmake --preset tsan
  cmake --build build-tsan -j "$(nproc)" --target sharded_determinism_test \
    sharded_soak_test simulator_test network_test fault_soak_test
  export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
  ./build-tsan/tests/sharded_determinism_test
  ./build-tsan/tests/sharded_soak_test
  ./build-tsan/tests/simulator_test
  ./build-tsan/tests/network_test
  # Continuous self-organization on the sharded engine: real worker threads
  # under the organizer's fetch/push traffic at shards 2/4.
  ./build-tsan/tests/fault_soak_test --gtest_filter='SelforgSoakTest.Shard*'
  echo "tsan run clean"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  # The whole tier-1 suite under ASan/UBSan: every target is built (so every
  # test binary ctest discovers exists) and ctest runs all of it. Tests that
  # measure allocation counts skip themselves under the sanitizers.
  cmake -B build-san -S . -DGV_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-san -j "$(nproc)"
  export ASAN_OPTIONS=detect_leaks=1
  export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
  (cd build-san && ctest --output-on-failure -j "$(nproc)")
  echo "sanitizer run clean"
  exit 0
fi

cmake -B build -S .
cmake --build build -j "$(nproc)"
cd build && ctest --output-on-failure
