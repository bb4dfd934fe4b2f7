#!/usr/bin/env bash
# Strict verification: two sanitizer trees, one ctest run in each.
#
#   asan  build-asan/: AddressSanitizer + UBSan (-DDAGSFC_SANITIZE=ON),
#         built with -DDAGSFC_WERROR=ON so any compiler warning fails the
#         run as well. Runs the whole suite.
#   tsan  build-tsan/: ThreadSanitizer (-DDAGSFC_TSAN=ON). Runs the tests
#         labelled `tsan` (ctest -L tsan): the binaries that run worker
#         pools, shared caches, lock-free rings or sockets — the serving
#         plane (flat and sharded), the thread pool and trial runner, the metrics,
#         watchdog and HTTP telemetry, the MVCC battery, the path cache, the
#         layered and validity batteries, the span ring and flight recorder,
#         the lazy CSR build (test_graph) and the dagsfc_serve smoke tests.
#         The labels are set in tests/CMakeLists.txt and
#         examples/CMakeLists.txt.
#
# Any sanitizer report fails the run (halt_on_error, plus
# -fno-sanitize-recover=undefined at compile time). Before either tree's
# tests run, every guard below must match at least one test that its tree's
# run selects, so no suite can drop out of a tree silently.
set -euo pipefail
cd "$(dirname "$0")/.."

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1:${UBSAN_OPTIONS:-}"
export TSAN_OPTIONS="halt_on_error=1:${TSAN_OPTIONS:-}"

ASAN_DIR="${BUILD_DIR:-build-asan}"
TSAN_DIR="${TSAN_BUILD_DIR:-build-tsan}"

build() {
  local dir=$1
  shift
  cmake -B "$dir" -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$dir" -j
}

build "$ASAN_DIR" -DDAGSFC_SANITIZE=ON -DDAGSFC_WERROR=ON
build "$TSAN_DIR" -DDAGSFC_TSAN=ON

# "<tree> <ctest -R pattern>", one guard per line.
guards=(
  "asan test_search_flat"
  "asan test_metrics"
  "asan test_watchdog"
  "asan test_layered"
  "asan test_validity_fuzz"
  # The golden BBE/MBBE battery (bitwise rows recorded before the arena
  # layout) and the search's allocation regression.
  'asan test_corpus\.Solves/BacktrackingGolden\.'
  'asan test_backtracking\..*AllocatesLessThanOncePerExpandedSubSolution'
  # Parents at a shared end node replay one recorded expansion: ring
  # searches run once per (layer, end node, pass).
  'asan test_backtracking\.Engine\.ParentsSharingAnEndNodeShareOneExpansion'
  # Resumable path-cache entries: differential, invalidation and counter
  # tests, and the dense instance table's agreement with a scan.
  'asan test_path_cache\.ResumableEntry\.'
  # Production search against the embedder golden rows: the corpus and
  # both 200-instance batteries.
  'asan test_search_flat\..*FlatCorpusDifferential\.FlatVsReferenceIdentical/'
  'asan test_search_flat\.FlatDifferential\.TwoHundredRandomInstances'
  'asan test_path_cache\..*CorpusDifferential\.CacheOnOffIdentical/'
  'asan test_path_cache\.PathCacheDifferential\.TwoHundredRandomInstances'
  # Every PathOracle query kind on one long-lived ledger vs the seed
  # kernels.
  'asan test_path_cache\.LivePathOracle\.'
  'asan test_network\.Network\.FindInstanceAgreesWithInstanceScan'
  # The sharded substrate, and non-dyadic rates: capacity is counted in
  # exact units, so debits 0.3, 0.3, 0.3, 0.1 drain a 1.0 link to exactly
  # zero, compose copies that count, and a drained service is at nominal.
  "asan test_shard"
  'asan test_shard\.ShardService\.NonDyadicRatesDrainToNominal'
  'asan test_shard\.ShardLedger\.ComposeCopiesAnExactlyDrainedResidual'
  # Exact conservation over 10^7 admit/release steps, and multi-use debits
  # that would overflow int64 refused cleanly (UBSan watches).
  'asan test_ledger\.Ledger\.SoakDrainsToNominalExactlyOverTenMillionSteps'
  'asan test_ledger\.Ledger\.HugeMultiUseDebitsRefuseWithoutOverflow'
  # Request-lifecycle tracing, the flight recorder and the HTTP endpoint.
  "asan test_lifecycle"
  "asan test_flight"
  "asan test_http"
  # The MVCC commit battery (shadow-ledger fuzz, 8-worker conflict
  # hammer) and the path-cache suites that pin its invalidation contract.
  "tsan test_mvcc"
  "tsan test_path_cache"
  'tsan test_path_cache\.ResumableEntry\.'
  'tsan test_path_cache\.LivePathOracle\.'
  # The six-solver validity fuzz and its concurrent-solve hammer.
  "tsan test_validity_fuzz"
  # Cross-shard commits: ascending multi-mutex locking, per-shard pools.
  "tsan test_shard"
  'tsan test_shard\.ShardService\.NonDyadicRatesDrainToNominal'
  # The lock-free span ring, flight-recorder promotion, the HTTP endpoint.
  "tsan test_lifecycle"
  "tsan test_flight"
  "tsan test_http"
)
for guard in "${guards[@]}"; do
  tree=${guard%% *}
  pattern=${guard#* }
  if [[ $tree == asan ]]; then
    selection=(--test-dir "$ASAN_DIR")
  else
    selection=(--test-dir "$TSAN_DIR" -L tsan)
  fi
  if ! ctest "${selection[@]}" -N -R "$pattern" |
      grep -q 'Total Tests: [1-9]'; then
    echo "check.sh: expected tests matching '$pattern' in the $tree run" >&2
    exit 1
  fi
done

ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$(nproc)"
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" -L tsan
