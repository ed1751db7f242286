#!/usr/bin/env bash
# Tier-1 verification: what CI should invoke.
#
#   scripts/verify.sh            # plain build + full ctest suite
#   scripts/verify.sh --tsan     # additionally build with -fsanitize=thread
#                                # and run the concurrency-heavy tests
#   scripts/verify.sh --asan     # AddressSanitizer variant of the same
#
# The sanitizer pass uses a separate build directory so the plain build
# stays incremental.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

# Fault-injection schedules run from a fixed seed so CI failures reproduce
# locally with the same command; override via IDB_FAULT_SEED to explore.
export IDB_FAULT_SEED="${IDB_FAULT_SEED:-20260808}"

# Thread discipline: the shared WorkerPool is the engine's only source of
# worker threads. Fails when src/ constructs a thread (std::thread,
# std::jthread, std::async, pthread_create) anywhere but util/worker_pool.cc
# and the two coordinator threads, MaintenanceDaemon::Start and
# DegradationEngine::Start. Each hit is labelled with the function whose
# definition precedes it; thread_ members of the two coordinators are
# declarations, not constructions.
check_thread_spawns() {
  local hits
  hits="$(find src -name '*.cc' -o -name '*.h' | sort | xargs awk '
    FNR == 1 { fn = "" }
    /^[A-Za-z].*::[A-Za-z_~][A-Za-z0-9_]*\(/ {
      fn = $0; sub(/\(.*/, "", fn); sub(/.*[ *&]/, "", fn)
    }
    /std::(j?thread|async)([^:A-Za-z0-9_]|$)|pthread_create/ {
      print FILENAME ":" FNR ":" fn ": " $0
    }' |
    grep -vE '^src/util/worker_pool\.(cc|h):' |
    grep -vE '^src/(maintain/maintenance_daemon|degrade/degradation_engine)\.h:[0-9]+:[^:]*: +std::thread thread_;$' |
    grep -vE '^src/maintain/maintenance_daemon\.cc:[0-9]+:MaintenanceDaemon::Start: +thread_ = std::thread\(' |
    grep -vE '^src/degrade/degradation_engine\.cc:[0-9]+:DegradationEngine::Start: +thread_ = std::thread\(' ||
    true)"
  if [[ -n "$hits" ]]; then
    echo "verify: threads constructed outside the WorkerPool and the two" \
      "coordinator threads:" >&2
    echo "$hits" >&2
    return 1
  fi
}

run_plain() {
  check_thread_spawns
  cmake -B build -S .
  cmake --build build -j "$JOBS"
  ctest --test-dir build --output-on-failure -j "$JOBS"
}

# Sanitized pass: the tests that drive real thread interleavings, plus the
# fault-injection suite — injected I/O errors exercise the rarely-taken
# unwind paths where use-after-free and lock bugs hide. The rest of the
# suite is single-threaded and adds only build time.
SANITIZE_TESTS="concurrency_stress_test|parallel_scan_test|pushdown_test|partition_test|degradation_engine_test|write_batch_test|wal_stream_test|checkpoint_fuzzy_test|maintenance_test|fault_injection_test|morsel_test|service_test"

run_sanitized() {
  local kind="$1"
  local dir="build-$kind"
  cmake -B "$dir" -S . -DINSTANTDB_SANITIZE="$kind" \
    -DINSTANTDB_BUILD_BENCHMARKS=OFF -DINSTANTDB_BUILD_EXAMPLES=OFF
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j 1 -R "$SANITIZE_TESTS"
}

case "${1:-}" in
  --tsan) run_plain && run_sanitized thread ;;
  --asan) run_plain && run_sanitized address ;;
  "") run_plain ;;
  *) echo "usage: $0 [--tsan|--asan]" >&2; exit 2 ;;
esac
echo "verify: OK"
