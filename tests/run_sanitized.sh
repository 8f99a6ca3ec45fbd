#!/usr/bin/env bash
# Tier-2 concurrency check: build the tree under a sanitizer and run the
# concurrency-sensitive suites (thread pool, snapshot catalog, contention
# tracker, estimation service, model-refresh daemon, RLS/adaptation
# controller feedback loop, circuit breaker, fault injection, stress, chaos,
# epoch reclamation, thread registry, per-thread stats, site lifecycle /
# churn, the fleet simulator, the fleet-scale churn soak, and the net
# serving boundary — wire codec fuzz, loopback server, shutdown ordering,
# load generator). One command:
#
# The soak's scale knobs (MSCM_SOAK_SITES / MSCM_SOAK_SECONDS /
# MSCM_SOAK_SEED) pass through, so CI can bound wall-clock time.
#
#   tests/run_sanitized.sh            # thread sanitizer (default)
#   MSCM_SANITIZE=address tests/run_sanitized.sh   # asan instead
#
# Exits non-zero on any test failure or sanitizer report.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SANITIZER="${MSCM_SANITIZE:-thread}"
case "${SANITIZER}" in
  thread) BUILD_DIR="${REPO_ROOT}/build-tsan" ;;
  address) BUILD_DIR="${REPO_ROOT}/build-asan" ;;
  *) BUILD_DIR="${REPO_ROOT}/build-${SANITIZER}" ;;
esac
FILTER='(ThreadPool|SnapshotCatalog|ContentionTracker|EstimationService|ModelRefresh|RuntimeStress|CircuitBreaker|FaultInjector|FaultyObservationSource|RuntimeChaos|Epoch|ThreadRegistry|LatencyHistogram|RuntimeCounters|Rls|Adaptation|WireReader|WireMessages|WireValidation|WireGeneration|WireFuzz|WireGoldenBytes|FrameAssembler|StatsCodec|NetServer|NetShutdown|NetLoadGen|PlacementPolicy|CostDistribution|SiteLifecycle|FleetTest|RuntimeSoak)'

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DMSCM_SANITIZE="${SANITIZER}" \
  > /dev/null

cmake --build "${BUILD_DIR}" -j \
  --target thread_pool_test snapshot_catalog_test contention_tracker_test \
           runtime_service_test runtime_refresh_test runtime_stress_test \
           circuit_breaker_test fault_injector_test \
           runtime_chaos_test epoch_test runtime_stats_test \
           rls_test adaptation_test \
           wire_format_test net_server_test \
           net_shutdown_test net_loadgen_test placement_policy_test \
           site_lifecycle_test fleet_test runtime_soak_test

# halt_on_error makes a sanitizer report fail the test, not just print.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
ctest --test-dir "${BUILD_DIR}" -R "${FILTER}" --output-on-failure -j "$(nproc)"
