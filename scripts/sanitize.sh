#!/usr/bin/env bash
# Run the test suite under sanitizers. Both configs must be 100% green; TSan
# is the one that caught the port's only genuine reclamation bug (see
# DESIGN.md, "Port findings").
#
# Usage:
#   scripts/sanitize.sh [mode ...] [-- ctest-args ...]
#
#   scripts/sanitize.sh                          # ASan+UBSan and TSan, all tests
#   scripts/sanitize.sh thread                   # TSan only, all tests
#   scripts/sanitize.sh thread -- -R 'Sharded'   # TSan, filtered ctest run
#   scripts/sanitize.sh address-ndebug           # ASan+UBSan, NDEBUG build
#   scripts/sanitize.sh tsan-storage             # TSan, storage-layer suites
#                                                # (segment retirement + the
#                                                # bounded queue's policies)
#   scripts/sanitize.sh tsan-scale-adaptive      # TSan + KPQ_TRACE=ON over
#                                                # the elastic-sharding and
#                                                # tuner suites
#   scripts/sanitize.sh tsan-async               # TSan + KPQ_TRACE=ON over
#                                                # the continuation layer and
#                                                # the coroutine front-end
#   scripts/sanitize.sh tsan-obs-pipeline        # TSan + KPQ_TRACE=ON over
#                                                # the latency pipeline
#                                                # (residency, timeline,
#                                                # telemetry pump, flight
#                                                # recorder)
set -euo pipefail
cd "$(dirname "$0")/.."

modes=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
  modes+=("$1")
  shift
done
[[ $# -gt 0 ]] && shift  # drop the --
ctest_args=("$@")
[[ ${#modes[@]} -eq 0 ]] && modes=(address thread)

for mode in "${modes[@]}"; do
  filter=()
  extra_cmake=()
  dir_tag="$mode"
  if [[ "$mode" == "address-ndebug" ]]; then
    # ASan+UBSan on the NDEBUG (RelWithDebInfo) build users run; the plain
    # sanitizer modes keep asserts live.
    mode=address
    dir_tag=address-ndebug
    extra_cmake=(-DCMAKE_BUILD_TYPE=RelWithDebInfo)
  elif [[ "$mode" == "tsan-storage" ]]; then
    # Shortcut: TSan over every suite that exercises src/storage/ — the
    # segment-storage unit/stress tests, the bounded-policy tests, the
    # segment variants of the random-schedule linearizability cross-check,
    # and the reclaimers' retire_range path.
    mode=thread
    dir_tag=thread
    filter=(-R 'Storage|Bounded|Segment|RetireRange|MemAccounting|Reclaim')
  elif [[ "$mode" == "tsan-scale-adaptive" ]]; then
    # Shortcut: TSan over the elastic-sharding layer — scan-table publishes,
    # the tuner's control loop against live workers, and the table-routed
    # sharded suites. Built with KPQ_TRACE=ON so
    # the tuner's trace writes race-check against the workers' ring writes
    # (its own build dir: the tracing default changes codegen everywhere).
    mode=thread
    dir_tag=scale-adaptive
    extra_cmake=(-DKPQ_TRACE=ON)
    filter=(-R 'Adaptive|Elastic|Tuner|ScanTable|Sharded|Bulk')
  elif [[ "$mode" == "tsan-async" ]]; then
    # Shortcut: TSan over the waiter_hub continuation layer and everything
    # rebuilt on it — thread parkers (blocking_adapter, the bounded queue's
    # block policy and its lost-wakeup regressions) and coroutine resumers
    # (event loop, awaitables, select, cancellation, the broker example).
    # Built with KPQ_TRACE=ON so the waiter_park/waiter_resume trace writes
    # race-check against the hub's notify path (own build dir: the tracing
    # default changes codegen everywhere).
    mode=thread
    dir_tag=async
    extra_cmake=(-DKPQ_TRACE=ON)
    filter=(-R 'Async|Waiter|Parker|EventLoop|TimerWheel|Task\.|BoundedWakeup|Blocking|coro_broker')
  elif [[ "$mode" == "tsan-obs-pipeline" ]]; then
    # Shortcut: TSan over the end-to-end latency pipeline — residency
    # stamping inside the queues, the telemetry pump's concurrent registry
    # scrapes against worker mutation, the flight recorder (including the
    # crash child), the raw trace dump and its converter, and the broker's
    # --telemetry mode.
    # Built with KPQ_TRACE=ON so pump scrapes race-check against live ring
    # writes (own build dir: the tracing default changes codegen everywhere).
    mode=thread
    dir_tag=obs-pipeline
    extra_cmake=(-DKPQ_TRACE=ON)
    filter=(-R 'ObsResidency|ObsTelemetry|ObsFlight|ObsTraceDump|ObsTraceView|ObsExport|EventLoop|coro_broker_telemetry')
  fi
  echo "=== sanitizer: $mode (build-$dir_tag-san) ==="
  cmake -B "build-$dir_tag-san" -G Ninja -DKPQ_SANITIZE="$mode" \
    ${extra_cmake[@]+"${extra_cmake[@]}"}
  cmake --build "build-$dir_tag-san"
  ctest --test-dir "build-$dir_tag-san" --output-on-failure \
    ${filter[@]+"${filter[@]}"} ${ctest_args[@]+"${ctest_args[@]}"}
done
