#!/usr/bin/env bash
# Sanitizer gate for the tier-1 suite. Default mode builds everything with
# AddressSanitizer + UndefinedBehaviorSanitizer and runs ctest. The
# concurrency paths (thread pool backpressure, retry/breaker machinery,
# deadline-bounded search, proxy locking) must stay sanitizer-clean.
#
# SANITIZER=thread switches to ThreadSanitizer (own build tree, since TSan
# is incompatible with ASan in one binary); use it over the concurrency
# suites, e.g.:
#   SANITIZER=thread scripts/check.sh -R 'ProxyConcurrency|ThreadPool'
#
# SUITE=stress is the tier-2 gate (README "Stress suite"): forces
# ThreadSanitizer, exports CCE_STRESS=1 (the overload / durability stress
# tests scale up their thread counts and iteration budgets), and runs the
# overload, concurrency and durability suites — including the mixed-traffic
# test that drives the proxy's admission control against a fault injector in
# overload-burst (brownout) mode.
#
# SUITE=docs is the docs gate (tier 1, also runs inside the default ctest
# sweep via metrics_doc_test): a stdlib-only markdown link/anchor checker
# over every *.md in the repo, then the docs-vs-registry consistency test
# and the exposition golden tests. Builds only those test targets, so it
# is the fastest gate in the script.
#
# SUITE=crash is the kill-and-recover torture gate: AddressSanitizer build
# of the CrashTorture suite with CCE_CRASH_ITERS=200, so each scenario runs
# hundreds of write-crash-recover cycles with randomized kill points and
# injected I/O faults (torn appends, failed fsyncs, ENOSPC during
# compaction). Every surviving byte must replay cleanly and no recovery
# path may leak or scribble under ASan.
#
# SUITE=replica is the replication torture gate: AddressSanitizer build of
# the ReplicaTorture suite with CCE_REPLICA_ITERS=200 — dual kill-and-recover
# cycles that drop the leader AND the follower every iteration, with
# independent fault injectors on the shipping path and the catch-up path.
# The follower must never crash, never serve a torn view, and re-converge
# bit-for-bit once faults stop. Failures print the CCE_FAULT_SEED to replay.
#
# SUITE=ha is the self-healing serving-group gate: AddressSanitizer build
# of the HaTorture suite with CCE_HA_ITERS=200 — kill-and-recover cycles
# over a leader + replica + failover router + supervisor, with independent
# fault injectors on the leader's durability path and the replica's
# catch-up path. The group must keep answering, never serve a wrong
# non-degraded key, and converge back to fully-healthy with ZERO manual
# repair calls (the supervisor is the only repair authority). Failures
# print the CCE_FAULT_SEED to replay.
#
# SUITE=net is the network-front-end torture gate: AddressSanitizer build
# of the NetTorture suite with CCE_NET_ITERS=200 — seeded adversarial
# clients (garbage frames, mid-frame FIN/RST kills, body_len lies,
# slow-loris partial frames, dropped-response aborts) against a live
# NetServer while a well-behaved pipelined client must keep completing
# exchanges. The event loop must never crash, block the tick, or leak an
# fd (the test takes a /proc/self/fd census). Failures print under the
# CCE_NET_SEED that reproduces the schedule.
#
# SUITE=flake is the determinism gate: the default AddressSanitizer +
# UndefinedBehaviorSanitizer tier-1 sweep, repeated with
# `ctest -j --repeat until-fail:20`. Every test must pass twenty times in a
# row while the others run beside it, so a wall-clock race or a shared temp
# path fails here instead of flaking in CI.
#
# Usage: scripts/check.sh [extra ctest args...]
#   BUILD_DIR=build-asan JOBS=8 scripts/check.sh -R ProxyTest
#   SUITE=stress scripts/check.sh
#   SUITE=docs scripts/check.sh
#   SUITE=crash scripts/check.sh
#   SUITE=replica scripts/check.sh
#   SUITE=ha scripts/check.sh
#   SUITE=net scripts/check.sh
#   SUITE=flake scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER=${SANITIZER:-address}
SUITE=${SUITE:-}
JOBS=${JOBS:-$(nproc)}

SUITE_ARGS=()
BUILD_TARGETS=()
if [[ "$SUITE" == "stress" ]]; then
  SANITIZER=thread
  export CCE_STRESS=1
  SUITE_ARGS=(-R 'Overload|TokenBucket|ProxyConcurrency|ProxyDurability|ContextWal|ThreadPool|ConformityStress|EngineEquivalence|BatchEquivalence|CacheFreshness|ShardEquivalence|ShardIndex|ReplicaStaleness|RepairIdempotency')
elif [[ "$SUITE" == "docs" ]]; then
  python3 scripts/check_docs.py
  SUITE_ARGS=(-R 'MetricsDoc|ProtocolDoc|Exposition')
  BUILD_TARGETS=(--target metrics_doc_test protocol_doc_test obs_exposition_test)
elif [[ "$SUITE" == "crash" ]]; then
  SANITIZER=address
  export CCE_CRASH_ITERS=${CCE_CRASH_ITERS:-200}
  SUITE_ARGS=(-R 'CrashTorture')
elif [[ "$SUITE" == "replica" ]]; then
  SANITIZER=address
  export CCE_REPLICA_ITERS=${CCE_REPLICA_ITERS:-200}
  SUITE_ARGS=(-R 'ReplicaTorture')
elif [[ "$SUITE" == "ha" ]]; then
  SANITIZER=address
  export CCE_HA_ITERS=${CCE_HA_ITERS:-200}
  SUITE_ARGS=(-R 'HaTorture')
elif [[ "$SUITE" == "net" ]]; then
  SANITIZER=address
  export CCE_NET_ITERS=${CCE_NET_ITERS:-200}
  SUITE_ARGS=(-R 'NetTorture')
elif [[ "$SUITE" == "flake" ]]; then
  SANITIZER=address
  SUITE_ARGS=(--repeat until-fail:20)
elif [[ -n "$SUITE" ]]; then
  echo "unknown SUITE='$SUITE' (expected 'stress', 'docs', 'crash', 'replica', 'ha', 'net', 'flake' or unset)" >&2
  exit 2
fi

case "$SANITIZER" in
  address)
    BUILD_DIR=${BUILD_DIR:-build-asan}
    SAN_FLAGS="-fsanitize=address,undefined"
    ;;
  thread)
    BUILD_DIR=${BUILD_DIR:-build-tsan}
    SAN_FLAGS="-fsanitize=thread"
    ;;
  *)
    echo "unknown SANITIZER='$SANITIZER' (expected 'address' or 'thread')" >&2
    exit 2
    ;;
esac

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS -fno-sanitize-recover=all -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$BUILD_DIR" -j "$JOBS" ${BUILD_TARGETS[@]+"${BUILD_TARGETS[@]}"}

cd "$BUILD_DIR"
ctest --output-on-failure -j "$JOBS" ${SUITE_ARGS[@]+"${SUITE_ARGS[@]}"} "$@"
