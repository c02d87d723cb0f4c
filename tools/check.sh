#!/usr/bin/env bash
# Build and run the test suite under a sanitizer (ThreadSanitizer by
# default). The net layer is the main customer: the worker pool, accept
# queue and retry paths are all multithreaded, and TSan catches ordering
# bugs the plain suite can't. The asan-ubsan mode (ASan+UBSan combined)
# is aimed at the durability paths — the journal's frame parser, the
# crash-injected FileStore writes — where the recovery tests feed torn
# and corrupt bytes through the decoders.
#
# Usage:
#   tools/check.sh [thread|address|asan-ubsan|sim|resilience|fsck|diff|audit|no-aesni] [extra ctest args...]
#
# The sim mode runs only the simulation-harness tests (ctest label "sim")
# in a plain build, scaled up via PRIVEDIT_SIM_ITERS (default 10x the
# tier-1 budget — override in the environment for longer soaks).
#
# The resilience mode soaks the disconnected-operation suite (ctest label
# "resilience": breaker, admission control, offline queue, outage-schedule
# sim runs) with PRIVEDIT_RESILIENCE_ITERS scaling the outage phases
# (default 10x), in a plain build for wall-clock throughput.
#
# The fsck mode soaks the storage-integrity suite (ctest label "storage":
# fault-injected stores, scrub cycles, fsck repair, crashpoint x disk-fault
# matrix) with PRIVEDIT_FSCK_ITERS scaling the randomized corruption
# rounds (default 10x), in a plain build.
#
# The diff mode soaks the differential repair codec: the randomized
# digests -> Delta round-trip properties in block_diff_test
# (PRIVEDIT_DIFF_ITERS multiplies the rounds, default 10x), the repair
# fuzz corpus, and the sim harness's differential-save phase.
#
# The audit mode soaks fork-consistency detection: the audit_test suite
# (ctest label "audit") plus the sim harness's malicious-server adversary
# phases, with PRIVEDIT_AUDIT_ITERS scaling the adversary seed sweep
# (default 10x). Every injected equivocation/suppression/replay must be
# detected — one missed fork fails the run.
#
# Uses a separate build tree (build-<sanitizer>/) so the regular build/
# stays untouched.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZER="${1:-thread}"
shift || true

if [ "${SANITIZER}" = "sim" ]; then
  BUILD_DIR="${REPO_ROOT}/build-sim"
  cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j"$(nproc)" --target sim_test
  export PRIVEDIT_SIM_ITERS="${PRIVEDIT_SIM_ITERS:-10}"
  echo "sim soak at PRIVEDIT_SIM_ITERS=${PRIVEDIT_SIM_ITERS}"
  cd "${BUILD_DIR}"
  exec ctest --output-on-failure -j"$(nproc)" -L sim "$@"
fi

if [ "${SANITIZER}" = "resilience" ]; then
  BUILD_DIR="${REPO_ROOT}/build-sim"
  cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j"$(nproc)" --target resilience_test
  export PRIVEDIT_RESILIENCE_ITERS="${PRIVEDIT_RESILIENCE_ITERS:-10}"
  echo "resilience soak at PRIVEDIT_RESILIENCE_ITERS=${PRIVEDIT_RESILIENCE_ITERS}"
  cd "${BUILD_DIR}"
  exec ctest --output-on-failure -j"$(nproc)" -L resilience "$@"
fi

if [ "${SANITIZER}" = "fsck" ]; then
  BUILD_DIR="${REPO_ROOT}/build-sim"
  cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j"$(nproc)" --target store_integrity_test sim_test
  export PRIVEDIT_FSCK_ITERS="${PRIVEDIT_FSCK_ITERS:-10}"
  echo "storage-integrity soak at PRIVEDIT_FSCK_ITERS=${PRIVEDIT_FSCK_ITERS}"
  cd "${BUILD_DIR}"
  # The storage label plus the sim harness's store-rot adversary tests
  # (label "sim", so a second invocation — ctest -L/-R intersect).
  ctest --output-on-failure -j"$(nproc)" -L storage "$@"
  exec ctest --output-on-failure -j"$(nproc)" -R "SimStorage|FuzzCorpus.Store" "$@"
fi

if [ "${SANITIZER}" = "diff" ]; then
  BUILD_DIR="${REPO_ROOT}/build-sim"
  cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j"$(nproc)" --target block_diff_test sim_test
  export PRIVEDIT_DIFF_ITERS="${PRIVEDIT_DIFF_ITERS:-10}"
  echo "repair-codec soak at PRIVEDIT_DIFF_ITERS=${PRIVEDIT_DIFF_ITERS}"
  cd "${BUILD_DIR}"
  exec ctest --output-on-failure -j"$(nproc)" \
    -R "BlockDiff\.|BlockWire\.|FuzzCorpus\.Diff|SimBlockDelta\." "$@"
fi

if [ "${SANITIZER}" = "audit" ]; then
  BUILD_DIR="${REPO_ROOT}/build-sim"
  cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j"$(nproc)" --target audit_test sim_test
  export PRIVEDIT_AUDIT_ITERS="${PRIVEDIT_AUDIT_ITERS:-10}"
  echo "fork-consistency soak at PRIVEDIT_AUDIT_ITERS=${PRIVEDIT_AUDIT_ITERS}"
  cd "${BUILD_DIR}"
  ctest --output-on-failure -j"$(nproc)" -L audit "$@"
  exec ctest --output-on-failure -j"$(nproc)" -R "SimAudit" "$@"
fi

if [ "${SANITIZER}" = "no-aesni" ]; then
  # Run the full suite with hardware AES dispatch disabled, so the software
  # fallback path (the one a non-AES-NI host would take) stays covered even
  # on CI machines that have the extension. The env var is read per engine
  # construction — no rebuild needed, the regular plain tree is reused.
  BUILD_DIR="${REPO_ROOT}/build"
  cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "${BUILD_DIR}" -j"$(nproc)"
  export PRIVEDIT_DISABLE_AESNI=1
  echo "running full suite with PRIVEDIT_DISABLE_AESNI=1 (software AES only)"
  cd "${BUILD_DIR}"
  exec ctest --output-on-failure -j"$(nproc)" "$@"
fi

case "${SANITIZER}" in
  thread|address) CMAKE_SANITIZE="${SANITIZER}" ;;
  asan-ubsan)     CMAKE_SANITIZE="address+undefined" ;;
  *) echo "usage: tools/check.sh [thread|address|asan-ubsan|sim|resilience|fsck|diff|audit|no-aesni] [ctest args...]" >&2
     exit 2 ;;
esac

BUILD_DIR="${REPO_ROOT}/build-${SANITIZER}"

cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" \
  -DPRIVEDIT_SANITIZE="${CMAKE_SANITIZE}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "${BUILD_DIR}" -j"$(nproc)"

# second_deadline=... keeps TSan's shadow memory from inflating timeouts
# past the drip-feed test deadlines; history_size helps report quality.
if [ "${SANITIZER}" = "thread" ]; then
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=0 history_size=4}"
else
  export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
  export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}"
fi

cd "${BUILD_DIR}"
ctest --output-on-failure -j"$(nproc)" "$@"
