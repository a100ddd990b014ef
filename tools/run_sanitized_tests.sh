#!/usr/bin/env bash
# Builds and runs the test suite under ThreadSanitizer,
# AddressSanitizer and UndefinedBehaviorSanitizer, in separate build
# trees so sanitized objects never mix with the regular build. The UBSan
# tree is built with -fno-sanitize-recover, so the first report fails
# its test.
#
# Usage:
#   tools/run_sanitized_tests.sh [label]
#
# With a label argument only that ctest label is run (e.g. `fault` or
# `determinism` — the suites that exercise the fault seam's concurrent
# retry/stall paths, where TSan coverage matters most — `async`, the
# deferred-epoch optimizer pipeline whose background epochs + reaper
# thread race foreground drains by design — `buffer`, the pooled
# zero-copy buffer suite whose cross-thread lease/release refcounting
# is exactly what TSan/ASan exist for — `xfer`, the movement stack's
# own suites (IoScheduler, TransferEngine, Prefetcher, TierCache and
# BlockStore) whose worker completions, same-key forwarding and cache
# promotions race the submitting threads — or `tenant`, the multi-tenant
# JobManager suite whose N job threads hammer one shared engine's
# accounting, quotas, and fair-share lanes concurrently — or `codec`,
# the offload-codec conformance battery whose framed encode/decode runs
# inside the I/O workers' finalize hooks, concurrent with retries — or
# `replan`, the online re-planning loop whose FlowObserver windows race
# the engine's workers and whose hot-swaps land between steps while the
# async optimizer still holds deferred epochs in flight) — or `config`,
# the RATEL_* knob table's parsers, which read input from outside the
# program (run it under address and undefined).
# Without one the full suite runs under every sanitizer, which includes
# the xfer, tenant, codec, and replan labels. The replan label also rides the
# determinism label, so its bitwise-identity assertions run under both
# RATEL_SIMD modes.
#
# Environment:
#   SANITIZERS   space-separated subset to run
#                (default: "thread address undefined")
#   JOBS         build/test parallelism (default: nproc)

set -euo pipefail

cd "$(dirname "$0")/.."
REPO_ROOT="$(pwd)"

LABEL="${1:-}"
JOBS="${JOBS:-$(nproc)}"
SANITIZERS="${SANITIZERS:-thread address undefined}"

# The determinism label additionally runs once per RATEL_SIMD backend:
# the portable scalar build of the kernel source everywhere, plus its
# AVX2 build when the host can execute it (otherwise that pass is
# skipped; both builds compute the same bits, and the scalar pass still
# covers the dispatch and threading seams). The scalar pass is the
# slower one: without hardware FMA its fmaf is a software routine.
SIMD_MODES="scalar"
if grep -q avx2 /proc/cpuinfo 2>/dev/null \
    && grep -q fma /proc/cpuinfo 2>/dev/null \
    && grep -q f16c /proc/cpuinfo 2>/dev/null; then
  SIMD_MODES="scalar avx2"
else
  echo "note: host lacks AVX2/FMA/F16C - determinism runs scalar only"
fi

for SAN in ${SANITIZERS}; do
  BUILD_DIR="${REPO_ROOT}/build-${SAN}san"
  echo "=== ${SAN} sanitizer: configuring ${BUILD_DIR} ==="
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
        -DRATEL_SANITIZE="${SAN}" >/dev/null
  echo "=== ${SAN} sanitizer: building (-j${JOBS}) ==="
  cmake --build "${BUILD_DIR}" -j"${JOBS}" >/dev/null
  echo "=== ${SAN} sanitizer: testing ${LABEL:+(label: ${LABEL})} ==="
  if [ "${LABEL}" = "determinism" ]; then
    for MODE in ${SIMD_MODES}; do
      echo "--- determinism label under RATEL_SIMD=${MODE} ---"
      RATEL_SIMD="${MODE}" ctest --test-dir "${BUILD_DIR}" -L determinism \
          --output-on-failure -j"${JOBS}"
    done
  elif [ -n "${LABEL}" ]; then
    ctest --test-dir "${BUILD_DIR}" -L "${LABEL}" --output-on-failure \
          -j"${JOBS}"
  else
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j"${JOBS}"
    for MODE in ${SIMD_MODES}; do
      echo "--- determinism label under RATEL_SIMD=${MODE} ---"
      RATEL_SIMD="${MODE}" ctest --test-dir "${BUILD_DIR}" -L determinism \
          --output-on-failure -j"${JOBS}"
    done
  fi
  echo "=== ${SAN} sanitizer: PASS ==="
done
