#!/usr/bin/env bash
# Fails when a C++ source under src/, bench/, examples/ or tools/ other
# than the knob module (src/common/knobs.cc) calls getenv or reads
# environ: every RATEL_* knob goes through that one strict parser.
# bench_ledger/ is not scanned: it reads environ only to refuse to run
# with any RATEL_* variable set.
#
# Usage: tools/lint_one_env_parser.sh [repo-root]

set -euo pipefail

cd "${1:-$(dirname "$0")/..}"

hits="$(grep -rnwE --include='*.h' --include='*.cc' --include='*.cpp' \
          'getenv|secure_getenv|environ|__environ' \
          src bench examples tools | grep -v '^src/common/knobs\.cc:' || true)"
if [ -n "${hits}" ]; then
  echo "environment read outside src/common/knobs.cc:"
  echo "${hits}"
  exit 1
fi
echo "ok: only src/common/knobs.cc reads the environment"
