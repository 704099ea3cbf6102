#!/bin/sh
# Regenerates the bench artifacts into OUT_DIR and compares them byte for
# byte with the committed results/BENCH_*.json.
#
#   tools/check_artifacts.sh OUT_DIR [BENCH_DIR]
#
# BENCH_DIR holds the bench binaries (default: build/bench under the repo
# root). Every bench except bench_micro_core runs with OUT_DIR as its
# working directory. Every committed artifact except BENCH_ext_engine.json,
# whose events/s and per-wall cells are wall clock, must match. Exits
# non-zero if a bench fails or an artifact differs or is missing.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 OUT_DIR [BENCH_DIR]" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
bench_dir=$(cd "${2:-$root/build/bench}" && pwd) || exit 2
mkdir -p "$1"
out=$(cd "$1" && pwd)

status=0
for b in "$bench_dir"/bench_*; do
  case "$b" in *bench_micro_core) continue ;; esac
  (cd "$out" && "$b" > /dev/null) || {
    echo "exit $? from $(basename "$b")" >&2
    status=1
  }
done
for f in "$root"/results/BENCH_*.json; do
  name=$(basename "$f")
  [ "$name" = BENCH_ext_engine.json ] && continue
  cmp "$f" "$out/$name" || status=1
done
exit $status
