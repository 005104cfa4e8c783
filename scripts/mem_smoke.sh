#!/usr/bin/env bash
# Memory-budgeted windowed-linking smoke gate. Builds the table5 harness and
# the CLI, then enforces the windowed-linking invariants at small scale:
#
#   1. the budgeted build really is windowed (at least 2 windows),
#   2. the detect-phase window peak stays under the budget (+slack), and
#   3. the windowed image is byte-identical to the monolithic one (cmp).
#
# table5_memory itself exits non-zero when its own shape checks fail
# (byte-identity across the budget sweep, bounded peak under a fixed budget
# while the unbudgeted peak grows with input size), so running it IS a gate,
# not just a report. Usage: scripts/mem_smoke.sh [build-dir] [scale]
# (the build dir may be absolute or relative to the repo root).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="$(realpath -m "${1:-build}")"
SCALE="${2:-0.3}"
BUDGET=600000      # bytes; tight enough at the default scale for 2 windows
SLACK_PCT=25       # real peak may exceed the budget by at most this much

cmake -B "$BUILD" -S .
cmake --build "$BUILD" -j --target table5_memory calibro-dex2oat

echo "== mem-smoke: table5 shape gates (scale $SCALE) =="
(cd "$BUILD/bench" && ./table5_memory "$SCALE")

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
DEX2OAT="$BUILD/tools/calibro-dex2oat"

echo "== mem-smoke: CLI windowed-vs-monolithic (budget $BUDGET) =="
"$DEX2OAT" --app Wechat --scale "$SCALE" --cto --ltbo \
  --partitions 8 --threads 4 -o "$OUT/mono.oat" 2> "$OUT/mono.log"
"$DEX2OAT" --app Wechat --scale "$SCALE" --cto --ltbo \
  --partitions 8 --threads 4 --memory-budget "$BUDGET" \
  -o "$OUT/win.oat" 2> "$OUT/win.log"
cat "$OUT/win.log"

# Windowed: the CLI prints "windowed: <K> partitions, <W> windows, ...". A
# single window would make the identity check below vacuous.
WINDOWS=$(grep -oE '[0-9]+ windows' "$OUT/win.log" | grep -oE '[0-9]+' || true)
if [[ -z "$WINDOWS" ]] || (( WINDOWS < 2 )); then
  echo "mem-smoke: budgeted build ran ${WINDOWS:-no} windows, need >= 2" >&2
  exit 1
fi

# Identity: windowing may change where intermediates live, never the image.
cmp "$OUT/mono.oat" "$OUT/win.oat"

# Bound: the reported window peak must not exceed budget + slack. The CLI
# prints "window peak <N> bytes (budget <B>)".
PEAK=$(grep -oE 'window peak [0-9]+' "$OUT/win.log" | grep -oE '[0-9]+')
test -n "$PEAK"
LIMIT=$(( BUDGET + BUDGET * SLACK_PCT / 100 ))
if (( PEAK > LIMIT )); then
  echo "mem-smoke: window peak $PEAK bytes exceeds budget $BUDGET (+${SLACK_PCT}% = $LIMIT)" >&2
  exit 1
fi
echo "mem-smoke: $WINDOWS windows, peak $PEAK <= $LIMIT, images identical — all green"
