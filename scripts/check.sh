#!/usr/bin/env bash
# Tier-1 verification cycle plus sanitizer passes over every test binary.
# Usage: scripts/check.sh [mode] [build-dir]
#   mode: all (default) | tier1 | asan | tsan
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-all}"
BUILD="${2:-build}"

case "$MODE" in
  all|tier1|asan|tsan) ;;
  *) echo "usage: scripts/check.sh [all|tier1|asan|tsan] [build-dir]" >&2
     exit 2 ;;
esac

if [[ "$MODE" == all || "$MODE" == tier1 ]]; then
  echo "== tier-1: configure + build + full test suite =="
  cmake -B "$BUILD" -S .
  cmake --build "$BUILD" -j
  ctest --test-dir "$BUILD" --output-on-failure -j
fi

# One sanitizer pass: configure SAN_BUILD with the given CALIBRO_SANITIZE
# value, build everything (every test binary, plus the harnesses the ctest
# suite drives), and run the whole ctest suite there.
sanitize() {
  local SAN_BUILD="$1" SANITIZERS="$2"
  cmake -B "$SAN_BUILD" -S . -DCALIBRO_SANITIZE="$SANITIZERS"
  cmake --build "$SAN_BUILD" -j
  ctest --test-dir "$SAN_BUILD" --output-on-failure
}

if [[ "$MODE" == all || "$MODE" == asan ]]; then
  echo "== sanitizers: ASan+UBSan, every test binary =="
  sanitize "${BUILD}-asan" address,undefined
fi

if [[ "$MODE" == all || "$MODE" == tsan ]]; then
  echo "== sanitizers: TSan, every test binary =="
  sanitize "${BUILD}-tsan" thread
fi

echo "check.sh ($MODE): all green"
