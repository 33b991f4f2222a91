#!/usr/bin/env bash
# UndefinedBehaviorSanitizer gate for the byte-level code paths.
#
# Builds the common, shuffle, mapred and core (MPI-D) test suites with
# -fsanitize=undefined (cmake -DMPID_SANITIZE=undefined) in a separate
# build tree and runs them. These suites exercise the code that does
# arithmetic on lengths and raw bytes: varint and KvFrame codecs (with
# their seeded fuzz), the combine table's packed slot words and slab
# block headers, the frame headers and lane sequence numbers of the
# MPI-D transport, and the reducers' grouping and merge paths — where a
# signed overflow, a misaligned load or an out-of-range shift is
# undefined rather than merely wrong.
#
# Usage: scripts/check_ubsan.sh [extra gtest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-ubsan

cmake -B "$BUILD_DIR" -S . -DMPID_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" --target test_common test_shuffle test_mapred \
  test_mpid -j

# halt_on_error turns the first report into a failing exit instead of a
# log line the run would otherwise survive.
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

for suite in test_common test_shuffle test_mapred test_mpid; do
  echo "=== UBSan: $suite ==="
  "$BUILD_DIR/tests/$suite" "$@"
done

echo "UBSan check passed."
