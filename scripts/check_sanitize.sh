#!/usr/bin/env bash
# Builds a dedicated -DPIM_SANITIZE=ON tree (ASan + UBSan) and runs the
# robustness-sensitive test binaries under it: the fault-injection
# matrix, the numeric kernels, the util layer, the cache, the wire codec
# (which parses untrusted socket input), the daemon and its line
# transport (test_serve: the reader that cuts client bytes into lines),
# the block-text formats (test_tech feeds every prefix of a .tech, .pimfit
# and cache payload to their parsers), and the spice and exec engines. Memory errors or UB
# anywhere in those paths fail the script. Uses its own build directory
# so the main build/ tree stays sanitizer-free.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-sanitize -G Ninja -DPIM_SANITIZE=ON >/dev/null
cmake --build build-sanitize --target test_faults test_numeric test_util test_cache test_wire \
  test_serve test_tech test_spice test_exec >/dev/null

# halt_on_error keeps failures loud; detect_leaks stays on by default.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"

for t in test_faults test_numeric test_util test_cache test_wire test_serve test_tech \
  test_spice test_exec; do
  echo "=== sanitize: $t ==="
  ./build-sanitize/tests/"$t"
done

echo "check_sanitize: OK"
