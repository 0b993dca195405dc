#!/usr/bin/env bash
# Builds a dedicated -DPIM_SANITIZE=thread tree (ThreadSanitizer) and
# runs the concurrency-sensitive test binaries under it: the pim::exec
# engine suite, the fault-injection matrix (which exercises the
# parallel Monte-Carlo and characterization paths), the result-cache
# store (concurrent get/put from exec workers), the deadline /
# cancellation suite (stop polls racing worker chunks), the serving
# daemon (accept/reader/worker threads racing admission, flush, and
# drain), the batched transient engine (lanes sharing one read-only
# CompiledCircuit), and the charlib sweep (exec workers running 2-lane
# batches off one shared plan at several thread counts), and the sta
# suite (composition calibration runs its golden sign-off simulations on
# exec workers at several thread counts; threads race cold misses on the
# resident model tier, and warm hits race a coefficient-file rewrite and
# clear_resident_fits for 20x the tier-1 rounds), and the scenario suite (corner models resolve
# their fits under per-item provenance scopes inside one exec region).
# Any data race
# fails the script. Uses its own build directory so the main build/
# tree and the ASan tree stay untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-tsan -G Ninja -DPIM_SANITIZE=thread >/dev/null
cmake --build build-tsan --target test_exec test_faults test_cache test_deadline test_serve test_spice test_charlib test_sta test_scenario >/dev/null

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

for t in test_exec test_faults test_cache test_deadline test_serve test_spice test_charlib test_sta test_scenario; do
  echo "=== tsan: $t ==="
  ./build-tsan/tests/"$t"
done

echo "check_tsan: OK"
