#!/usr/bin/env bash
# Perf regression gate: runs the pim_bench harness and compares the fresh
# record against the latest committed BENCH_*.json at the repo root via
# bench_compare (per-metric tolerances; non-zero exit on regression).
# Run from anywhere; uses the build/bench_out coefficient cache so repeat
# runs skip characterization. See docs/observability.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# Reuse the existing build tree whatever its generator; -G here would
# conflict with a tree configured differently.
cmake -B build >/dev/null
cmake --build build >/dev/null

baseline=$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)
if [[ -z "$baseline" ]]; then
  echo "check_perf: no BENCH_*.json baseline at the repo root" >&2
  echo "check_perf: create one with: (cd build && ./tools/pim_bench --out ../BENCH_$(date -u +%F).json)" >&2
  exit 1
fi

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "=== pim_bench (fresh run) ==="
mkdir -p build/bench_out  # shared coefficient cache location
(cd build && ./tools/pim_bench --reps 5 --out "$workdir/fresh.json")

# Both gates always run, so a bench_compare failure (e.g. a baseline
# from a machine with another fingerprint) never hides the same-run
# floors below; the script fails if either gate fails.
echo "=== bench_compare against $baseline ==="
compare_status=0
./build/tools/bench_compare "$baseline" "$workdir/fresh.json" || compare_status=$?

# Speedup floors from the fresh run (docs/kernels.md). These are ratios
# of two metrics measured in the same process, so unlike the absolute
# medians above they are stable across machines: the batched transient
# engine must keep charlib sweeps >= 2x over the scalar reference
# engine, the Monte-Carlo fast path >= 3x over per-sample model
# construction, one step of a prebuilt link frame (a Monte-Carlo
# sample's cost) >= 2x over the one-shot evaluate_link that also builds
# the frame, the to_chars / from_chars number codec >= 3x over
# snprintf for a yield payload's encode and >= 1.5x over strtod for its
# decode, and the lane-interleaved banded kernel >= 1.3x over two scalar
# BandedLu factor-and-solves for a 140-row, half-bandwidth-5 lane pair.
# That last reference leg also pays a matrix copy and a solution-vector
# allocation per BandedLu call, so its floor is not a pure kernel ratio.
# The last floor bounds what an armed fault harness costs a Monte-Carlo
# sweep: the 20,000-sample sweep with variation.sample armed must take at
# most 1.2x the disarmed one, i.e. disarmed / armed >= 0.83.
echo "=== speedup floors ==="
floor_status=0
python3 - "$workdir/fresh.json" <<'EOF' || floor_status=$?
import json, sys

metrics = json.load(open(sys.argv[1]))["metrics"]
floors = [
    ("transient_kernel.ms_per_sweep_reference",
     "transient_kernel.ms_per_sweep_batched", 2.0, "charlib sweep"),
    ("mc_batch.us_per_sample_modelpath",
     "mc_batch.us_per_sample_fastpath", 3.0, "MC sample evaluation"),
    ("mc_batch.us_per_sample_fastpath",
     "mc_batch.us_per_sample_frame", 2.0, "MC frame step"),
    ("payload_codec.encode_us_reference",
     "payload_codec.encode_us", 3.0, "payload encode"),
    ("payload_codec.decode_us_reference",
     "payload_codec.decode_us", 1.5, "payload decode"),
    ("transient_kernel.us_per_pair_reference",
     "transient_kernel.us_per_pair_cohort", 1.3, "banded lane pair"),
    ("mc_yield.ms_per_20k_disarmed",
     "mc_yield.ms_per_20k_armed", 0.83, "armed MC sweep"),
]
failed = False
for slow, fast, floor, label in floors:
    ratio = metrics[slow]["median"] / metrics[fast]["median"]
    status = "ok" if ratio >= floor else "FAIL"
    if ratio < floor:
        failed = True
    print(f"  {label}: {ratio:.2f}x (floor {floor}x) {status}")
if failed:
    sys.exit("check_perf: speedup below floor")
EOF

if ((compare_status != 0 || floor_status != 0)); then
  echo "check_perf: FAILED (bench_compare exit $compare_status," \
       "speedup floors exit $floor_status)" >&2
  exit 1
fi
echo "check_perf: OK"
