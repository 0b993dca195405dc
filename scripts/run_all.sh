#!/usr/bin/env bash
# Builds everything, runs the full test suite, then regenerates every
# paper table/figure (writing bench_out/ CSVs). First run characterizes
# all six technologies (several minutes); later runs reuse the
# coefficient caches.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build
cmake --build build
ctest --test-dir build --output-on-failure

cd build
for b in fig1_intrinsic_delay table1_coefficients table2_accuracy \
         table3_noc_synthesis buffering_tradeoff leakage_area_accuracy \
         ablation_ingredients timer_comparison mesh_vs_synthesis \
         noise_analysis buswidth_exploration tapered_buffering \
         variation_yield noc_yield sizing_for_yield cache_effect; do
  echo "=== bench/$b ==="
  ./bench/"$b"
done
./bench/model_runtime --benchmark_min_time=0.1
echo "=== bench/serving_throughput ==="
./bench/serving_throughput

cd ..
scripts/check_metrics.sh
scripts/check_cache.sh
scripts/check_incremental.sh
scripts/check_deadline.sh
scripts/check_corners.sh
scripts/check_serve.sh
scripts/check_kernels.sh
scripts/check_reachable.sh
scripts/check_perf.sh
scripts/check_sanitize.sh
scripts/check_tsan.sh
