#!/usr/bin/env bash
# Kernel determinism gate (docs/kernels.md): with the result cache off,
# fits 45nm from scratch at --threads 1 and 4 (the characterization runs
# through the batched engine's SoA kernels) and asserts the coefficient
# files, then `pim evaluate`/`pim yield` outputs, are byte-identical.
# It also asserts the canonical 65nm fit's SHA-256 and that `pim noise`,
# whose full-window transients take no early exit, prints the same bytes
# at --threads 1 and 4.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "=== build ==="
cmake -B build >/dev/null
cmake --build build --target pim_cli >/dev/null
pim=./build/tools/pim

common=(--cache off --out-dir "$workdir/out" --ledger off --log-level warn)

for threads in 1 4; do
  echo "=== pim fit (--threads $threads) ==="
  "$pim" fit 45nm --coeffs "$workdir/coeffs-$threads.pimfit" --threads $threads \
    "${common[@]}" >/dev/null
done

echo "=== compare ==="
# Fitted coefficients must match byte-for-byte across thread counts.
cmp "$workdir/coeffs-1.pimfit" "$workdir/coeffs-4.pimfit" \
  || { echo "check_kernels: coefficient files differ between --threads 1 and 4"; exit 1; }

coeffs="$workdir/coeffs-1.pimfit"
for threads in 1 4; do
  "$pim" evaluate 45nm --length 5 --coeffs "$coeffs" --threads $threads \
    "${common[@]}" > "$workdir/evaluate-$threads.txt"
  "$pim" yield 45nm --length 3 --samples 200 --coeffs "$coeffs" \
    --threads $threads "${common[@]}" > "$workdir/yield-$threads.txt"
done

for cmd in evaluate yield; do
  cmp "$workdir/$cmd-1.txt" "$workdir/$cmd-4.txt" \
    || { echo "check_kernels: pim $cmd output differs (--threads 4 vs 1)"; exit 1; }
done

echo "=== canonical 65nm fit ==="
canonical=26450859e2ce6f25607d98a1b45a82c7f75e3c471f08098ec16985f0c9686f33
"$pim" fit 65nm --coeffs "$workdir/coeffs-65nm.pimfit" --threads 4 "${common[@]}" >/dev/null
sha=$(sha256sum "$workdir/coeffs-65nm.pimfit" | cut -d' ' -f1)
[ "$sha" = "$canonical" ] \
  || { echo "check_kernels: 65nm fit SHA-256 is $sha, expected $canonical"; exit 1; }

echo "=== pim noise ==="
for threads in 1 4; do
  "$pim" noise 65nm --length 5 --threads $threads "${common[@]}" > "$workdir/noise-$threads.txt"
done
cmp "$workdir/noise-1.txt" "$workdir/noise-4.txt" \
  || { echo "check_kernels: pim noise output differs (--threads 4 vs 1)"; exit 1; }

echo "check_kernels: OK (fit, evaluate, yield and noise byte-identical at --threads 1 and 4;" \
  "canonical 65nm fit)"
