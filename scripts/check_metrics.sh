#!/usr/bin/env bash
# Validates the observability pipeline end to end: builds the tree, runs
# an instrumented `pim evaluate` (plus a bench with a metrics artifact),
# and fails on malformed JSON or missing metric keys. Uses the bench_out
# coefficient cache so repeat runs skip characterization.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build >/dev/null
cmake --build build >/dev/null

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# json_ok FILE -- fail unless FILE parses as JSON.
json_ok() {
  if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$1" >/dev/null || {
      echo "check_metrics: malformed JSON in $1" >&2
      return 1
    }
  else
    # Crude fallback: non-empty and starts with an object brace.
    [[ -s "$1" ]] && head -c1 "$1" | grep -q '{' || {
      echo "check_metrics: $1 missing or not JSON" >&2
      return 1
    }
  fi
}

# has_key FILE KEY -- fail unless the metric name appears in the report.
has_key() {
  grep -q "\"$2\"" "$1" || {
    echo "check_metrics: $1 lacks required key '$2'" >&2
    return 1
  }
}

mkdir -p build/bench_out  # shared coefficient cache location

echo "=== pim evaluate --profile/--trace ==="
(cd build && ./tools/pim evaluate 45nm --length 5 \
    --coeffs bench_out/coeffs_45nm.pimfit \
    --profile "$workdir/evaluate.metrics.json" \
    --trace "$workdir/evaluate.trace.json" --log-level warn)
json_ok "$workdir/evaluate.metrics.json"
json_ok "$workdir/evaluate.trace.json"
has_key "$workdir/evaluate.metrics.json" "schema"
has_key "$workdir/evaluate.metrics.json" "cli.evaluate"
has_key "$workdir/evaluate.metrics.json" "model.link.evaluations"
has_key "$workdir/evaluate.trace.json" "traceEvents"
# A fresh characterization also proves the spice counters; with a warm
# coeffs cache only the model counters are exercised, which is fine.
if ! grep -q '"spice.transient.runs"' "$workdir/evaluate.metrics.json" &&
   ! grep -q '"model.link.evaluations"' "$workdir/evaluate.metrics.json"; then
  echo "check_metrics: neither spice.* nor model.* counters present" >&2
  exit 1
fi

echo "=== bench metrics artifact ==="
# variation_yield always runs its Monte-Carlo, so its counters are
# present even when the coefficient cache skips characterization.
(cd build && ./bench/variation_yield >/dev/null)
artifact=build/bench_out/variation_yield.metrics.json
json_ok "$artifact"
has_key "$artifact" "schema"
has_key "$artifact" "variation.sample.count"
has_key "$artifact" "model.link.evaluations"

echo "check_metrics: OK"
