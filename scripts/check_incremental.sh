#!/usr/bin/env bash
# Incremental recomputation end to end (docs/caching.md): warm a scratch
# cache across two corners of an on-disk tech file, retune ONE corner, and
# prove the dirty cone is exactly that corner's:
#   - `pim cache diff` must report the edit as partial (dirty > 0 AND
#     reuse > 0, via the cache.dirty.keys / cache.reuse.keys metrics);
#   - `pim cache invalidate` must evict only the cone;
#   - the surviving corner's rerun must stay warm — < 10% of its cold
#     wall time by run-ledger wall_ns — and byte-identical to cold;
#   - the retuned corner's rerun must recompute against the new factors,
#     after which a second diff sees a fully clean cache.
# The scratch cache and tech file live in a temp dir; ~/.cache/pim is
# never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build >/dev/null
cmake --build build >/dev/null

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cachedir="$workdir/cache"
outdir="$workdir/out"
tech="$workdir/edit.tech"

# A 45nm descriptor with a file-defined corner set: nominal plus one
# derated corner we can retune without touching nominal's inputs. The
# corners block nests inside the top-level technology block, so splice it
# in before the closing brace.
(cd build && ./tools/pim techfile 45nm --log-level off) |
  head -n -1 > "$tech"
cat >> "$tech" <<'EOF'
  corners {
    nominal {
    }
    slow {
      nmos_strength 0.9
      pmos_strength 0.9
    }
  }
}
EOF

run_yield() { # $1 = corner, $2 = output file
  (cd build && ./tools/pim yield "$tech" --corner "$1" --length 5 \
      --samples 10000 --cache-dir "$cachedir" --out-dir "$outdir" \
      --log-level off) > "$2"
}

# wall_ns of the most recent run, from the run ledger.
last_wall_ns() {
  tail -n 1 "$outdir/ledger.jsonl" | grep -o '"wall_ns": *[0-9]*' | grep -o '[0-9]*$'
}

# value of an integer counter in a --profile metrics dump.
metric() { # $1 = file, $2 = metric name
  grep -o "\"$2\": *[0-9]*" "$1" | head -n 1 | grep -o '[0-9]*$'
}

echo "=== cold runs (empty cache, nominal + slow corners) ==="
run_yield nominal "$workdir/cold_nominal.txt"
cold_nominal_ns=$(last_wall_ns)
run_yield slow "$workdir/cold_slow.txt"
echo "check_incremental: cold nominal $((cold_nominal_ns / 1000000)) ms"

echo "=== single-corner tweak (retune 'slow', leave nominal alone) ==="
sed -i 's/nmos_strength 0\.9$/nmos_strength 0.85/' "$tech"
if ! grep -q 'nmos_strength 0.85' "$tech"; then
  echo "check_incremental: tech-file edit did not land" >&2
  exit 1
fi

(cd build && ./tools/pim cache diff "$tech" --cache-dir "$cachedir" \
    --out-dir "$outdir" --log-level off \
    --profile "$workdir/diff.json") > "$workdir/diff.txt"
cat "$workdir/diff.txt"
dirty=$(metric "$workdir/diff.json" "cache.dirty.keys")
reuse=$(metric "$workdir/diff.json" "cache.reuse.keys")
if [[ -z "$dirty" || "$dirty" -eq 0 ]]; then
  echo "check_incremental: corner retune marked nothing dirty" >&2
  exit 1
fi
if [[ -z "$reuse" || "$reuse" -eq 0 ]]; then
  echo "check_incremental: corner retune left nothing reusable — cone is not minimal" >&2
  exit 1
fi
echo "check_incremental: diff sees $dirty dirty / $reuse reusable"

(cd build && ./tools/pim cache invalidate "$tech" --cache-dir "$cachedir" \
    --out-dir "$outdir" --log-level off) > "$workdir/invalidate.txt"
grep -q "evicted" "$workdir/invalidate.txt" || {
  echo "check_incremental: invalidate evicted nothing" >&2
  exit 1
}

echo "=== incremental rerun (nominal cone must have survived) ==="
run_yield nominal "$workdir/warm_nominal.txt"
warm_nominal_ns=$(last_wall_ns)
if ! cmp -s "$workdir/cold_nominal.txt" "$workdir/warm_nominal.txt"; then
  echo "check_incremental: nominal output changed after an unrelated corner retune" >&2
  diff "$workdir/cold_nominal.txt" "$workdir/warm_nominal.txt" >&2 || true
  exit 1
fi
echo "check_incremental: warm nominal $((warm_nominal_ns / 1000000)) ms"
if (( warm_nominal_ns * 10 >= cold_nominal_ns )); then
  echo "check_incremental: post-invalidate nominal rerun (${warm_nominal_ns} ns)" \
       "not under 10% of cold (${cold_nominal_ns} ns) — invalidation evicted the reusable cone" >&2
  exit 1
fi

echo "=== retuned corner recomputes, then the cache is clean ==="
run_yield slow "$workdir/warm_slow.txt"
if cmp -s "$workdir/cold_slow.txt" "$workdir/warm_slow.txt"; then
  echo "check_incremental: slow-corner output unchanged by the retune — stale result served" >&2
  exit 1
fi
(cd build && ./tools/pim cache diff "$tech" --cache-dir "$cachedir" \
    --out-dir "$outdir" --log-level off) > "$workdir/clean.txt"
grep -q "0 dirty" "$workdir/clean.txt" || {
  echo "check_incremental: cache still dirty after recomputing the cone" >&2
  cat "$workdir/clean.txt" >&2
  exit 1
}

echo "check_incremental: OK"
