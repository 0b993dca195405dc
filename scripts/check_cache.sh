#!/usr/bin/env bash
# Validates the content-addressed result cache end to end (docs/caching.md):
# a cold `pim yield` run against an empty scratch cache, a warm re-run that
# must be faster AND byte-identical, and a corrupted-entry run that must
# fail open (recompute, exit 0, same bytes). The scratch cache lives in a
# temp dir, so the user's ~/.cache/pim is never touched.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build >/dev/null
cmake --build build >/dev/null

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cachedir="$workdir/cache"

# No --coeffs file on purpose: the characterization + fit is the expensive
# cold work the cache is supposed to absorb, alongside the Monte-Carlo.
run_yield() {
  (cd build && ./tools/pim yield 45nm --length 5 --samples 20000 \
      --cache-dir "$cachedir" --log-level off) > "$1"
}

now_ms() { date +%s%3N; }

echo "=== cold run (empty cache) ==="
t0=$(now_ms); run_yield "$workdir/cold.txt"; t1=$(now_ms)
cold_ms=$((t1 - t0))

entries=$(find "$cachedir" -name '*.pimcache' | wc -l)
if [[ "$entries" -eq 0 ]]; then
  echo "check_cache: cold run registered no cache entries under $cachedir" >&2
  exit 1
fi

echo "=== warm run (populated cache) ==="
t0=$(now_ms); run_yield "$workdir/warm.txt"; t1=$(now_ms)
warm_ms=$((t1 - t0))

if ! cmp -s "$workdir/cold.txt" "$workdir/warm.txt"; then
  echo "check_cache: warm output differs from cold — cache is not transparent" >&2
  diff "$workdir/cold.txt" "$workdir/warm.txt" >&2 || true
  exit 1
fi
echo "check_cache: cold ${cold_ms} ms, warm ${warm_ms} ms"
if [[ "$warm_ms" -ge "$cold_ms" ]]; then
  echo "check_cache: warm run (${warm_ms} ms) not faster than cold (${cold_ms} ms)" >&2
  exit 1
fi

echo "=== corrupted-entry run (must fail open) ==="
# Garble one Monte-Carlo entry behind the store's back; the run must
# recompute it silently (exit 0) and still print the same bytes.
corrupt=$(find "$cachedir/yield" -name '*.pimcache' | head -n 1)
if [[ -z "$corrupt" ]]; then
  echo "check_cache: no yield entry found to corrupt under $cachedir" >&2
  exit 1
fi
echo "garbage, not a cache entry" > "$corrupt"
run_yield "$workdir/corrupt.txt"
if ! cmp -s "$workdir/cold.txt" "$workdir/corrupt.txt"; then
  echo "check_cache: output after corruption differs from cold run" >&2
  exit 1
fi

echo "check_cache: OK"
