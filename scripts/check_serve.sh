#!/usr/bin/env bash
# End-to-end serving check (docs/serving.md): boots the real pimd on a
# Unix socket against a scratch cache directory, runs a mixed request
# stream (techfile + a heterogeneous batch + a repeat evaluate) cold and
# then warm through the `pim serve` client, and requires
#   - warm daemon responses byte-identical to the same lines executed
#     in-process (`pim serve --local`) against the same cache, at
#     --threads 1 and --threads 4 — the codec-sharing contract,
#   - the daemon's stats to report the exact expected cache-hit growth
#     across the warm pass, pinned per tier (the process-resident models
#     and the store),
#   - a graceful SIGTERM drain: exit 0 and the socket file unlinked.
# It does all of this twice: with --workers 1, and with --workers 4
# where the warm pass sends its three lines from three concurrent
# clients, so the per-request stats must stay exact under concurrency.
# Each pass characterizes 65nm on its own scratch cache (about ten
# seconds on four cores), so both cold passes stay cold.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build >/dev/null
cmake --build build --target pimd pim_cli >/dev/null

workdir=$(mktemp -d)
pimd_pid=""
cleanup() {
  [[ -n "$pimd_pid" ]] && kill "$pimd_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

pim=build/tools/pim

requests="$workdir/requests.jsonl"
cat > "$requests" <<'EOF'
{"op":"techfile","id":1,"tech":"65nm"}
{"op":"batch","id":2,"items":[{"op":"evaluate","link":{"tech":"65nm","length_mm":3.0}},{"op":"buffer","link":{"tech":"65nm","length_mm":5.0}},{"op":"yield","link":{"tech":"65nm","length_mm":5.0},"samples":400,"seed":2026}]}
{"op":"evaluate","id":3,"link":{"tech":"65nm","length_mm":3.0}}
EOF

# Every flow in the warm stream comes back from a cache tier, and every
# batch item counts. Warm hits per request, per tier:
#                     resident model   store
#   techfile                0            0
#   evaluate                1            0
#   buffer                  1            1  (stored search)
#   yield                   1            1  (stored MC run)
#   repeat evaluate         1            0
#   warm pass               4            2
# Each tier's exact growth is pinned — a silently colder (or hotter) warm
# pass is a caching regression, not noise.
expected_resident_growth=4
expected_store_growth=2

serve_pass() {
  local workers=$1
  local cache="$workdir/cache$workers"
  local sock="$workdir/pimd$workers.sock"
  local out="$workdir/w$workers"

  echo "=== pimd --workers $workers: boot (scratch cache) ==="
  build/tools/pimd --socket "$sock" --workers "$workers" --cache rw --cache-dir "$cache" \
    > "$out.pimd.stdout" 2> "$out.pimd.stderr" &
  pimd_pid=$!
  for _ in $(seq 100); do
    [[ -S "$sock" ]] && break
    if ! kill -0 "$pimd_pid" 2>/dev/null; then
      cat "$out.pimd.stderr" >&2
      echo "check_serve: pimd died during startup" >&2
      exit 1
    fi
    sleep 0.1
  done
  [[ -S "$sock" ]] || { echo "check_serve: pimd socket never appeared" >&2; exit 1; }

  # Prints "<resident_hits> <store_hits>".
  hits() {
    echo '{"op":"stats"}' | "$pim" serve --socket "$sock" |
      jq -r '"\(.result.cache.resident_hits) \(.result.cache.store_hits)"'
  }

  echo "=== cold pass (characterizes 65nm, populates the cache) ==="
  "$pim" serve --socket "$sock" < "$requests" > "$out.cold"
  local resident_cold store_cold
  read -r resident_cold store_cold < <(hits)

  echo "=== warm pass ==="
  if [[ "$workers" -eq 1 ]]; then
    "$pim" serve --socket "$sock" < "$requests" > "$out.warm"
  else
    # One concurrent client per line; responses are joined in line order.
    local n=0 line
    local pids=()
    while IFS= read -r line; do
      n=$((n + 1))
      printf '%s\n' "$line" | "$pim" serve --socket "$sock" > "$out.warm.$n" &
      pids+=($!)
    done < "$requests"
    for pid in "${pids[@]}"; do wait "$pid"; done
    for i in $(seq "$n"); do cat "$out.warm.$i"; done > "$out.warm"
  fi
  local resident_warm store_warm resident_growth store_growth
  read -r resident_warm store_warm < <(hits)
  resident_growth=$((resident_warm - resident_cold))
  store_growth=$((store_warm - store_cold))
  echo "resident hits: cold $resident_cold, warm $resident_warm (+$resident_growth)"
  echo "store hits: cold $store_cold, warm $store_warm (+$store_growth)"
  if [[ "$resident_growth" -ne "$expected_resident_growth" ||
        "$store_growth" -ne "$expected_store_growth" ]]; then
    echo "check_serve: --workers $workers warm pass grew $resident_growth resident and" \
      "$store_growth store hits, expected $expected_resident_growth and" \
      "$expected_store_growth" >&2
    exit 1
  fi

  echo "=== byte-identity: warm daemon vs in-process, --threads 1 and 4 ==="
  for threads in 1 4; do
    "$pim" serve --local --cache rw --cache-dir "$cache" --threads "$threads" \
      < "$requests" > "$out.local$threads"
    if ! cmp -s "$out.warm" "$out.local$threads"; then
      echo "check_serve: warm daemon responses differ from --local --threads $threads" >&2
      diff "$out.warm" "$out.local$threads" | head >&2 || true
      exit 1
    fi
  done
  echo "byte-identical"

  echo "=== graceful drain (SIGTERM) ==="
  kill -TERM "$pimd_pid"
  local drain_rc=0
  wait "$pimd_pid" || drain_rc=$?
  pimd_pid=""
  if [[ "$drain_rc" -ne 0 ]]; then
    cat "$out.pimd.stderr" >&2
    echo "check_serve: pimd exited $drain_rc on SIGTERM" >&2
    exit 1
  fi
  if [[ -e "$sock" ]]; then
    echo "check_serve: pimd left its socket file behind" >&2
    exit 1
  fi
}

serve_pass 1
serve_pass 4

echo "check_serve: OK"
