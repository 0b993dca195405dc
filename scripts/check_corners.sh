#!/usr/bin/env bash
# Smoke-checks the process-corner layer end to end through the CLI
# (docs/corners.md): delays must order SS >= nominal >= FF (slow devices
# can't be faster than nominal, fast ones can't be slower), `--corner
# nominal` must be byte-identical to not passing the flag, and the
# multi-corner signoff must report the full builtin set with its
# dominating corner. Uses a scratch cache so ~/.cache/pim is untouched.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build >/dev/null
cmake --build build >/dev/null

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Printed delay of `pim evaluate` at one corner ("delay 106.9 ps" -> 106.9).
eval_delay() {
  (cd build && ./tools/pim evaluate 45nm --length 2 --corner "$1" \
      --cache-dir "$workdir/cache" --log-level off) |
    sed -n 's/.*delay \([0-9.]*\) ps.*/\1/p' | head -n 1
}

echo "=== SS >= nominal >= FF delay ordering ==="
ss=$(eval_delay ss)
nominal=$(eval_delay nominal)
ff=$(eval_delay ff)
echo "check_corners: delay ss=${ss} ps, nominal=${nominal} ps, ff=${ff} ps"
awk -v ss="$ss" -v nom="$nominal" -v ff="$ff" 'BEGIN {
  if (!(ss >= nom && nom >= ff)) {
    print "check_corners: corner delays are not monotone (ss >= nominal >= ff)" > "/dev/stderr"
    exit 1
  }
}'

echo "=== --corner nominal is byte-identical to no corner ==="
(cd build && ./tools/pim evaluate 45nm --length 2 \
    --cache-dir "$workdir/cache" --log-level off) > "$workdir/plain.txt"
(cd build && ./tools/pim evaluate 45nm --length 2 --corner nominal \
    --cache-dir "$workdir/cache" --log-level off) > "$workdir/nominal.txt"
if ! cmp -s "$workdir/plain.txt" "$workdir/nominal.txt"; then
  echo "check_corners: --corner nominal output differs from the default" >&2
  diff "$workdir/plain.txt" "$workdir/nominal.txt" >&2 || true
  exit 1
fi

echo "=== multi-corner signoff reports every corner + the worst ==="
(cd build && ./tools/pim signoff 45nm --length 2 --corners all \
    --cache-dir "$workdir/cache" --log-level off) > "$workdir/signoff.txt"
for corner in nominal ss ff sf fs; do
  grep -q "^  ${corner} " "$workdir/signoff.txt" || {
    echo "check_corners: signoff table is missing corner '${corner}'" >&2
    cat "$workdir/signoff.txt" >&2
    exit 1
  }
done
grep -q "^worst corner " "$workdir/signoff.txt" || {
  echo "check_corners: signoff did not name a worst corner" >&2
  exit 1
}

echo "check_corners: OK"
