#!/usr/bin/env bash
# Reachability gate (docs/architecture.md, "What lives in src/"): every
# function src/ defines must be linked into at least one shipped program.
#
# Builds build-reach/ at -O0 with one section per function and links with
# --gc-sections, so a binary keeps exactly the functions it can reach
# (-O0 keeps inlining and .constprop clones from hiding a live function).
# The roots are every executable target outside tests/ (pim, pimd,
# pim_bench, bench_compare, bench/*, examples/*) plus e2ebench's e2e_bench,
# built against the same tree. Each strong text symbol (nm type T) of the
# src/ archives that no root defines is unreachable.
#
# The gate fails when an unreachable function is not named in
# scripts/reachable_allowlist.txt, and when an allowlist entry is stale:
# a program reaches it again, it is gone from src/, or no test binary
# links it any more. Inline and template functions in headers are not
# covered: they are weak symbols, emitted wherever they are used.
#
# Allowlist lines are `<qualified name>  # <why a test needs it>`; the name
# is matched without its parameter list, so it covers every overload.
set -euo pipefail
export LC_ALL=C
cd "$(dirname "$0")/.."
root=$PWD
build=build-reach
allowlist=scripts/reachable_allowlist.txt
jobs=$(nproc)
flags=(-DCMAKE_BUILD_TYPE=None "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
# Runs a configure or build step; its output is shown only when it fails.
quiet() { "$@" > "$workdir/log" 2>&1 || { tail -40 "$workdir/log"; exit 1; }; }

echo "=== configure ==="
# The CMake file API lists every executable target with its source
# directory and output file, whatever the generator.
mkdir -p "$build/.cmake/api/v1/query"
touch "$build/.cmake/api/v1/query/codemodel-v2"
quiet cmake -S . -B "$build" "${flags[@]}"
python3 - "$build" > "$workdir/targets" <<'PY'
import glob, json, os, sys
reply = os.path.join(sys.argv[1], ".cmake/api/v1/reply")
index = json.load(open(sorted(glob.glob(os.path.join(reply, "index-*.json")))[-1]))
model = json.load(open(os.path.join(reply, index["reply"]["codemodel-v2"]["jsonFile"])))
for ref in model["configurations"][0]["targets"]:
    target = json.load(open(os.path.join(reply, ref["jsonFile"])))
    if target["type"] == "EXECUTABLE":
        role = "test" if target["paths"]["source"].startswith("tests") else "root"
        print(role, target["artifacts"][0]["path"])
PY

echo "=== build ==="
quiet cmake --build "$build" -j "$jobs"
quiet cmake -S e2ebench -B "$build/e2ebench" "${flags[@]}" \
  -DPIM_ROOT="$root" -DPIM_BUILD="$root/$build"
quiet cmake --build "$build/e2ebench" -j "$jobs" --target e2e_bench

echo "=== scan ==="
roots=("$build/e2ebench/e2e_bench")
tests=()
while read -r role path; do
  if [ "$role" = root ]; then roots+=("$build/$path"); else tests+=("$build/$path"); fi
done < "$workdir/targets"
mapfile -t libs < <(find "$build/src" -name '*.a' | sort)
nm -g --defined-only "${libs[@]}" 2>/dev/null | awk '$2 == "T" { print $3 }' \
  | sort -u > "$workdir/defined"
linked() { nm --defined-only "$@" 2>/dev/null | awk 'NF == 3 { print $3 }' | sort -u; }
# "<name without parameters>\t<signature>" per mangled symbol on stdin.
names() {
  local syms
  syms=$(cat)
  [ -n "$syms" ] || return 0
  paste <(c++filt -p <<< "$syms" | sed 's/\[abi:[^]]*\]//g') <(c++filt <<< "$syms") | sort -u
}
comm -23 "$workdir/defined" <(linked "${roots[@]}") > "$workdir/dead"
names < "$workdir/dead" > "$workdir/unreachable"
comm -12 "$workdir/dead" <(linked "${tests[@]}") | names | cut -f1 | sort -u > "$workdir/tested"

sed -n 's/^\([^#]*[^# ]\) *#.*$/\1/p' "$allowlist" | sort -u > "$workdir/allowed"
bad_lines=$(grep -Ev '^[[:space:]]*(#|$)' "$allowlist" | grep -Ev '^[^#]*[^# ] +# *[^ ]' || true)

status=0
report() {  # <message> <lines>
  [ -n "$2" ] || return 0
  echo "check_reachable: $1"
  echo "$2" | sed 's/^/  /'
  status=1
}
report "allowlist lines without a reason (want 'name  # reason'):" "$bad_lines"
unlisted=$(awk -F'\t' 'FILENAME == ARGV[1] { allowed[$0] = 1; next } !($1 in allowed) { print $2 }' \
  "$workdir/allowed" "$workdir/unreachable" | sort -u)
report "$(echo "$unlisted" | wc -l) src/ functions no program reaches:" "$unlisted"
report "allowlist entries a program reaches again, or gone from src/:" \
  "$(cut -f1 "$workdir/unreachable" | sort -u | comm -23 "$workdir/allowed" -)"
report "allowlist entries no test uses any more (delete the function):" \
  "$(cut -f1 "$workdir/unreachable" | sort -u | comm -12 "$workdir/allowed" - \
     | comm -23 - "$workdir/tested")"
[ $status -eq 0 ] || exit 1
echo "check_reachable: OK (${#roots[@]} programs, ${#tests[@]} test binaries;" \
  "$(wc -l < "$workdir/defined") strong src/ symbols; $(wc -l < "$workdir/allowed") allowlisted test seams)"
