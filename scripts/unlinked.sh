#!/usr/bin/env bash
# List the library functions that no shipped binary links.
#
# Usage:
#   scripts/unlinked.sh <build-dir>
#
# Builds llcf_core, every bench_* binary and llcf_perfbench (the
# repository benchmark, perfbench/) at -O0 with -ffunction-sections
# and -fdata-sections and links the binaries with --gc-sections, into
# two trees under <build-dir> (benches/ and perfbench/).  A function
# of the library that survives in none of those binaries is code only
# the tests reach.  The script compares the defined llcf:: text
# symbols of libllcf_core.a with those of the binaries (by name,
# without parameter lists, so overloads count once) and fails listing
# every unlinked function that scripts/unlinked.allow does not name.
#
# -O0 keeps every call a call, so a function inlined into its only
# caller still counts as linked through that caller.  -fdata-sections
# keeps a dead function's switch jump table out of the one shared
# .rodata section, which would otherwise keep the function alive.
set -euo pipefail
export LC_ALL=C

repo_root=$(cd "$(dirname "$0")/.." && pwd)

die() {
    echo "unlinked: $*" >&2
    exit 1
}

[ $# -eq 1 ] || die "usage: scripts/unlinked.sh <build-dir>"
out=$1
allow="$repo_root/scripts/unlinked.allow"

for tool in cmake nm c++filt; do
    command -v "$tool" >/dev/null || die "$tool not found"
done
[ -f "$allow" ] || die "$allow missing"

mkdir -p "$out"
out=$(cd "$out" && pwd)
jobs=$(nproc 2>/dev/null || echo 4)

flags=(-DCMAKE_BUILD_TYPE=None
       -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections")

echo "== building the benches (-O0, --gc-sections) =="
cmake -B "$out/benches" -S "$repo_root" "${flags[@]}" \
    -DLLCF_BUILD_TESTS=OFF -DLLCF_BUILD_TOOLS=OFF >/dev/null
cmake --build "$out/benches" -j "$jobs" >/dev/null

echo "== building llcf_perfbench (-O0, --gc-sections) =="
cmake -B "$out/perfbench" -S "$repo_root/perfbench" "${flags[@]}" \
    >/dev/null
cmake --build "$out/perfbench" -j "$jobs" >/dev/null

# Defined text symbols (global, weak or file-local) of the llcf
# namespace, demangled without parameter lists, one per line.
functions() {
    nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ { print $3 }' |
        c++filt --no-params | grep -E '^llcf::' | sort -u
}

binaries=("$out/perfbench/llcf_perfbench")
for exe in "$out"/benches/bench_*; do
    if [ -f "$exe" ] && [ -x "$exe" ]; then
        binaries+=("$exe")
    fi
done
[ ${#binaries[@]} -gt 1 ] || die "no bench binaries under $out/benches"

functions "$out/benches/libllcf_core.a" >"$out/library.txt"
functions "${binaries[@]}" >"$out/linked.txt"
comm -23 "$out/library.txt" "$out/linked.txt" >"$out/unlinked.txt"

# The allowlist: one function name per line, then "#" and the reason
# it stays; blank lines and lines starting with "#" are comments.
sed -e 's/[[:space:]]*#.*$//' -e '/^$/d' "$allow" | sort -u \
    >"$out/allowed.txt"

status=0
unexpected=$(comm -23 "$out/unlinked.txt" "$out/allowed.txt")
if [ -n "$unexpected" ]; then
    echo "unlinked: functions no bench or perfbench binary links:"
    echo "$unexpected" | sed 's/^/  /'
    echo "delete them or name them, with a reason, in" \
         "scripts/unlinked.allow"
    status=1
fi
stale=$(comm -13 "$out/unlinked.txt" "$out/allowed.txt")
if [ -n "$stale" ]; then
    echo "unlinked: allowlisted functions that are linked or gone:"
    echo "$stale" | sed 's/^/  /'
    echo "remove them from scripts/unlinked.allow"
    status=1
fi
echo "unlinked: $(wc -l <"$out/unlinked.txt") unlinked function(s)," \
     "$(wc -l <"$out/allowed.txt") allowlisted"
exit "$status"
