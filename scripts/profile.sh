#!/usr/bin/env bash
# Profile one bench target with gprof and fingerprint the access
# path's code generation.
#
# Usage:
#   scripts/profile.sh <bench-target> [args...]
#
# <bench-target> is a bench executable of the main build (bench_suite,
# bench_fig2, bench_hotpath, ...) or llcf_perfbench, the repository
# benchmark's binary (perfbench/).  The script configures a -pg
# Release tree of its own (build-profile/, or build-profile-perfbench/
# for llcf_perfbench), builds the target, runs it with [args...] in a
# temporary directory (so relative paths in the arguments resolve
# there: pass absolute ones) and prints:
#
#   1. the head of gprof's flat profile;
#   2. the share of the run's wall time gprof attributes to
#      instrumented code (time spent in libc, the kernel or threads
#      gprof does not sample is missing from the profile; run with
#      --threads=1 for the fullest account);
#   3. a code-generation fingerprint of src/sim/machine.cc compiled
#      exactly as the Release tree compiles it, without -pg: the
#      nm -S sizes of Machine::accessLine's clones and of
#      CacheArray::fill, and every CacheArray member the object
#      defines out of line.  GCC's inlining in that translation unit
#      moves with unrelated edits to it (DESIGN.md §15), so a
#      change touching machine.{hh,cc} shows its access path is
#      unchanged by comparing this block against its parent's.
#
# The target's own output goes to standard error; the report goes to
# standard output.
#
# Example:
#   scripts/profile.sh llcf_perfbench --workload evset-cloud --seed 7 \
#       --seconds 10 --trace 0 --out record.json
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)

die() {
    echo "profile: $*" >&2
    exit 1
}

[ $# -ge 1 ] || die "usage: scripts/profile.sh <bench-target> [args...]"
target=$1
shift

for tool in cmake gprof nm python3; do
    command -v "$tool" >/dev/null || die "$tool not found"
done

if [ "$target" = llcf_perfbench ]; then
    source_dir=$repo_root/perfbench
    build_dir=$repo_root/build-profile-perfbench
else
    source_dir=$repo_root
    build_dir=$repo_root/build-profile
fi

if [ ! -f "$build_dir/CMakeCache.txt" ]; then
    generator=()
    if command -v ninja >/dev/null; then
        generator=(-G Ninja)
    fi
    cmake -S "$source_dir" -B "$build_dir" "${generator[@]}" \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg \
        -DLLCF_CCACHE=OFF -DLLCF_BUILD_TESTS=OFF -DLLCF_BUILD_TOOLS=OFF \
        >&2
fi
njobs=$(nproc 2>/dev/null || echo 1)
[ "$njobs" -le 4 ] || njobs=4
cmake --build "$build_dir" --target "$target" --parallel "$njobs" >&2

binary=$(find "$build_dir" -maxdepth 1 -type f -name "$target" -perm -u+x)
[ -n "$binary" ] || die "no executable $target in $build_dir"

run_dir=$(mktemp -d)
trap 'rm -rf "$run_dir"' EXIT

start=$EPOCHREALTIME
status=0
(cd "$run_dir" && "$binary" "$@") >&2 || status=$?
end=$EPOCHREALTIME
[ -f "$run_dir/gmon.out" ] || die "$target wrote no gmon.out (exit $status)"

flat=$run_dir/flat.txt
gprof -b -p "$binary" "$run_dir/gmon.out" >"$flat" 2>/dev/null

echo "== gprof flat profile: $target $* (exit $status)"
head -n 30 "$flat"

echo
echo "== instrumented share of wall time"
# The cumulative-seconds column of the flat profile's last row is the
# total time gprof sampled in instrumented code.
awk -v start="$start" -v end="$end" '
    $1 ~ /^[0-9.]+$/ && $2 ~ /^[0-9.]+$/ { sampled = $2 }
    END {
        wall = end - start
        printf "gprof %.2f s of %.2f s wall (%.1f%%)\n",
               sampled, wall, (wall > 0 ? 100 * sampled / wall : 0)
    }' "$flat"

echo
echo "== codegen fingerprint: src/sim/machine.cc (Release, no -pg)"
# Recompile machine.cc with the tree's own command minus -pg, so the
# sizes are those of the optimised build perfbench and CI measure.
object=$run_dir/machine.cc.o
python3 - "$build_dir/compile_commands.json" "$object" <<'EOF'
import json
import shlex
import subprocess
import sys

db, out = sys.argv[1], sys.argv[2]
for entry in json.load(open(db)):
    if entry["file"].endswith("/src/sim/machine.cc"):
        args = [a for a in shlex.split(entry["command"]) if a != "-pg"]
        args[args.index("-o") + 1] = out
        subprocess.run(args, cwd=entry["directory"], check=True)
        break
else:
    sys.exit("profile: machine.cc not in " + db)
EOF
nm -S -C "$object" >"$run_dir/syms.txt"
# Rows: address, size, type, demangled name; T/t/W/w are definitions.
echo "accessLine and fill (nm -S size, hex):"
awk '$3 ~ /^[TtWw]$/ {
        name = $0
        sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", name)
        if (name ~ /^llcf::(Machine::accessLine|CacheArray::fill)\(/)
            print "  " $2 "  " name
    }' "$run_dir/syms.txt"
echo "CacheArray members defined out of line:"
awk '$3 ~ /^[TtWw]$/ && $4 ~ /^llcf::CacheArray::/ {
        name = $4
        sub(/\(.*/, "", name)
        print "  " name
    }' "$run_dir/syms.txt" | sort -u
