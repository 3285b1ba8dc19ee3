#!/usr/bin/env bash
# The repository's bench regression gates, runnable locally exactly as
# CI runs them.  Each gate compares freshly simulated output against
# the committed BENCH_*.json baselines and/or demands byte-identical
# JSON across worker-thread counts (the determinism contract).
#
# Usage:
#   scripts/bench_gates.sh <build-dir> [gate...]
#   scripts/bench_gates.sh --twin <scalar-build-dir> <simd-build-dir>
#
# With no gate names, every gate runs in order.  Gates:
#   harness     paper benches (fig2/3/6, table3/4/5) 1-vs-8-thread
#               byte identity
#   matrix      the scenarios suite + counters 1-vs-8 identity
#   hotpath     bench_hotpath smoke vs BENCH_hotpath.json
#   scalar-flip LLCF_SCALAR_TAGS=1 runs match the vectorized bytes
#   e2e         the e2e suite
#   resume      campaign interrupt/resume byte identity (fork path)
#   fullscale   reduced fleet vs BENCH_fullscale.json bands
#   calib       the calib suite
#   defense     the defense suite
#   traffic     the traffic suite
#   must-fail   runs the gates must reject: an empty or unknown
#               selection, an off-suite cell, one cell of each
#               result type against a baseline with a gated rate
#               flipped, a baseline the JSON parser must refuse
#               with a message (100,000-deep nesting, a truncated
#               BENCH_calib.json), and baselines that parse but have
#               the wrong shape (a cell given as an array, a rate
#               given as a string, a cell without trials, a negative
#               tolerance, an unknown cell)
#
# A suite gate runs bench_suite --suite=<suite> --smoke at 1 thread,
# gated against the committed BENCH_<suite>.json when there is one
# (every run also checks the cells' declared expectations: the kill
# cell, the undefended floor, the AES nibbles, the starved cell, the
# rotation epochs), demands the same bytes as that committed
# baseline, then runs at 8 threads and demands identical bytes again.
# Smoke runs are deterministic, so any simulated drift fails here,
# not only drift outside the baseline's bands; a deliberate change
# regenerates the baseline (see .gitignore) with a reason in
# CHANGES.md.  The hotpath gate holds BENCH_hotpath.json to the same
# exact-byte standard.
#
# --twin mode runs the cross-build byte-identity check instead: two
# build trees of the same commit (scalar and SIMD tag-scan kernels)
# must emit byte-identical bench JSON.
#
# Exits non-zero on the first failing gate.  Requires the build dir to
# contain the bench executables (cmake --build <dir>).
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)

fail() {
    echo "bench_gates: $*" >&2
    exit 1
}

# ---------------------------------------------------------------- twin
if [ "${1:-}" = "--twin" ]; then
    [ $# -eq 3 ] || fail "--twin needs <scalar-build-dir> <simd-build-dir>"
    scalar=$(cd "$2" && pwd)
    simd=$(cd "$3" && pwd)
    echo "== gate: twin (cross-build byte identity) =="
    "$simd/bench_hotpath" --smoke \
        --json-out="$simd/BENCH_hotpath.json" > /dev/null
    cmp "$scalar/BENCH_hotpath.json" "$simd/BENCH_hotpath.json"
    "$scalar/bench_suite" --suite=scenarios --smoke --threads=8 \
        --json-out="$scalar/BENCH_scenarios.json" > /dev/null
    "$simd/bench_suite" --suite=scenarios --smoke --threads=8 \
        --json-out="$simd/BENCH_scenarios.json" > /dev/null
    cmp "$scalar/BENCH_scenarios.json" "$simd/BENCH_scenarios.json"
    echo "twin gate: scalar and SIMD builds byte-identical"
    exit 0
fi

# ------------------------------------------------------------- regular
[ $# -ge 1 ] || fail "usage: bench_gates.sh <build-dir> [gate...]"
build=$(cd "$1" && pwd)
shift
gates=("$@")
if [ ${#gates[@]} -eq 0 ]; then
    gates=(harness matrix hotpath scalar-flip e2e resume fullscale
           calib defense traffic must-fail)
fi

cd "$build" || fail "cannot enter build dir $build"

gate_harness() {
    ./bench_fig2 --threads=1 --trials=2 --json-out=fig2_t1.json \
        > /dev/null
    ./bench_fig2 --threads=8 --trials=2 --json-out=fig2_t8.json \
        > /dev/null
    cmp fig2_t1.json fig2_t8.json
    LLCF_WS_OFFSETS=2 ./bench_table4 --threads=1 --trials=1 \
        --json-out=t4_t1.json > /dev/null
    LLCF_WS_OFFSETS=2 ./bench_table4 --threads=8 --trials=1 \
        --json-out=t4_t8.json > /dev/null
    cmp t4_t1.json t4_t8.json
    # The remaining paper benches: one trial per cell is enough to
    # pin that sharding never changes a byte.
    local bench
    for bench in fig3 fig6 table3 table5; do
        ./bench_$bench --threads=1 --trials=1 \
            --json-out="${bench}_t1.json" > /dev/null
        ./bench_$bench --threads=8 --trials=1 \
            --json-out="${bench}_t8.json" > /dev/null
        cmp "${bench}_t1.json" "${bench}_t8.json"
    done
}

gate_suite() {
    local suite=$1
    local gate=()
    if [ -f "$repo_root/BENCH_$suite.json" ]; then
        gate=(--baseline="$repo_root/BENCH_$suite.json")
    fi
    ./bench_suite --suite="$suite" --list
    # Bands and declared expectations on the 1-thread run, the
    # committed bytes exactly ...
    ./bench_suite --suite="$suite" --smoke --threads=1 \
        --json-out="BENCH_$suite.json" "${gate[@]}"
    if [ -f "$repo_root/BENCH_$suite.json" ]; then
        cmp "BENCH_$suite.json" "$repo_root/BENCH_$suite.json" ||
            fail "$suite smoke drifted from BENCH_$suite.json"
    fi
    # ... and trial sharding must not change a byte.
    ./bench_suite --suite="$suite" --smoke --threads=8 \
        --json-out="${suite}_t8.json" > /dev/null
    cmp "BENCH_$suite.json" "${suite}_t8.json"
}

gate_matrix() {
    gate_suite scenarios
    # Counter metrics obey the same 1-vs-8-thread contract.
    ./bench_suite --suite=scenarios --smoke --counters --threads=1 \
        --scenario='build-bins-tiny-*' --json-out=scen_c1.json \
        > /dev/null
    ./bench_suite --suite=scenarios --smoke --counters --threads=8 \
        --scenario='build-bins-tiny-*' --json-out=scen_c8.json \
        > /dev/null
    cmp scen_c1.json scen_c8.json
}

gate_hotpath() {
    ./bench_hotpath --smoke --json-out=BENCH_hotpath.json \
        --baseline="$repo_root/BENCH_hotpath.json"
    cmp BENCH_hotpath.json "$repo_root/BENCH_hotpath.json" ||
        fail "hotpath smoke drifted from BENCH_hotpath.json"
}

gate_scalar_flip() {
    # Same binary, scalar tag-scan kernel forced at startup: every
    # simulated byte must match the vectorized runs.
    [ -f BENCH_hotpath.json ] || gate_hotpath
    [ -f BENCH_scenarios.json ] || \
        ./bench_suite --suite=scenarios --smoke --threads=8 \
            --json-out=BENCH_scenarios.json > /dev/null
    LLCF_SCALAR_TAGS=1 ./bench_hotpath --smoke \
        --json-out=hotpath_scalar.json > /dev/null
    cmp BENCH_hotpath.json hotpath_scalar.json
    LLCF_SCALAR_TAGS=1 ./bench_suite --suite=scenarios --smoke \
        --threads=8 --json-out=scen_scalar.json > /dev/null
    cmp BENCH_scenarios.json scen_scalar.json
}

gate_resume() {
    # A 66-victim forked fleet spans two shards.  Interrupt after the
    # first shard at 8 threads (exit code 3 by contract) ...
    rc=0
    ./bench_suite --suite=e2e --scenario=campaign-fork-tiny-silent-96 \
        --trials=66 --threads=8 --checkpoint=cp_resume.json \
        --stop-after-shards=1 || rc=$?
    [ "$rc" -eq 3 ] || fail "interrupt exit code $rc, expected 3"
    [ -f cp_resume.json ] || fail "no checkpoint written"
    # ... resume at 1 thread, and demand the same bytes as an
    # uninterrupted run at yet another thread count.
    ./bench_suite --suite=e2e --scenario=campaign-fork-tiny-silent-96 \
        --trials=66 --threads=1 --checkpoint=cp_resume.json \
        --resume --json-out=e2e_resumed.json > /dev/null
    ./bench_suite --suite=e2e --scenario=campaign-fork-tiny-silent-96 \
        --trials=66 --threads=8 --json-out=e2e_whole.json > /dev/null
    cmp e2e_resumed.json e2e_whole.json
}

gate_fullscale() {
    # The committed BENCH_fullscale.json comes from a 2,000-victim
    # run of the 100k spec; its gate bands are per-victim rates and
    # cycle means, so a 200-victim fleet of the same spec must sit
    # inside them (as must the nightly true 10^5 fleet).
    ./bench_suite --suite=e2e --full-scale --trials=200 --threads=8 \
        --json-out=fullscale_ci.json \
        --baseline="$repo_root/BENCH_fullscale.json"
}

# Exit code of a command, with its output discarded.
exit_code() {
    local rc=0
    "$@" > /dev/null 2>&1 || rc=$?
    echo "$rc"
}

# Succeeds iff the command exits 1 with an output line matching $1
# (a crash exits 139 and fails this).
refused_with() {
    local want=$1 rc=0
    shift
    "$@" > refused.log 2>&1 || rc=$?
    [ "$rc" -eq 1 ] && grep -q "$want" refused.log
}

# Write misshapen_<kind>.json: BENCH_calib.json, still valid JSON,
# with the calib-tiny-lru-silent cell (or the context) bent out of
# shape.
misshape_baseline() {
    python3 - "$repo_root/BENCH_calib.json" "$1" \
        > "misshapen_$1.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
cells = doc["benchmarks"]
i = next(i for i, b in enumerate(cells)
         if b["name"] == "calib-tiny-lru-silent")
kind = sys.argv[2]
if kind == "cell-array":
    cells[i] = list(cells[i].items())
elif kind == "rate-string":
    cells[i]["outcomes"]["calibrated"]["rate"] = "1"
elif kind == "no-trials":
    del cells[i]["trials"]
elif kind == "negative-tolerance":
    doc["context"]["rate_tolerance"] = -0.5
elif kind == "unknown-cell":
    cells.append(dict(cells[i], name="calib-no-such-cell"))
json.dump(doc, sys.stdout)
PY
}

# Write flipped_<suite>.json: the committed baseline with one gated
# rate of one cell flipped (0 <-> 1).
flip_baseline() {
    python3 - "$repo_root/BENCH_$1.json" "$2" "$3" \
        > "flipped_$1.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
node = next(b for b in doc["benchmarks"] if b["name"] == sys.argv[2])
*path, leaf = sys.argv[3].split("/")
for key in path:
    node = node[key]
node[leaf] = 1 - node[leaf]
json.dump(doc, sys.stdout)
PY
}

gate_must_fail() {
    # A selection that matches nothing must fail, not write an empty
    # suite that looks like a passing run.
    [ "$(exit_code ./bench_suite --suite=scenarios --scenario=, \
        --json-out=empty.json)" -ne 0 ] ||
        fail "empty scenario selection unexpectedly succeeded"
    [ "$(exit_code ./bench_suite --suite=scenarios \
        --scenario=definitely-missing)" -ne 0 ] ||
        fail "unknown scenario unexpectedly succeeded"
    [ "$(exit_code ./bench_suite --suite=calib \
        --scenario=build-bins-tiny-lru-silent)" -eq 2 ] ||
        fail "off-suite cell not rejected with exit 2"
    # The band gates can fail, for both result types.
    flip_baseline calib calib-tiny-lru-silent outcomes/calibrated/rate
    refused_with "^FAIL calib-tiny-lru-silent/calibrated" \
        ./bench_suite --suite=calib --smoke \
        --scenario=calib-tiny-lru-silent --json-out=flip_calib.json \
        --baseline=flipped_calib.json ||
        fail "calib band gate accepted a flipped rate"
    flip_baseline e2e campaign-fork-tiny-silent-96 \
        campaign/fleet_success_rate
    refused_with "^FAIL campaign-fork-tiny-silent-96/fleet_success_rate" \
        ./bench_suite --suite=e2e --smoke \
        --scenario=campaign-fork-tiny-silent-96 \
        --json-out=flip_e2e.json --baseline=flipped_e2e.json ||
        fail "e2e band gate accepted a flipped rate"
    # An unparsable baseline is a message and exit 1, never a crash:
    # nesting far past the parser's depth cap, and a truncated file.
    python3 -c 'print("[" * 100000)' > deep_baseline.json
    head -c 4096 "$repo_root/BENCH_calib.json" > truncated_calib.json
    local bad
    for bad in deep_baseline.json truncated_calib.json; do
        refused_with "^baseline: .*JSON parse error" \
            ./bench_suite --suite=calib --smoke \
            --scenario=calib-tiny-lru-silent --json-out=refused.json \
            --baseline="$bad" ||
            fail "baseline $bad not refused with a message and exit 1"
    done
    # A baseline that parses but has the wrong shape is refused with a
    # message naming what is wrong, never gated against or skipped.
    local kind want
    for kind in cell-array rate-string no-trials negative-tolerance \
                unknown-cell; do
        case "$kind" in
          cell-array) want="^baseline .*benchmarks\[[0-9]*\] is not an object" ;;
          rate-string) want="^FAIL calib-tiny-lru-silent/calibrated: a number in the run, no number" ;;
          no-trials) want="^baseline .*has no whole \"trials\"" ;;
          negative-tolerance) want="^baseline .*context.rate_tolerance is not a number >= 0" ;;
          unknown-cell) want="^baseline .*unknown cell 'calib-no-such-cell'" ;;
        esac
        misshape_baseline "$kind"
        refused_with "$want" ./bench_suite --suite=calib --smoke \
            --scenario=calib-tiny-lru-silent --json-out=refused.json \
            --baseline="misshapen_$kind.json" ||
            fail "misshapen baseline ($kind) not refused with a message"
    done
}

for gate in "${gates[@]}"; do
    echo "== gate: $gate =="
    case "$gate" in
      harness) gate_harness ;;
      matrix) gate_matrix ;;
      hotpath) gate_hotpath ;;
      scalar-flip) gate_scalar_flip ;;
      e2e) gate_suite e2e ;;
      resume) gate_resume ;;
      fullscale) gate_fullscale ;;
      calib) gate_suite calib ;;
      defense) gate_suite defense ;;
      traffic) gate_suite traffic ;;
      must-fail) gate_must_fail ;;
      *) fail "unknown gate '$gate'" ;;
    esac
done
echo "bench_gates: all gates passed (${gates[*]})"
