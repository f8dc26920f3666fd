#!/usr/bin/env bash
# Runs criterion groups and emits one machine-readable summary file per
# group. With no arguments it runs exactly the groups CI gates against a
# committed baseline (e6 state-space build, e17 symbolic engine, e18
# variable ordering, e19 verifier-session reuse, e20 worklist leadsto,
# e22 verification service, e23 compositional verification); otherwise
# the groups passed as arguments. Each summary is
# BENCH_<group>.json, a JSON array of {id, median_ns, mean_ns, min_ns,
# samples, iters_per_sample, elements} records (the vendored criterion
# shim appends one object per benchmark when CRITERION_SUMMARY_JSON is
# set). The script fails if any summary it writes contains no benchmark
# records — an empty artifact means the group silently did not run.
#
#   scripts/bench.sh                 # e6 + e17 + e18 + e19 + e20 + e22 + e23
#   scripts/bench.sh e2_safety e11_projection
set -euo pipefail

cd "$(dirname "$0")/.."

groups=("$@")
if [ ${#groups[@]} -eq 0 ]; then
    groups=(e6_statespace e17_symbolic e18_reorder e19_session e20_leadsto e22_serve e23_compose)
fi

for group in "${groups[@]}"; do
    raw="$(mktemp)"
    out="BENCH_${group}.json"
    echo "== ${group} -> ${out}"
    CRITERION_SUMMARY_JSON="$raw" cargo bench -q -p composition-bench --bench "$group"
    # jsonl -> json array
    {
        echo '['
        sed '$!s/$/,/' "$raw"
        echo ']'
    } > "$out"
    rm -f "$raw"
    count="$(grep -c '"id"' "$out" || true)"
    if [ "$count" -eq 0 ]; then
        echo "error: ${out} is empty (no benchmark records for ${group})" >&2
        exit 1
    fi
    echo "   ${count} benchmark(s) summarized"
done
