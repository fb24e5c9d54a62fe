#!/usr/bin/env bash
# Untraced perfbench pairs: a base revision against the working tree.
#
#     scripts/bench_pairs.sh BASE_REV WORKLOAD SEED...
#
# BASE_REV's tree is extracted with `git archive` into a temporary directory.
# For every SEED, `perfbench/run.py --workload WORKLOAD --seed SEED --trace 0`
# runs once on each tree, for BENCHMARK.json's run_seconds, one after the
# other. The base runs first in the 1st, 3rd, ... pair and the working tree
# first in the others. Each run's result file is copied to
# .perfbench_out/pairs/WORKLOAD/{base,change}-seedSEED.json in the working tree.
#
# Prints every pair's end-to-end metrics as it finishes, then, per metric, each
# side's median and interquartile range (inclusive quartiles), the relative
# change of medians (change / base - 1, signed so that worse is positive) and
# the number of pairs the working tree won; ties count for neither side. A
# metric whose relative change exceeds its BENCHMARK.json bound is flagged
# WORSE. Stops at the first run that fails.
set -euo pipefail

usage="usage: scripts/bench_pairs.sh BASE_REV WORKLOAD SEED..."
base_rev=${1:?$usage}
workload=${2:?$usage}
shift 2
(( $# > 0 )) || { echo "$usage" >&2; exit 2; }
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
keep="$root/.perfbench_out/pairs/$workload"
mkdir -p "$tmp/base" "$keep"
git -C "$root" archive "$base_rev" | tar -x -C "$tmp/base"
seconds=$(python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$root/BENCHMARK.json")

# run SIDE SEED: one untraced perfbench run on SIDE's tree, its result kept.
run() {
    local tree=$root
    [[ $1 == base ]] && tree="$tmp/base"
    (cd "$tree" && python3 perfbench/run.py --workload "$workload" --seed "$2" --trace 0 \
        --seconds "$seconds" > /dev/null)
    cp "$tree/.perfbench_out/$workload/result-seed$2-trace0.json" "$keep/$1-seed$2.json"
}

# report pair SEED | report summary SEED...: one pair's metrics, or all pairs summed up.
report() {
    python3 - "$root/BENCHMARK.json" "$keep" "$@" <<'EOF'
import json
import math
import statistics
import sys
from pathlib import Path

declared = json.loads(Path(sys.argv[1]).read_text())["end_to_end"]
keep, mode, seeds = Path(sys.argv[2]), sys.argv[3], sys.argv[4:]


def metrics(side, seed):
    return json.loads((keep / f"{side}-seed{seed}.json").read_text())["metrics"]


if mode == "pair":
    base, change = metrics("base", seeds[0]), metrics("change", seeds[0])
    print(f"{'pair seed ' + seeds[0]:26s} {'base':>24s} {'change':>24s}")
    for m in declared:
        print(f"  {m['name']:24s} {base[m['name']]!r:>24s} {change[m['name']]!r:>24s}")
    sys.exit(0)
pairs = [(metrics("base", s), metrics("change", s)) for s in seeds]
print(f"{f'{len(pairs)} pairs':22s} {'base median':>14s}{'iqr':>12s} {'change median':>14s}{'iqr':>12s}"
      f" {'worse by':>10s}  won")
for m in declared:
    name, sign = m["name"], 1 if m["better"] == "lower" else -1
    row, medians = [f"{name:22s}"], []
    for side in (0, 1):
        values = [p[side][name] for p in pairs]
        q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else [values[0]] * 3
        medians.append(statistics.median(values))
        row.append(f"{medians[-1]:14.6g}{q[2] - q[0]:12.4g}")
    diff = sign * (medians[1] - medians[0])
    worse = 0.0 if diff == 0 else diff / abs(medians[0]) if medians[0] else math.copysign(math.inf, diff)
    won = sum(sign * (change[name] - base[name]) < 0 for base, change in pairs)
    flag = f"  WORSE than bound {m['bound']:g}" if worse > m["bound"] else ""
    print(" ".join(row) + f" {worse:+10.2%}  {won}/{len(pairs)}{flag}")
EOF
}

i=0
for seed in "$@"; do
    if (( i++ % 2 == 0 )); then run base "$seed"; run change "$seed"
    else run change "$seed"; run base "$seed"; fi
    report pair "$seed"
done
report summary "$@"
