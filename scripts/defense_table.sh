#!/usr/bin/env bash
# Every defense kind on the paper-scale label flip, as one CSV on stdout.
#
#     scripts/defense_table.sh [REV] > table.csv
#
# Runs `lomarlab run` on perfbench/workloads/paper_lomar.yaml (150 clean
# clients, 60 colluders flipping 7 -> 1) with each of the six defense kinds,
# at dataset radius 3 and 6, at seeds 1, 2 and 3, for 20 rounds: 36 runs,
# about 0.5-1 s of CPU a round. The kind, radius, seed and round count are set
# by overriding those keys of the workload's config; nothing else changes.
# With REV, the runs use REV's source tree (extracted with `git archive`);
# without it, the working tree's. Both read the working tree's workload file.
#
# One row per run: defense, radius, seed, the final overall and target
# accuracy, the per-round mean clean-kept and colluder-kept rates, and the
# last round's AUC (empty for a defense that gives no scores).
set -euo pipefail
export OPENBLAS_NUM_THREADS=1

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
src="$root/src"
if (( $# > 0 )); then
    mkdir -p "$tmp/base"
    git -C "$root" archive "$1" | tar -x -C "$tmp/base"
    src="$tmp/base/src"
fi

echo "defense,radius,seed,final_overall_acc,final_target_acc,clean_kept_rate,colluder_kept_rate,auc"
for defense in none lomar krum median foolsgold fg_krum; do
    for radius in 3 6; do
        for seed in 1 2 3; do
            python3 - "$root/perfbench/workloads/paper_lomar.yaml" "$tmp/config.yaml" \
                "$defense" "$radius" "$seed" <<'EOF'
import sys

import yaml

workload, dest, defense, radius, seed = sys.argv[1:]
cfg = yaml.safe_load(open(workload))
cfg.update(rounds=20, seed=int(seed))
cfg["defense"] = {**cfg["defense"], "kind": defense}
cfg["dataset"] = {**cfg["dataset"], "radius": float(radius)}
open(dest, "w").write(yaml.safe_dump(cfg))
EOF
            PYTHONPATH="$src" python3 -m lomarlab run --config "$tmp/config.yaml" --out "$tmp/run" > /dev/null
            python3 - "$tmp/run/summary.json" "$defense" "$radius" "$seed" <<'EOF'
import json
import sys

summary = json.load(open(sys.argv[1]))
final, rates, auc = summary["final"], summary["mean_rates"], summary["auc"]
print(",".join(sys.argv[2:] + [repr(final["overall_acc"]), repr(final["target_acc"]),
                               repr(rates["clean_kept_rate"]), repr(rates["malicious_kept_rate"]),
                               "" if auc is None else repr(auc)]))
EOF
            rm -rf "$tmp/run"
        done
    done
done
