#!/usr/bin/env bash
# Compare `lomarlab run --seed 7` between a base revision and the working tree.
#
#     scripts/compare_runs.sh BASE_REV
#
# BASE_REV's tree is extracted with `git archive` into a temporary directory.
# Every config variant written below runs once on each tree, 16 in all:
# configs/example.yaml, both perfbench workloads, and example.yaml with each of
# the 13 overrides listed in `variants` (`noreplace` is the one config whose
# partition draws without replacement; `minibatch` and `mlp_minibatch` train
# several steps per epoch with a short last batch, 200 = 3 x 64 + 8 rows;
# `foolsgold` and `fg_first` train that way too, on iid shards).
# Which variants shuffle: `local_train` shuffles a shard only when it spans
# several batches. `paper_lomar` (batch 20 over 600 rows), `minibatch`,
# `mlp_minibatch`, `foolsgold` and `fg_first` shuffle every epoch. Every other
# config trains full-batch in stored order (FedSGD): example.yaml and its
# other overrides (batch 512 over 200 rows, or 10 under `noreplace`) and
# `paper_fgkrum` (batch 600 over 600 rows). Only the first five exercise the
# shuffle.
# Each tree also runs `lomarlab sweep --param epsilon --grid 0.8,1.0 --seed 7`
# on example.yaml and reruns the config_resolved.yaml that its own example.yaml
# run wrote (the `resolved` entry).
# Both trees run the working tree's config files. The output directories are
# compared with `diff -r` and the stdout with `diff`, minus the "wrote <dir>"
# line; both diffs always run. Prints one line per variant (and one each for
# the sweep and the resolved rerun), then the head of each non-empty diff of a
# variant that differs, and exits 1 if any differs.
# Both sides run one OpenBLAS thread, the count the CLI pins itself to, so a
# base revision without that pin runs under the same contract as the head.
set -euo pipefail
export OPENBLAS_NUM_THREADS=1

base_rev=${1:?usage: scripts/compare_runs.sh BASE_REV}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base" "$tmp/configs" "$tmp/out"
git -C "$root" archive "$base_rev" | tar -x -C "$tmp/base"

python3 - "$root" "$tmp/configs" <<'EOF'
import sys
from pathlib import Path

import yaml

root, dest = Path(sys.argv[1]), Path(sys.argv[2])
example = yaml.safe_load((root / "configs/example.yaml").read_text())
# At example.yaml's own settings FoolsGold keeps no client, so its outputs would
# not depend on the data or on training. With several steps per epoch on iid
# shards it keeps some clean clients (from round 28 on at seed 7).
FG_TRAINING = {"model": {"batch_size": 64, "local_epochs": 2}, "partition": {"lambda": 0.0}}
variants = {
    "none": {"defense": {"kind": "none"}},
    "krum": {"defense": {"kind": "krum"}},
    "median": {"defense": {"kind": "median"}},
    "foolsgold": {"defense": {"kind": "foolsgold"}, **FG_TRAINING},
    "fg_krum": {"defense": {"kind": "fg_krum"}},
    "fg_first": {"defense": {"kind": "fg_krum", "fg_krum_order": "fg_first"}, **FG_TRAINING},
    "gaussian_kernel": {"defense": {"kernel": "gaussian"}},
    "mlp": {"model": {"kind": "mlp", "hidden_dim": 5}},
    "model_poison_krum": {"attack": {"kind": "model_poison"}, "defense": {"kind": "krum"}},
    "spread0": {"dataset": {"spread": 0}},
    "noreplace": {"partition": {"samples_per_client": 10, "allow_replacement": False}},
    "minibatch": {"model": {"batch_size": 64, "local_epochs": 2}},
    "mlp_minibatch": {"model": {"kind": "mlp", "hidden_dim": 5, "batch_size": 64, "local_epochs": 2}},
}
(dest / "example.yaml").write_text(yaml.safe_dump(example))
for workload in sorted((root / "perfbench/workloads").glob("*.yaml")):
    (dest / workload.name).write_text(workload.read_text())
for name, override in variants.items():
    cfg = {**example}
    for key, value in override.items():
        cfg[key] = {**cfg[key], **value} if isinstance(value, dict) else value
    (dest / f"{name}.yaml").write_text(yaml.safe_dump(cfg))
EOF

status=0
# lomarlab SIDE ARGS...: the CLI on SIDE's source tree, minus the "wrote" line.
lomarlab() {
    local src="$tmp/base/src"
    [[ $1 == head ]] && src="$root/src"
    shift
    PYTHONPATH="$src" python3 -m lomarlab "$@" | grep -v '^wrote '
}
# compare NAME: diff the output directories and the stdout of both sides, both
# every time, and print the head of each diff that is not empty.
compare() {
    local name=$1 differs=0 part
    diff -r "$tmp/out/base/$name" "$tmp/out/head/$name" > "$tmp/out/$name.files.diff" || differs=1
    diff "$tmp/out/base-$name.stdout" "$tmp/out/head-$name.stdout" > "$tmp/out/$name.stdout.diff" || differs=1
    if (( differs )); then
        echo "DIFFERS  $name"
        for part in files stdout; do
            if [[ -s $tmp/out/$name.$part.diff ]]; then
                echo "  $part:"
                head -n 20 "$tmp/out/$name.$part.diff"
            fi
        done
        status=1
    else
        echo "same     $name"
    fi
}

for config in "$tmp"/configs/*.yaml; do
    name=$(basename "$config" .yaml)
    for side in base head; do
        lomarlab $side run --config "$config" --seed 7 --out "$tmp/out/$side/$name" \
            > "$tmp/out/$side-$name.stdout"
    done
    compare "$name"
done

for side in base head; do
    lomarlab $side sweep --config "$tmp/configs/example.yaml" --param epsilon --grid 0.8,1.0 \
        --seed 7 --out "$tmp/out/$side/sweep" > "$tmp/out/$side-sweep.stdout"
done
compare sweep

for side in base head; do
    lomarlab $side run --config "$tmp/out/$side/example/config_resolved.yaml" --seed 7 \
        --out "$tmp/out/$side/resolved" > "$tmp/out/$side-resolved.stdout"
done
compare resolved
exit $status
