"""Correctness checks on one experiment's output directory.

The checks read the files back and recompute what they can without lomarlab:
the per-round confusion counts must balance, the mean rates in summary.json
must follow from rounds.csv, the kept column of scores.csv must match the last
round, and the AUC in summary.json must equal the Mann-Whitney statistic of
the scores in scores.csv.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

OUTPUT_FILES = ("rounds.csv", "summary.json", "scores.csv", "roc_points.csv", "config_resolved.yaml")


def hash_outputs(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file that exists."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in OUTPUT_FILES if (out_dir / name).exists()}


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def mann_whitney_auc(clean: list[float], malicious: list[float]) -> float:
    """P(clean score > malicious score), ties counting one half."""
    wins = sum((c > m) + 0.5 * (c == m) for c in clean for m in malicious)
    return wins / (len(clean) * len(malicious))


def check_outputs(out_dir: Path, rounds: int, seed: int) -> list[str]:
    """Return the problems found; an empty list means the outputs are consistent."""
    missing = [n for n in OUTPUT_FILES if not (out_dir / n).exists()]
    if missing:
        return [f"missing output files: {missing}"]
    problems = []
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    num_clean, num_mal = summary["num_clean"], summary["num_malicious"]
    if summary["seed"] != seed or summary["rounds"] != rounds:
        problems.append(f"summary.json has seed {summary['seed']} rounds {summary['rounds']}")

    rows = _rows(out_dir / "rounds.csv")
    if [int(r["round"]) for r in rows] != list(range(1, rounds + 1)):
        return problems + [f"rounds.csv does not list rounds 1..{rounds}"]
    for r in rows:
        n_t, n_f, m_t, m_f = (int(r[k]) for k in ("n_t", "n_f", "m_t", "m_f"))
        if n_t + m_f != num_clean or n_f + m_t != num_mal or int(r["num_kept"]) != n_t + n_f:
            problems.append(f"round {r['round']}: confusion counts do not balance")
    rates = summary["mean_rates"]
    for key, col, total in (("clean_kept_rate", "n_t", num_clean), ("malicious_dropped_rate", "m_t", num_mal)):
        expected = sum(int(r[col]) for r in rows) / rounds / total
        if not math.isclose(rates[key], expected, rel_tol=1e-12):
            problems.append(f"{key} {rates[key]} != {expected} from rounds.csv")
    last = rows[-1]
    for key in ("overall_acc", "target_acc"):
        if float(last[key]) != summary["final"][key]:
            problems.append(f"final {key} differs between rounds.csv and summary.json")

    scores = _rows(out_dir / "scores.csv")
    clean = [float(s["score"]) for s in scores if s["role"] == "clean"]
    malicious = [float(s["score"]) for s in scores if s["role"] == "malicious"]
    if len(clean) != num_clean or len(malicious) != num_mal:
        problems.append(f"scores.csv has {len(clean)} clean and {len(malicious)} malicious rows")
    kept = {role: sum(int(s["kept"]) for s in scores if s["role"] == role) for role in ("clean", "malicious")}
    if (kept["clean"], kept["malicious"]) != (int(last["n_t"]), int(last["n_f"])):
        problems.append("scores.csv kept column disagrees with the last round")
    if clean and malicious:
        auc = mann_whitney_auc(clean, malicious)
        if summary["auc"] is None or abs(summary["auc"] - auc) > 1e-9:
            problems.append(f"auc {summary['auc']} != Mann-Whitney {auc}")

    roc = _rows(out_dir / "roc_points.csv")
    ends = [(float(p["sensitivity"]), float(p["one_minus_specificity"])) for p in (roc[0], roc[-1])]
    if ends != [(0.0, 0.0), (1.0, 1.0)]:
        problems.append(f"roc_points.csv does not run from (0,0) to (1,1): {ends}")
    return problems
