"""Aggregation rules: plain FedAvg and the robust baselines.

Every rule maps (joint, round) to an AggregationResult: the new joint model,
a kept mask over the round's rows, and per-row scores where the rule ranks
clients (Krum: negated distance scores, FoolsGold: credibility weights). A
defense that thresholds its scores also fills in the epsilon and bandwidth it
used. FedAvg gives every update equal weight, because every client of a run
trains an equal shard; the filtered variant drops flagged clients without
renormalizing, so removed weight simply vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lomar import sq_dist_matrix
from .models import ParamVector, Round

FG_KRUM_ORDERS = ("krum_first", "fg_first")


@dataclass
class AggregationResult:
    new_joint: ParamVector
    # kept and scores hold one entry per row of the round the rule was given.
    kept: np.ndarray
    # Diagnostic scores where the rule produces them (Krum: negated distance
    # scores, FoolsGold: credibility weights); None otherwise.
    scores: np.ndarray | None = None
    # Threshold and bandwidth of a density defense (LoMar); None otherwise.
    epsilon_used: float | None = None
    h_used: float | None = None


def _apply_weights(joint: ParamVector, rnd: Round, weights, scores=None, order=None) -> AggregationResult:
    """The one weighted sum: add w * delta to the joint for every positive weight.

    weights holds one entry per row. Rows are visited in `order` (default: the
    round's order), which fixes the summation order and so the bits of the
    result. The positive-weight rows are the kept rows.
    """
    if rnd.layout != joint.layout:
        raise ValueError("update layout does not match the joint model's")
    weights = np.asarray(weights, dtype=np.float64)
    values = joint.values.copy()
    for row in range(len(weights)) if order is None else order:
        if weights[row] > 0:
            values = values + weights[row] * rnd.deltas[row]
    return AggregationResult(ParamVector(values, joint.layout), weights > 0, scores)


def weighted_aggregate(joint: ParamVector, rnd: Round, kept) -> AggregationResult:
    """FedAvg over the whole round, with the rows outside `kept` left out, added to the joint.

    kept is a boolean mask over the round's rows. FedAvg's weight n_k / n is
    1 / len(rnd.ids), since every shard is equal; a dropped client's weight
    leaves the sum and is not spread over the kept ones.
    """
    kept = np.asarray(kept, dtype=bool)
    if kept.shape != rnd.ids.shape:
        raise ValueError(f"kept mask of shape {kept.shape} for {len(rnd.ids)} updates")
    return _apply_weights(joint, rnd, np.where(kept, 1.0 / len(rnd.ids), 0.0))


def fedavg(joint: ParamVector, rnd: Round) -> AggregationResult:
    """Defenseless average of every update, with equal weights because shards are equal."""
    return weighted_aggregate(joint, rnd, np.ones(len(rnd.ids), dtype=bool))


def krum_window(n: int, assumed_malicious: int) -> int:
    """Krum's peer window over n clients, n - assumed_malicious - 2; a ValueError below 1."""
    window = n - assumed_malicious - 2
    if window < 1:
        raise ValueError(f"krum needs n - assumed_malicious - 2 >= 1, got n={n}, assumed={assumed_malicious}")
    return window


def _krum_select(rnd: Round, assumed_malicious: int):
    """Multi-Krum survivors as row positions, best first, and every row's negated score.

    A client's score is the summed squared distance to its closest
    n - assumed_malicious - 2 peers; floor(n - 0.5*assumed_malicious - 2)
    clients survive (at least one). Ties break by lower client id, and a NaN
    score ranks last.
    """
    n = len(rnd.ids)
    if assumed_malicious < 0:
        raise ValueError("assumed_malicious must be >= 0")
    window = krum_window(n, assumed_malicious)
    d = sq_dist_matrix(rnd.deltas)
    np.fill_diagonal(d, np.inf)
    totals = np.sum(np.sort(d, axis=1)[:, :window], axis=1)
    take = max(int(math.floor(n - 0.5 * assumed_malicious - 2)), 1)
    return np.lexsort((rnd.ids, totals))[:take], -totals


def krum(joint: ParamVector, rnd: Round, assumed_malicious: int) -> AggregationResult:
    """Multi-Krum (see _krum_select): keep the lowest-scoring clients, average them equally."""
    chosen, scores = _krum_select(rnd, assumed_malicious)
    weights = np.zeros(len(rnd.ids))
    weights[chosen] = 1.0 / len(chosen)
    return _apply_weights(joint, rnd, weights, scores)


def coordinate_median(joint: ParamVector, rnd: Round) -> AggregationResult:
    """Coordinate-wise median of the deltas (even cohorts average the middle pair)."""
    if rnd.layout != joint.layout:
        raise ValueError("update layout does not match the joint model's")
    return AggregationResult(ParamVector(joint.values + np.median(rnd.deltas, axis=0), joint.layout),
                             np.ones(len(rnd.ids), dtype=bool))


def _foolsgold_weights(vectors: np.ndarray) -> np.ndarray:
    """Memoryless FoolsGold credibility weights in [0, 1].

    Cosine similarity -> pardoning rescale -> 1 - max similarity -> logit
    recentering at 0.5 -> clip. Pardoning scales client i's similarity to j
    by maxcs[i] / maxcs[j] wherever i's row maximum is below j's.
    """
    norms = np.sqrt(np.sum(vectors ** 2, axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    unit = vectors / safe[:, None]
    cs = unit @ unit.T
    cs[norms == 0, :] = 0.0
    cs[:, norms == 0] = 0.0
    np.fill_diagonal(cs, 0.0)

    maxcs = cs.max(axis=1)
    rows, cols = np.nonzero(maxcs[:, None] < maxcs[None, :])
    cs[rows, cols] *= maxcs[rows] / maxcs[cols]
    wv = np.clip(1.0 - cs.max(axis=1), 0.0, 1.0)

    with np.errstate(divide="ignore"):
        wv = np.log(wv / (1.0 - wv)) + 0.5
    return np.clip(np.nan_to_num(wv, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)


def foolsgold(joint: ParamVector, rnd: Round) -> AggregationResult:
    """Similarity-based reweighting: near-duplicate cohorts lose their weight.

    The new joint adds the credibility-weighted average of the deltas
    (weights normalized by their sum); an all-zero weight vector leaves the
    joint unchanged. A row holding a NaN or inf gets weight 0, and the other
    rows are weighted and summed as in the round without it.
    """
    finite = np.isfinite(rnd.deltas).all(axis=1)
    wv = np.zeros(len(finite))
    if finite.any():
        wv[finite] = _foolsgold_weights(rnd.deltas if finite.all() else rnd.deltas[finite])
    total = float(wv[finite].sum())
    return _apply_weights(joint, rnd, wv / total if total > 0 else wv, scores=wv)


def fg_krum(joint: ParamVector, rnd: Round, assumed_malicious: int,
            order: str = "krum_first") -> AggregationResult:
    """FoolsGold and Krum composed.

    krum_first: Krum selects survivors, FoolsGold reweights them best first.
    fg_first: FoolsGold weights everyone, Krum picks among the positive-weight
    clients, and the survivors are summed best first with their renormalized
    credibility weights. Fewer than three positive-weight clients leave the
    FoolsGold result as is; otherwise Krum assumes at most (positive count - 3)
    of them are malicious.
    """
    if order not in FG_KRUM_ORDERS:
        raise ValueError(f"unknown order {order!r}")

    if order == "krum_first":
        chosen, scores = _krum_select(rnd, assumed_malicious)
        inner = foolsgold(joint, rnd.select(chosen))
        kept = np.zeros(len(rnd.ids), dtype=bool)
        kept[chosen] = inner.kept
        return AggregationResult(inner.new_joint, kept, scores)

    inner = foolsgold(joint, rnd)
    positive = np.flatnonzero(inner.kept)
    if len(positive) < 3:
        return inner
    chosen = positive[_krum_select(rnd.select(positive), min(assumed_malicious, len(positive) - 3))[0]]
    total = sum(inner.scores[chosen].tolist())  # left to right, as a loop over the survivors
    weights = np.zeros(len(rnd.ids))
    weights[chosen] = inner.scores[chosen] / total
    return _apply_weights(joint, rnd, weights, inner.scores, order=chosen)
