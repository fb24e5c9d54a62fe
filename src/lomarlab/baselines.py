"""Aggregation rules: plain FedAvg and the robust baselines.

Every rule maps (joint, updates) to an AggregationResult: the new joint model,
the kept client ids, each kept client's weight, and per-client scores where
the rule ranks clients (Krum: negated distance scores, FoolsGold: credibility
weights). A defense that thresholds its scores also fills in the epsilon and
bandwidth it used. FedAvg weights by sample counts over the full cohort; the
filtered variant drops flagged clients without renormalizing, so removed
weight simply vanishes (the renormalize flag restores it for ablations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lomar import sq_dist_matrix
from .models import ClientUpdate
from .params import ParamVector

FG_KRUM_ORDERS = ("krum_first", "fg_first")


@dataclass
class AggregationResult:
    new_joint: ParamVector
    kept_clients: list[int]
    per_client_weight: dict[int, float]
    # Per-client diagnostic scores where the rule produces them (Krum:
    # negated distance scores, FoolsGold: credibility weights); None otherwise.
    scores: dict[int, float] | None = None
    # Threshold and bandwidth of a density defense (LoMar); None otherwise.
    epsilon_used: float | None = None
    h_used: float | None = None


def _check_updates(joint: ParamVector, updates: list[ClientUpdate]):
    if not updates:
        raise ValueError("no updates to aggregate")
    ids = [u.client_id for u in updates]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate client ids")
    for u in updates:
        if u.delta.layout != joint.layout:
            raise ValueError("update layout does not match the joint model")


def weighted_aggregate(joint: ParamVector, updates: list[ClientUpdate], kept_ids,
                       renormalize: bool = False) -> AggregationResult:
    """Sample-count-weighted average of the kept updates added to the joint.

    Weights are num_samples over the total across ALL submitted updates;
    dropping a client removes its weight from the sum unless renormalize is
    set, in which case weights are recomputed over the kept cohort only.
    """
    _check_updates(joint, updates)
    kept = set(kept_ids)
    unknown = kept - {u.client_id for u in updates}
    if unknown:
        raise ValueError(f"kept ids not among updates: {sorted(unknown)}")
    base = [u for u in updates if u.client_id in kept] if renormalize else updates
    total = sum(u.num_samples for u in base)
    values = joint.values.copy()
    weights = {}
    for u in updates:
        if u.client_id not in kept:
            continue
        alpha = u.num_samples / total
        weights[u.client_id] = alpha
        values = values + alpha * u.delta.values
    return AggregationResult(
        new_joint=ParamVector(values, joint.layout),
        kept_clients=sorted(kept),
        per_client_weight=weights,
    )


def fedavg(joint: ParamVector, updates: list[ClientUpdate]) -> AggregationResult:
    """Defenseless sample-weighted average of every update."""
    return weighted_aggregate(joint, updates, [u.client_id for u in updates])


def _krum_select(updates: list[ClientUpdate], assumed_malicious: int) -> tuple[list[int], dict[int, float]]:
    """Multi-Krum survivors, best first, and every client's negated score.

    A client's score is the summed squared distance to its closest
    n - assumed_malicious - 2 peers; floor(n - 0.5*assumed_malicious - 2)
    clients survive (at least one). Ties break by lower client id.
    """
    n = len(updates)
    if assumed_malicious < 0:
        raise ValueError("assumed_malicious must be >= 0")
    window = n - assumed_malicious - 2
    if window < 1:
        raise ValueError(f"krum needs n - assumed_malicious - 2 >= 1, got n={n}, assumed={assumed_malicious}")
    d = sq_dist_matrix(np.stack([u.delta.values for u in updates]))
    np.fill_diagonal(d, np.inf)
    nearest = np.sort(d, axis=1)[:, :window]
    scores = dict(zip([u.client_id for u in updates], np.sum(nearest, axis=1).tolist()))
    take = max(int(math.floor(n - 0.5 * assumed_malicious - 2)), 1)
    chosen = sorted(scores, key=lambda c: (scores[c], c))[:take]
    return chosen, {c: -s for c, s in scores.items()}


def krum(joint: ParamVector, updates: list[ClientUpdate], assumed_malicious: int) -> AggregationResult:
    """Multi-Krum (see _krum_select): keep the lowest-scoring clients, average them equally."""
    _check_updates(joint, updates)
    chosen, scores = _krum_select(updates, assumed_malicious)
    take = len(chosen)
    kept = set(chosen)
    values = joint.values.copy()
    for u in updates:
        if u.client_id in kept:
            values = values + u.delta.values / take
    return AggregationResult(
        new_joint=ParamVector(values, joint.layout),
        kept_clients=sorted(kept),
        per_client_weight={c: 1.0 / take for c in chosen},
        scores=scores,
    )


def coordinate_median(joint: ParamVector, updates: list[ClientUpdate]) -> AggregationResult:
    """Coordinate-wise median of the deltas (even cohorts average the middle pair)."""
    _check_updates(joint, updates)
    med = np.median(np.stack([u.delta.values for u in updates]), axis=0)
    return AggregationResult(
        new_joint=ParamVector(joint.values + med, joint.layout),
        kept_clients=sorted(u.client_id for u in updates),
        per_client_weight={},
    )


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


def foolsgold(joint: ParamVector, updates: list[ClientUpdate]) -> AggregationResult:
    """Similarity-based reweighting: near-duplicate cohorts lose their weight.

    The new joint adds the credibility-weighted average of the deltas
    (weights normalized by their sum); an all-zero weight vector leaves the
    joint unchanged.
    """
    _check_updates(joint, updates)
    ids = [u.client_id for u in updates]
    vectors = np.stack([u.delta.values for u in updates])
    wv = _foolsgold_weights(vectors)
    total = float(wv.sum())
    values = joint.values.copy()
    weights = {}
    if total > 0:
        for i, u in enumerate(updates):
            w = wv[i] / total
            weights[u.client_id] = w
            if w > 0:
                values = values + w * u.delta.values
    else:
        weights = {c: 0.0 for c in ids}
    return AggregationResult(
        new_joint=ParamVector(values, joint.layout),
        kept_clients=sorted(c for c, w in weights.items() if w > 0),
        per_client_weight=weights,
        scores={ids[i]: float(wv[i]) for i in range(len(ids))},
    )


def fg_krum(joint: ParamVector, updates: list[ClientUpdate], assumed_malicious: int,
            order: str = "krum_first") -> AggregationResult:
    """FoolsGold and Krum composed.

    krum_first: Krum selects survivors, FoolsGold reweights them.
    fg_first: FoolsGold weights everyone, Krum picks among the positive-weight
    clients, and the survivors are averaged with their renormalized weights.
    Fewer than three positive-weight clients leave the FoolsGold result as is;
    otherwise Krum assumes at most (positive count - 3) of them are malicious.
    """
    _check_updates(joint, updates)
    if order not in FG_KRUM_ORDERS:
        raise ValueError(f"unknown order {order!r}")
    by_id = {u.client_id: u for u in updates}

    if order == "krum_first":
        chosen, scores = _krum_select(updates, assumed_malicious)
        return replace(foolsgold(joint, [by_id[c] for c in chosen]), scores=scores)

    inner = foolsgold(joint, updates)
    positive = [u for u in updates if inner.per_client_weight.get(u.client_id, 0.0) > 0]
    if len(positive) < 3:
        return inner
    chosen, _ = _krum_select(positive, min(assumed_malicious, len(positive) - 3))
    raw = {c: inner.scores[c] for c in chosen}
    total = sum(raw.values())
    values = joint.values.copy()
    weights = {}
    for c in chosen:
        w = raw[c] / total if total > 0 else 1.0 / len(chosen)
        weights[c] = w
        values = values + w * by_id[c].delta.values
    return AggregationResult(
        new_joint=ParamVector(values, joint.layout),
        kept_clients=sorted(chosen),
        per_client_weight=weights,
        scores=inner.scores,
    )
