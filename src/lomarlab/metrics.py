"""Evaluation: accuracy triple, filtering confusion counts, and ROC/AUC.

The accuracy triple separates the victim class (target), everything untouched
by the attack (other: all labels except target and source), and the overall
rate. ROC curves treat the defense score in the keep direction: at threshold
theta a client is called clean iff score >= theta, sensitivity is the kept
fraction of clean clients and 1 - specificity the kept fraction of malicious
ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelSpec, ParamVector, predict


@dataclass(frozen=True)
class RoundRecord:
    """One aggregation round's outcome; its fields are the rounds.csv columns, in order."""

    round: int
    overall_acc: float
    target_acc: float
    other_acc: float
    n_t: int  # clean kept
    n_f: int  # malicious kept
    m_t: int  # malicious dropped
    m_f: int  # clean dropped
    num_kept: int
    epsilon: float | None
    h: float | None


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    sensitivity: float
    one_minus_specificity: float


def eval_accuracy(joint: ParamVector, features: np.ndarray, labels: np.ndarray,
                  spec: ModelSpec, target_label: int | None, source_label: int | None):
    """(overall, target, other) accuracy on a test set.

    target is the accuracy restricted to target-label samples (the attack's
    victim class); other excludes both target and source labels. With no
    target configured both restricted values are NaN; an empty target subset
    is an error, an empty other subset yields NaN (a two-label task has no
    third class).
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape[0] == 0:
        raise ValueError("empty test set")
    pred = predict(joint, features, spec)
    hits = pred == labels
    overall = float(np.mean(hits))
    if target_label is None:
        return overall, float("nan"), float("nan")
    t_mask = labels == target_label
    if not np.any(t_mask):
        raise ValueError(f"test set has no samples of target label {target_label}")
    target = float(np.mean(hits[t_mask]))
    o_mask = ~t_mask
    if source_label is not None:
        o_mask &= labels != source_label
    other = float(np.mean(hits[o_mask])) if np.any(o_mask) else float("nan")
    return overall, target, other


def confusion_counts(kept, malicious):
    """(n_t, n_f, m_t, m_f): clean kept, malicious kept, malicious dropped, clean dropped.

    kept and malicious are aligned bool arrays, one entry per client.
    """
    kept, malicious = np.asarray(kept, dtype=bool), np.asarray(malicious, dtype=bool)
    if kept.shape != malicious.shape:
        raise ValueError(f"kept mask of shape {kept.shape} for {malicious.shape} clients")
    n_f, m_t = int(np.sum(kept & malicious)), int(np.sum(~kept & malicious))
    n_t, m_f = int(np.sum(kept & ~malicious)), int(np.sum(~kept & ~malicious))
    return n_t, n_f, m_t, m_f


def roc_from_scores(scores, malicious):
    """Sweep thresholds over the distinct scores; return (points, auc).

    scores and malicious are aligned arrays, one entry per client. Scores
    follow the keep direction (higher = cleaner). The sweep starts above the
    maximum (nothing kept) and ends at the minimum (everything kept), so the
    curve always spans (0,0) to (1,1). AUC is the share of clean-malicious
    pairs whose clean score is higher, a tie counting one half. Both roles
    must be present. NaN scores are rejected; ±inf scores sort as the
    extremes they are.
    """
    values, malicious = np.asarray(scores, dtype=np.float64), np.asarray(malicious, dtype=bool)
    if values.shape != malicious.shape:
        raise ValueError(f"{values.shape} scores for {malicious.shape} clients")
    num_malicious = int(malicious.sum())
    num_clean = len(malicious) - num_malicious
    if not num_clean or not num_malicious:
        raise ValueError("ROC needs both clean and malicious clients")
    if np.any(np.isnan(values)):
        raise ValueError("scores must not be NaN")

    # Distinct scores ascending; a client is kept at every threshold <= its score,
    # so counts accumulated from the top give the kept totals per threshold.
    thetas, level = np.unique(values, return_inverse=True)
    clean_at = np.bincount(level[~malicious], minlength=thetas.size)[::-1]
    malicious_at = np.bincount(level[malicious], minlength=thetas.size)[::-1]
    clean_kept, malicious_kept = np.cumsum(clean_at), np.cumsum(malicious_at)
    points = [RocPoint(float("inf"), 0.0, 0.0)]
    points += [RocPoint(theta, int(nc) / num_clean, int(nm) / num_malicious)
               for theta, nc, nm in zip(thetas[::-1].tolist(), clean_kept, malicious_kept)]

    # Twice the pair count: 2 per clean client above a malicious one, 1 per tie.
    twice_pairs = int(np.dot(malicious_at, 2 * clean_kept - clean_at))
    return points, twice_pairs / (2 * num_clean * num_malicious)
