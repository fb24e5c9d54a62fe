"""Poisoning attack generators.

Label flipping builds malicious shards whose flipped portion is drawn from one
source label and relabelled to the target; model poisoning additionally boosts
the trained delta by a constant factor so a small cohort dominates the average.
Malicious clients draw from the pool independently, so colluders overlap in
data and produce tightly clustered updates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ROLE_MALICIOUS, DataShard, major_count

ATTACK_KINDS = ("none", "label_flip", "model_poison")


@dataclass(frozen=True)
class AttackConfig:
    """Attack family plus its knobs.

    malicious_count is the number of injected clients; tau is the poisoned
    fraction within each malicious shard (the rest is uniform clean data).
    flip_pairs rewrite source-label samples to the target label; with several
    pairs the malicious cohort splits across them round-robin.
    """

    kind: str = "none"
    malicious_count: int = 0
    flip_pairs: tuple[tuple[int, int], ...] = ()
    tau: float = 1.0
    boost_factor: float = 10.0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind == "none":
            if self.malicious_count != 0:
                raise ValueError("attack kind 'none' cannot have malicious clients")
            return
        if self.malicious_count < 1:
            raise ValueError("need malicious_count >= 1 for an active attack")
        if not self.flip_pairs:
            raise ValueError("active attacks need at least one flip pair")
        for src, tgt in self.flip_pairs:
            if src == tgt:
                raise ValueError(f"flip pair ({src}, {tgt}) is a no-op")
            if src < 0 or tgt < 0:
                raise ValueError("flip labels must be nonnegative")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if self.boost_factor <= 0:
            raise ValueError("boost_factor must be > 0")

    def check_budget(self, num_clean: int):
        """Malicious cohort capped at 40% of the clean population."""
        if self.kind == "none":
            return
        cap = 0.4 * num_clean
        if self.malicious_count > cap:
            raise ValueError(f"malicious_count {self.malicious_count} exceeds the 0.4*N budget ({cap:.1f})")

    def pair_for(self, malicious_index: int) -> tuple[int, int]:
        return self.flip_pairs[malicious_index % len(self.flip_pairs)]


def make_flipped_shard(pool_labels: np.ndarray, samples: int, pair: tuple[int, int], tau: float, seed,
                       owner: int = -1) -> DataShard:
    """Build one malicious shard over the rows of a pool with these labels:
    ceil(tau*l) source-label samples relabelled to the target plus uniform
    untouched draws for the remainder.

    Draws are without replacement within this shard, and the rows stay in draw
    order (flipped first); raises when the source pool cannot cover the flipped
    portion.
    """
    pool_labels = np.asarray(pool_labels, dtype=np.int64)
    return _flipped_shard(pool_labels, np.flatnonzero(pool_labels == pair[0]), samples, pair, tau, seed,
                          owner)


def _flipped_shard(pool_labels: np.ndarray, source_idx: np.ndarray, samples: int, pair: tuple[int, int],
                   tau: float, seed, owner: int) -> DataShard:
    """make_flipped_shard over int64 pool labels, given the rows of its source label."""
    src, tgt = pair
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must be in (0, 1]")
    if samples < 1:
        raise ValueError("need samples >= 1")
    n_flip = major_count(tau, samples)
    n_rand = samples - n_flip

    rng = np.random.default_rng(seed)
    if len(source_idx) < n_flip:
        raise ValueError(f"source label {src} has {len(source_idx)} samples, need {n_flip}")
    flip_idx = rng.choice(source_idx, size=n_flip, replace=False)
    if n_rand:
        unflipped = np.ones(pool_labels.shape[0], dtype=bool)
        unflipped[flip_idx] = False
        remaining = np.flatnonzero(unflipped)
        if len(remaining) < n_rand:
            raise ValueError(f"pool too small for {n_rand} untouched draws after flipping {n_flip}")
        rand_idx = rng.choice(remaining, size=n_rand, replace=False)
    else:
        rand_idx = np.empty(0, dtype=np.int64)

    rows = np.concatenate([flip_idx, rand_idx])
    labels = np.concatenate([np.full(n_flip, tgt, dtype=np.int64), pool_labels[rand_idx]])
    return DataShard(rows, labels, owner=owner, role=ROLE_MALICIOUS)


def boost_update(delta: np.ndarray, boost_factor: float) -> np.ndarray:
    """Scale a trained delta so a small cohort outweighs the honest average."""
    if boost_factor <= 0:
        raise ValueError("boost_factor must be > 0")
    return delta * float(boost_factor)


def build_malicious_shards(attack: AttackConfig, pool_labels: np.ndarray, samples: int, seed_seq,
                           first_owner: int) -> list[DataShard]:
    """One flipped shard per malicious client, pairs assigned round-robin.

    seed_seq is a numpy SeedSequence; each shard gets an independent child
    stream keyed by its cohort index, so shard contents do not depend on
    construction order. Each source label's rows are found once.
    """
    if attack.kind == "none":
        return []
    pool_labels = np.asarray(pool_labels, dtype=np.int64)
    source_rows = {src: np.flatnonzero(pool_labels == src) for src, _ in attack.flip_pairs}
    shards = []
    for m in range(attack.malicious_count):
        child = np.random.SeedSequence(entropy=seed_seq.entropy, spawn_key=(*seed_seq.spawn_key, m))
        pair = attack.pair_for(m)
        shards.append(_flipped_shard(pool_labels, source_rows[pair[0]], samples, pair, attack.tau, child,
                                     first_owner + m))
    return shards
