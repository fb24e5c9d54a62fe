"""Datasets and client-side partitioning.

Sources: the IDX image format (big-endian magic + dims + raw bytes, pixels
scaled to [0,1]) and a synthetic Gaussian-blob task for desk-scale runs. The
partitioner hands each client a shard with a lambda-controlled bias toward one
major label: ceil(lambda*l) samples of that label plus uniform draws for the
rest. Draws are disjoint across clients while supply lasts; when a plan
oversubscribes the pool the remainder is drawn with replacement and the shard
is flagged. A shard holds row indices into the run's one feature array and
never the array itself: local training takes that pool once for every shard.
Every pool is float32, synthetic draws and IDX pixels alike; local training
runs in float32 on it, and evaluation widens what it reads to float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049
ROLE_CLEAN = "clean"
ROLE_MALICIOUS = "malicious"

# Guard against float artifacts like 0.99 * 100 = 99.00000000000001 rounding
# an extra sample into a count: a major block, a flipped portion, a test set.
_COUNT_EPS = 1e-9

# Box-Muller pairs transformed per pass: a chunk's radius row, its angle row and the
# one float32 temporary are 256 KiB each, so all three stay in a 2 MiB L2 cache.
_BOX_MULLER_CHUNK = 65536

# Smallest queue window a pool draw scans: one more numpy pass costs about as much
# as scanning 1,024 more entries.
_POOL_WINDOW = 1024


class IdxFormatError(ValueError):
    pass


@dataclass
class DataShard:
    """One client's local training set: row indices into the run's float32 training
    pool, plus labels, which a malicious shard rewrites."""

    rows: np.ndarray
    labels: np.ndarray
    owner: int
    role: str = ROLE_CLEAN
    used_replacement: bool = False

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.rows.ndim != 1 or self.labels.ndim != 1:
            raise ValueError("rows and labels must be 1-D")
        if self.rows.shape[0] != self.labels.shape[0]:
            raise ValueError("rows/labels length mismatch")
        if len(self.rows) and self.rows.min() < 0:
            raise ValueError("negative row index")
        if self.role not in (ROLE_CLEAN, ROLE_MALICIOUS):
            raise ValueError(f"unknown role {self.role!r}")

    def __len__(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class PartitionPlan:
    """How to split a pool among clients: the config's `partition` section.

    lam is the major-label bias: each client's shard is ceil(lam * l) samples
    of its assigned major label plus uniform draws for the remainder. lam=0 is
    the homogeneous (iid) setting.
    """

    samples_per_client: int = 600
    lam: float = 0.0
    allow_replacement: bool = True

    def __post_init__(self):
        if self.samples_per_client < 1:
            raise ValueError("need samples_per_client >= 1")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lam must be in [0, 1)")


def _read_idx(path, magic: int, dims: int) -> tuple[list[int], bytes]:
    """An IDX file's `dims` header sizes and its payload of their product in bytes."""
    with open(path, "rb") as fh:
        head = fh.read(4 * (dims + 1))
        if len(head) < 4 * (dims + 1):
            raise IdxFormatError(f"{path}: truncated header")
        found, *shape = struct.unpack(f">{dims + 1}I", head)
        if found != magic:
            raise IdxFormatError(f"{path}: bad magic {found}, expected {magic}")
        size = math.prod(shape)
        raw = fh.read(size)
    if len(raw) != size:
        raise IdxFormatError(f"{path}: expected {size} payload bytes, got {len(raw)}")
    return shape, raw


def load_idx(images_path, labels_path):
    """Read an IDX image/label file pair.

    Returns (features, labels): features are float32 pixels k/255, rounded
    once from float32 k, flattened to (n, rows*cols); labels are int64.
    """
    (count, rows, cols), raw = _read_idx(images_path, IDX_IMAGE_MAGIC, 3)
    features = np.frombuffer(raw, dtype=np.uint8).astype(np.float32).reshape(count, rows * cols)
    features /= np.float32(255)
    (label_count,), raw = _read_idx(labels_path, IDX_LABEL_MAGIC, 1)
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise IdxFormatError(f"image count {count} != label count {label_count}")
    return features, labels


def _class_means(num_labels: int, input_dim: int, radius: float) -> np.ndarray:
    """Pairwise-distinct class centers, only in the dims they occupy (every other dim
    is 0): (num_labels, 2) on a circle in the first two dims, (num_labels, 1) on a line in 1-D."""
    if input_dim == 1:
        return (radius * np.arange(num_labels))[:, None]
    angles = 2.0 * np.pi * np.arange(num_labels) / num_labels
    return np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)


def check_synth(num_labels: int, input_dim: int, per_label_count: int, spread: float) -> None:
    """Reject synthetic sizes or spread out of range (DatasetConfig checks with it at load)."""
    if num_labels < 2 or input_dim < 1 or per_label_count < 1:
        raise ValueError("need num_labels >= 2, input_dim >= 1, per_label_count >= 1")
    if spread < 0:
        raise ValueError("spread must be >= 0")


def _uniforms_f32(words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """numpy's float32 uniforms from 32-bit generator outputs, (word >> 8) * 2**-24, into
    `out`; the words are shifted in place. This is the recipe of
    `Generator.random(dtype=np.float32)`, which takes one 32-bit output per uniform."""
    np.right_shift(words, 8, out=words)
    return np.multiply(words, np.float32(2 ** -24), out=out, dtype=np.float32)


def _standard_normal_f32(rng: np.random.Generator, size: int, spread: float) -> np.ndarray:
    """`size` float32 draws of spread times a standard normal, by the Box-Muller
    transform, as a view.

    rng must run on PCG64. Its next (size + 1) // 2 raw 64-bit words, read as 32-bit
    halves with the low half first, are the 32-bit outputs that
    rng.random(size + size % 2, dtype=np.float32) would read, and they leave rng in the
    same state. Of the uniforms made from them, the first half are radii
    sqrt(-2 log(1 - u)) and the second angles 2 pi u; _BOX_MULLER_CHUNK pairs a pass,
    they become spread r cos(theta) and spread r sin(theta) in the words' own memory.
    Each row's uniforms go through the one chunk-sized temporary, since a ufunc that
    casts onto its own input copies the input first.
    """
    half = (size + 1) // 2
    words = rng.bit_generator.random_raw(half).astype("<u8", copy=False).view("<u4").reshape(2, half)
    pairs = words.view(np.float32)
    tmp = np.empty(min(half, _BOX_MULLER_CHUNK), dtype=np.float32)
    for start in range(0, half, _BOX_MULLER_CHUNK):
        radius_words, angle_words = words[:, start:start + _BOX_MULLER_CHUNK]
        chunk = pairs[:, start:start + _BOX_MULLER_CHUNK]
        radius, angle = chunk
        u = tmp[:radius.shape[0]]
        np.subtract(np.float32(1), _uniforms_f32(radius_words, u), out=radius)
        np.log(radius, out=radius)
        radius *= np.float32(-2)
        np.sqrt(radius, out=radius)
        theta = _uniforms_f32(angle_words, u)
        theta *= np.float32(2 * np.pi)
        np.sin(theta, out=angle)
        cos = np.cos(theta, out=theta)
        angle *= radius
        radius *= cos
        chunk *= np.float32(spread)
    return pairs.reshape(-1)[:size]


def synth_gaussian(num_labels: int, input_dim: int, per_label_count: int, spread: float, seed,
                   radius: float = 3.0):
    """Isotropic Gaussian blobs, one per label, in shuffled order. Returns (features, labels).

    Row i is the center of labels[i] plus spread times the i-th noise draw, all in
    float32. The generator is PCG64 seeded with `seed` (an int, a sequence of ints or
    a SeedSequence; a Generator or a bit generator raises TypeError). The noise is
    drawn before the label shuffle, scaled as it is drawn, and shifted only in the
    dims the centers occupy, so the pool is the one array of its size. At spread 0
    the noise is not drawn.
    """
    check_synth(num_labels, input_dim, per_label_count, spread)
    rng = np.random.Generator(np.random.PCG64(seed))
    count = num_labels * per_label_count
    if spread > 0:
        features = _standard_normal_f32(rng, count * input_dim, spread).reshape(count, input_dim)
    else:
        features = np.zeros((count, input_dim), dtype=np.float32)
    labels = np.repeat(np.arange(num_labels, dtype=np.int64), per_label_count)[rng.permutation(count)]
    centers = _class_means(num_labels, input_dim, radius).astype(np.float32)
    features[:, :centers.shape[1]] += centers[labels]
    return features, labels


def major_count(lam: float, samples: int) -> int:
    """ceil(lam * samples) without float artifacts, and 0 at lam 0."""
    return int(np.ceil(lam * samples - _COUNT_EPS)) if lam > 0 else 0


class _Pool:
    """Sequential consumer over a permuted index set, skipping taken entries."""

    def __init__(self, indices: np.ndarray, taken: np.ndarray):
        self.queue = indices
        self.pos = 0
        self.taken = taken

    def draw(self, count: int) -> np.ndarray:
        """The next `count` >= 1 untaken entries, or all that are left once the queue runs out.

        Scans a window of the queue from `pos`, not the whole remainder: it starts at
        max(count, _POOL_WINDOW) entries and doubles until it holds `count` untaken ones
        or reaches the end.
        """
        window = max(count, _POOL_WINDOW)
        while True:
            rest = self.queue[self.pos:self.pos + window]
            free = np.flatnonzero(~self.taken[rest])[:count]
            if len(free) == count:
                self.pos += int(free[-1]) + 1
                break
            if len(rest) < window:
                self.pos += len(rest)
                break
            window *= 2
        out = rest[free]
        self.taken[out] = True
        return out


def partition(labels: np.ndarray, num_clients: int, plan: PartitionPlan, seed) -> list[DataShard]:
    """Split a pool with these labels into num_clients shards of its row indices.

    Major labels go round-robin over the labels present; a shard's rows stay in
    draw order, since local training shuffles every epoch. Raises on any
    shortfall while allow_replacement=False.
    """
    if num_clients < 1:
        raise ValueError("need num_clients >= 1")
    labels = np.asarray(labels, dtype=np.int64)
    total = labels.shape[0]
    if total == 0:
        raise ValueError("empty pool")
    demanded = num_clients * plan.samples_per_client
    if not plan.allow_replacement and demanded > total:
        raise ValueError(f"plan demands {demanded} samples from a pool of {total} without replacement")

    rng = np.random.default_rng(seed)
    present = [int(lab) for lab in np.unique(labels)]
    label_rows = {lab: np.flatnonzero(labels == lab) for lab in present}
    all_rows = np.arange(total)

    taken = np.zeros(total, dtype=bool)
    label_pools = {lab: _Pool(rng.permutation(rows), taken) for lab, rows in label_rows.items()}
    global_pool = _Pool(rng.permutation(all_rows), taken)
    n_major = major_count(plan.lam, plan.samples_per_client)

    shards = []
    for client in range(num_clients):
        major = present[client % len(present)]
        draws = [(label_pools[major], n_major, label_rows[major], major),
                 (global_pool, plan.samples_per_client - n_major, all_rows, None)]
        picked = []
        flagged = False
        for pool, count, population, label in draws:
            if count == 0:
                continue
            picked.append(pool.draw(count))
            short = count - len(picked[-1])
            if short > 0:
                if not plan.allow_replacement:
                    name = "pool" if label is None else f"label {label} pool"
                    raise ValueError(f"{name} exhausted ({short} short) and replacement disabled")
                picked.append(population[rng.integers(0, len(population), size=short)])
                flagged = True

        idx = np.concatenate(picked)
        shards.append(DataShard(idx, labels[idx], owner=client, used_replacement=flagged))
    return shards
