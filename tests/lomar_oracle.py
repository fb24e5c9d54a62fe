"""Brute-force reference for the density-ratio defense, kept independent of
the package internals on purpose: plain Python lists, linear-domain math, no
shared helpers. Slow and only meant for small cases.
"""

import math
import statistics

FLOOR = 1e-300


def _dist(a, b):
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _sq_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b))


def _kernel(d, h, kernel):
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * h)
    if kernel == "exp":
        return norm * math.exp(-d / (2.0 * h))
    if kernel == "gaussian":
        return norm * math.exp(-(d * d) / (2.0 * h * h))
    raise ValueError(kernel)


def median_bandwidth(vectors, label_ranges):
    """Pooled median pairwise slice distance over all labels, / sqrt(2)."""
    n = len(vectors)
    pooled = []
    for start, stop in label_ranges:
        for i in range(n):
            for j in range(i + 1, n):
                pooled.append(_dist(vectors[i][start:stop], vectors[j][start:stop]))
    med = statistics.median(pooled)
    return med / math.sqrt(2.0) if med > 0 else 1.0


def knn_positions(vectors, center, k, ids=None):
    """Positions of the k nearest peers, ties broken by lower id."""
    n = len(vectors)
    if ids is None:
        ids = list(range(n))
    peers = [(_sq_dist(vectors[center], vectors[j]), ids[j], j)
             for j in range(n) if j != center]
    peers.sort(key=lambda t: (t[0], t[1]))
    return [pos for _, _, pos in peers[:k]]


def slice_density(vectors, label_range, center, neighbor_positions, h, kernel):
    """Mean kernel value of the center slice against the listed neighbors."""
    start, stop = label_range
    c = vectors[center][start:stop]
    total = 0.0
    for j in neighbor_positions:
        total += _kernel(_dist(c, vectors[j][start:stop]), h, kernel)
    return max(total / len(neighbor_positions), FLOOR)


def run(vectors, label_ranges, k=None, h=None, kernel="exp", epsilon=1.0):
    """Returns (factors, deltas, h_used) for a list of raw update vectors.
    Each neighbor j of client i enters with its own density over its own k
    nearest peers."""
    n = len(vectors)
    if k is None:
        k = min(max(int(math.floor(0.4 * n)), 1), n - 1)
    if h is None:
        h = median_bandwidth(vectors, label_ranges)

    neighborhoods = [knn_positions(vectors, i, k) for i in range(n)]
    own = [[slice_density(vectors, lr, i, neighborhoods[i], h, kernel)
            for lr in label_ranges] for i in range(n)]

    factors = []
    for i in range(n):
        f = 1.0
        for r in range(len(label_ranges)):
            ratios = [own[j][r] / own[i][r] for j in neighborhoods[i]]
            f *= sum(ratios) / len(ratios)
        factors.append(f)
    deltas = [int(f >= epsilon) for f in factors]
    return factors, deltas, h
