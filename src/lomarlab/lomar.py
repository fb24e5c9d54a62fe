"""LoMar: a two-phase defense scoring updates by local density ratios.

Phase I gives every client a malicious factor. Each update's k nearest peers
(squared Euclidean distance on the full delta) form its reference
neighborhood; within that neighborhood a kernel density estimate is taken
separately on every output label's parameter slice, and the per-label factor
is the mean neighbor density over the client's own density. The overall factor
is the product across labels. Colluding poisoners sit in a tight cluster, so
their own density is inflated and their factor falls below the clean range;
an isolated clean client stays near 1.

Phase II thresholds: keep client i iff log F(i) >= log(epsilon) (default
epsilon 1), which never forms F(i) itself, so a product over many labels
cannot overflow. A theoretical false-alarm bound for the threshold is exposed
as a diagnostic; it never drives filtering.

All density work happens in the log domain. The default kernel's exponent is
linear in the distance, exp(-d/(2h)) with the Gaussian normalizer 1/(sqrt(2*pi)*h);
kernel="gaussian" switches to the conventional exp(-d^2/(2h^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Round

KERNELS = ("exp", "gaussian")
NEIGHBOR_DENSITY_MODES = ("own_neighborhood", "center_reference")

DEFAULT_K_FRACTION = 0.4


@dataclass(frozen=True)
class KdeConfig:
    """Knobs for the factor pipeline.

    k=None picks floor(0.4 * population); bandwidth=None uses the per-call
    median heuristic (median pairwise slice distance over all labels, divided
    by sqrt(2), falling back to 1.0 when the median is zero).
    neighbor_density_mode chooses whose reference set scores a neighbor:
    its own k-NN set (default) or the center's.
    """

    k: int | None = None
    bandwidth: float | None = None
    kernel: str = "exp"
    neighbor_density_mode: str = "own_neighborhood"
    epsilon: float = 1.0
    density_floor: float = 1e-300

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if self.kernel not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.neighbor_density_mode not in NEIGHBOR_DENSITY_MODES:
            raise ValueError(f"unknown neighbor_density_mode {self.neighbor_density_mode!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.density_floor <= 0:
            raise ValueError("density_floor must be > 0")


@dataclass
class LomarResult:
    """Pipeline output: per-client arrays in input order plus the resolved knobs.

    `neighbors` holds row positions into the input (not client ids), so
    `client_ids[neighbors]` names each client's k nearest peers.
    """

    client_ids: np.ndarray             # (n,)
    neighbors: np.ndarray              # (n, k) positions of the k nearest peers
    neighbor_sq_dist: np.ndarray       # (n, k) squared distances to them
    per_label_log_factors: np.ndarray  # (n, labels)
    log_factors: np.ndarray            # (n,) row sums of per_label_log_factors
    kept: np.ndarray                   # (n,) bool, log_factors >= log(epsilon)
    k_used: int
    h_used: float
    epsilon_used: float
    floor_hits: int


def default_k(population: int) -> int:
    """k = floor(0.4 * population), clamped into [1, population - 1]."""
    if population < 2:
        raise ValueError("need at least 2 updates")
    return min(max(int(math.floor(DEFAULT_K_FRACTION * population)), 1), population - 1)


# Gram-form distances below this fraction of ||a||^2 + ||b||^2 have lost most
# of their digits to cancellation and are recomputed directly.
_GRAM_CANCELLATION_RTOL = 1e-6


def _row_key(row: np.ndarray) -> int:
    """Bucket key of a row for duplicate detection; equal bytes give equal keys."""
    return hash(row.tobytes())


def _first_owners(matrix: np.ndarray) -> np.ndarray:
    """Position of the first row byte-identical to each row.

    Rows meet in buckets by `_row_key` and join an earlier row only when their
    bytes compare equal, so at most two rows' bytes are alive at once.
    """
    buckets: dict[int, list[int]] = {}
    owner = np.arange(matrix.shape[0])
    for i, row in enumerate(matrix):
        bucket = buckets.setdefault(_row_key(row), [])
        owner[i] = next((j for j in bucket if matrix[j].tobytes() == row.tobytes()), i)
        if owner[i] == i:
            bucket.append(i)
    return owner


def sq_dist_matrix(matrix: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of `matrix`.

    Uses the Gram form ||a||^2 + ||b||^2 - 2 a.b over the distinct rows only,
    then expands back by index, so byte-identical rows get identical distance
    rows and exactly 0 between them. Without repeated rows it works on
    `matrix` itself. Pairs whose Gram value falls to the cancellation level
    are recomputed as sum((a - b)^2). The upper triangle is mirrored, so the
    result is exactly symmetric with a zero diagonal and no negative entries.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    rows_kept, inverse = np.unique(_first_owners(matrix), return_inverse=True)
    distinct = matrix if rows_kept.size == matrix.shape[0] else matrix[rows_kept]
    sq = np.einsum("ij,ij->i", distinct, distinct)
    lower = np.tri(distinct.shape[0], dtype=bool)
    # In place, so at most two float (n, n) arrays are alive: out = norms - 2 a.b,
    # then the cancellation test against the scaled norms.
    norms = sq[:, None] + sq
    out = distinct @ distinct.T
    out *= -2.0
    out += norms
    norms *= _GRAM_CANCELLATION_RTOL
    close = out <= norms
    del norms
    close[lower] = False
    rows, cols = np.nonzero(close)
    # A chunk gathers at most one round's rows per side.
    step = max(1, distinct.shape[0])
    for start in range(0, rows.size, step):
        r, c = rows[start:start + step], cols[start:start + step]
        out[r, c] = np.sum((distinct[r] - distinct[c]) ** 2, axis=1)
    np.maximum(out, 0.0, out=out)
    out[lower] = out.T[lower]
    np.fill_diagonal(out, 0.0)
    return out if distinct is matrix else out[np.ix_(inverse, inverse)]


def knn(dist: np.ndarray, k: int, ids=None) -> np.ndarray:
    """Positions of every row's k nearest peers, the row itself excluded.

    Ties break by lower id; `ids` (default: the positions) only orders ties,
    the result always holds row positions into `dist`.
    """
    n = dist.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k={k} must be in [1, {n - 1}]")
    ids = np.arange(n) if ids is None else np.asarray(ids)
    d = np.array(dist, dtype=np.float64)
    np.fill_diagonal(d, -np.inf)
    order = np.lexsort((np.broadcast_to(ids, d.shape), d))
    return order[:, 1:k + 1]


def _log_kernel(dist: np.ndarray, h: float, kernel: str) -> np.ndarray:
    """Log of the smoothing kernel at Euclidean distance(s) `dist`."""
    norm = -math.log(math.sqrt(2.0 * math.pi) * h)
    if kernel == "exp":
        return norm - dist / (2.0 * h)
    return norm - (dist * dist) / (2.0 * h * h)


def _logsumexp(values: np.ndarray) -> np.ndarray:
    """log(sum(exp(values))) over the last axis; an infinite or NaN maximum passes through."""
    m = np.max(values, axis=-1)
    finite = np.isfinite(m)
    shift = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = shift + np.log(np.sum(np.exp(values - shift[..., None]), axis=-1))
    return np.where(finite, out, m)[()]


def label_log_factor(neighbor_log_densities: np.ndarray, center_log_density) -> float:
    """log of (mean neighbor density / center density), centered for exactness.

    Centering on the denominator makes the all-equal case return exactly 0,
    so those clients sit exactly at factor 1. Reduces over the last axis;
    leading axes (with a broadcastable center) score many clients at once.
    """
    terms = np.asarray(neighbor_log_densities, dtype=np.float64) - center_log_density
    return _logsumexp(terms) - math.log(terms.shape[-1])


def median_bandwidth(slice_dists: np.ndarray) -> float:
    """Median heuristic: the median pairwise distance over every label's
    slice in the (labels, n, n) `slice_dists`, divided by sqrt(2)."""
    rows, cols = np.triu_indices(slice_dists.shape[-1], k=1)
    med = float(np.median(slice_dists[:, rows, cols]))
    return med / math.sqrt(2.0) if med > 0 else 1.0


def lomar_run(rnd: Round, cfg: KdeConfig = KdeConfig()) -> LomarResult:
    """Score every row of the round and threshold. Requires at least k+1 updates."""
    if len(rnd.ids) < 2:
        raise ValueError("need at least 2 updates")
    matrix, ids, layout = rnd.deltas, rnd.ids, rnd.layout
    k = cfg.k if cfg.k is not None else default_k(len(ids))

    full_dist = sq_dist_matrix(matrix)
    neighbor_pos = knn(full_dist, k, ids)

    # (labels, n, n) Euclidean distances between the clients' label slices,
    # rooted in place: np.sqrt of the list would allocate the stack twice.
    slice_dists = np.stack([sq_dist_matrix(matrix[:, layout.label_slice(r)])
                            for r in range(layout.num_labels)])
    np.sqrt(slice_dists, out=slice_dists)
    h = cfg.bandwidth if cfg.bandwidth is not None else median_bandwidth(slice_dists)
    log_kernels = _log_kernel(slice_dists, h, cfg.kernel)
    log_floor = math.log(cfg.density_floor)
    log_k = math.log(k)

    # (labels, n): each client's density among its own k nearest peers.
    log_density = _logsumexp(np.take_along_axis(log_kernels, neighbor_pos[None], axis=2)) - log_k
    floor_hits = int(np.sum(log_density < log_floor))
    log_density = np.maximum(log_density, log_floor)

    if cfg.neighbor_density_mode == "own_neighborhood":
        neighbor_ld = log_density[:, neighbor_pos]
    else:
        # Score every neighbor against the center's reference set. The
        # (n, k, k) gather runs one label at a time to bound its temporary.
        rows, cols = neighbor_pos[:, :, None], neighbor_pos[:, None, :]
        neighbor_ld = np.stack([_logsumexp(lk[rows, cols]) for lk in log_kernels]) - log_k
        floor_hits += int(np.sum(neighbor_ld < log_floor))
        neighbor_ld = np.maximum(neighbor_ld, log_floor)
    # Contiguous rows, so each client's label sum runs in the same order as
    # a sum over that client's row alone.
    per_label = np.ascontiguousarray(label_log_factor(neighbor_ld, log_density[:, :, None]).T)
    log_factors = per_label.sum(axis=1)
    return LomarResult(
        client_ids=ids,
        neighbors=neighbor_pos,
        neighbor_sq_dist=np.take_along_axis(full_dist, neighbor_pos, axis=1),
        per_label_log_factors=per_label,
        log_factors=log_factors,
        kept=log_factors >= math.log(cfg.epsilon),
        k_used=k,
        h_used=float(h),
        epsilon_used=cfg.epsilon,
        floor_hits=floor_hits,
    )


def ball_volume(radius: float, dim: int) -> float:
    """Volume of the Euclidean ball, used to turn a neighbor distance into V."""
    if radius <= 0 or dim < 1:
        raise ValueError("need radius > 0 and dim >= 1")
    log_v = (dim / 2.0) * math.log(math.pi) + dim * math.log(radius) - math.lgamma(dim / 2.0 + 1.0)
    try:
        return math.exp(log_v)
    except OverflowError:
        return math.inf


def false_alarm_bound(eps_m: float, k: int, volume: float, h_bar: float) -> float:
    """Diagnostic upper bound on the clean false-alarm probability at eps_m.

    Equals 1 at eps_m = 1 and decreases strictly as the threshold moves away,
    down to float64's smallest normal number.
    Never used for filtering: the phase II rule keeps high factors while this
    bound treats them as the alarm event, and that tension is deliberately
    left visible.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if eps_m <= 0 or volume <= 0 or h_bar <= 0:
        raise ValueError("need eps_m > 0, volume > 0 and h_bar > 0")
    if eps_m == 1.0:
        return 1.0
    # 4 pi (eps_m - 1)^2 (k + 1)^2 h_bar / (k (2k + eps_m + 1)^2 V^2) in logs, so that no
    # factor under- or overflows; past e^7 > 745 the bound is the floor anyway.
    log_exponent = (math.log(4.0 * math.pi) + math.log(h_bar) - math.log(k)
                    + 2.0 * (math.log(abs(eps_m - 1.0)) + math.log(k + 1.0)
                             - math.log(2.0 * k + eps_m + 1.0) - math.log(volume)))
    return max(math.exp(-math.exp(min(log_exponent, 7.0))), np.finfo(np.float64).tiny)
