"""The Gram-form distance kernel against the row-by-row reference.

`sq_dist_rows` is the kernel LoMar and Krum used before the Gram form: one
broadcast subtraction per row. It stays here as the reference the fast
kernel must reproduce on everything the defenses decide with.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lomarlab import baselines, lomar
from lomarlab.baselines import fg_krum, krum
from lomarlab.lomar import KdeConfig, lomar_run, sq_dist_matrix
from lomarlab.models import Round
from lomarlab.params import ParamLayout, ParamVector

# Ten 78-parameter label blocks plus a 5-parameter shared block: 785
# parameters, a tenth of the 7,850 of a paper-scale logistic update.
PAPER_LAYOUT = ParamLayout(label_ranges=tuple((78 * r, 78 * (r + 1)) for r in range(10)),
                           shared_range=(780, 785))


def sq_dist_rows(matrix: np.ndarray) -> np.ndarray:
    """Dense squared-distance matrix, computed row by row."""
    n = matrix.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        out[i] = np.sum((matrix - matrix[i]) ** 2, axis=1)
    return out


# Byte-identical colluders. The last row sits on a BLAS edge tile, where a
# Gram product over all rows would round differently from the others.
DUPLICATES = [40, 41, 42, 43, 59]
# A near-duplicate cohort 1e-9 apart: its Gram-form distances are pure
# cancellation noise.
COHORT = slice(44, 59)


def paper_shaped_matrix(seed: int) -> np.ndarray:
    """60 updates of 785 parameters around a common drift."""
    rng = np.random.default_rng(seed)
    drift = rng.normal(size=785)
    matrix = drift + 0.1 * rng.normal(size=(60, 785))
    matrix[DUPLICATES] = matrix[DUPLICATES[0]]
    matrix[COHORT] = matrix[COHORT.start] + 1e-9 * rng.normal(size=(15, 785))
    return matrix


def round_from(matrix, layout=PAPER_LAYOUT):
    return Round(np.arange(len(matrix)), np.full(len(matrix), 600), matrix, layout)


def with_reference_kernel(monkeypatch):
    monkeypatch.setattr(lomar, "sq_dist_matrix", sq_dist_rows)
    monkeypatch.setattr(baselines, "sq_dist_matrix", sq_dist_rows)


class TestAgainstRowReference:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matrix_close_and_duplicates_exact(self, seed):
        matrix = paper_shaped_matrix(seed)
        got, want = sq_dist_matrix(matrix), sq_dist_rows(matrix)
        assert np.allclose(got, want, rtol=1e-9, atol=0.0)
        assert np.all(got[np.ix_(DUPLICATES, DUPLICATES)] == 0.0)
        assert np.all(got[DUPLICATES] == got[DUPLICATES[0]])  # identical rows, not just close
        # the near-duplicate cohort is recomputed directly, not left to cancellation
        assert np.allclose(got[COHORT, COHORT], want[COHORT, COHORT], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", ["own_neighborhood", "center_reference"])
    @pytest.mark.parametrize("bandwidth", [None, 0.05])
    def test_lomar_decisions_match(self, monkeypatch, mode, bandwidth):
        rnd = round_from(paper_shaped_matrix(2))
        cfg = KdeConfig(bandwidth=bandwidth, neighbor_density_mode=mode)
        fast = lomar_run(rnd, cfg)
        with monkeypatch.context() as m:
            with_reference_kernel(m)
            ref = lomar_run(rnd, cfg)
        assert np.array_equal(fast.neighbors, ref.neighbors)
        assert np.array_equal(fast.kept, ref.kept)
        assert fast.h_used == pytest.approx(ref.h_used, rel=1e-12)
        assert np.allclose(fast.log_factors, ref.log_factors, rtol=0.0, atol=1e-9)

    def test_krum_selection_matches(self, monkeypatch):
        rnd = round_from(paper_shaped_matrix(3))
        joint = ParamVector.zeros(PAPER_LAYOUT)
        runs = {}
        for kernel in ("gram", "rows"):
            with monkeypatch.context() as m:
                if kernel == "rows":
                    with_reference_kernel(m)
                runs[kernel] = [krum(joint, rnd, 10).kept] + [
                    fg_krum(joint, rnd, 10, order=order).kept
                    for order in ("krum_first", "fg_first")]
        assert np.array_equal(runs["gram"], runs["rows"])


@st.composite
def matrices_with_duplicates(draw):
    n = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 6))
    base = draw(arrays(np.float64, (n, dim),
                       elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    for src, dst in copies:
        base[dst] = base[src]
    return base


class TestKernelProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(matrices_with_duplicates())
    def test_symmetric_nonnegative_and_exact_on_duplicates(self, matrix):
        d = sq_dist_matrix(matrix)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all(d >= 0.0)
        for i in range(matrix.shape[0]):
            for j in range(i + 1, matrix.shape[0]):
                if matrix[i].tobytes() == matrix[j].tobytes():
                    assert d[i, j] == 0.0
                    assert np.array_equal(d[i], d[j])
