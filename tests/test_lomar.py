import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lomar_oracle
from lomarlab.lomar import (
    KERNELS,
    NEIGHBOR_DENSITY_MODES,
    KdeConfig,
    ball_volume,
    default_k,
    false_alarm_bound,
    knn,
    label_log_factor,
    lomar_run,
    median_bandwidth,
    sq_dist_matrix,
)
from lomarlab.models import ParamLayout, Round

LAYOUT_2x2 = ParamLayout((2, 2))
LAYOUT_3x2 = ParamLayout((2, 2, 2))
LAYOUT_1x1 = ParamLayout((1,))

INV_SQRT_2PI = 0.3989422804014327


def round_from(matrix, layout=LAYOUT_2x2, ids=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    return Round(np.arange(len(matrix)) if ids is None else ids, np.ones(len(matrix)), matrix, layout)


class TestDefaultK:
    def test_floor_of_two_fifths(self):
        assert default_k(55) == 22
        assert default_k(12) == 4
        assert default_k(10) == 4

    def test_clamped_to_valid_range(self):
        assert default_k(3) == 1
        assert default_k(2) == 1

    def test_small_population_rejected(self):
        with pytest.raises(ValueError):
            default_k(1)


class TestKnn:
    def test_nearest_by_distance(self):
        pts = np.array([[0.0], [1.0], [3.0], [10.0]])
        d = np.array([[np.sum((pts[i] - pts[j]) ** 2) for j in range(4)] for i in range(4)])
        nbrs = knn(d, 2)
        assert nbrs.shape == (4, 2)
        assert nbrs[0].tolist() == [1, 2]
        assert d[0, nbrs[0]].tolist() == [1.0, 9.0]
        assert nbrs[3].tolist() == [2, 1]

    def test_tie_broken_by_lower_id(self):
        # clients 1 and 2 sit at the same distance from 0
        d = np.array([
            [0.0, 4.0, 4.0, 1.0],
            [4.0, 0.0, 2.0, 2.0],
            [4.0, 2.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
        ])
        assert knn(d, 2)[0].tolist() == [3, 1]
        assert knn(d, 3)[0].tolist() == [3, 1, 2]
        # ids only order the tie; the result still holds row positions
        assert knn(d, 2, ids=[0, 20, 10, 30])[0].tolist() == [3, 2]

    def test_k_bounds(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            knn(d, 0)
        with pytest.raises(ValueError):
            knn(d, 3)

    def test_pairwise_distance_symmetry_is_exact(self):
        rng = np.random.default_rng(6)
        d = sq_dist_matrix(rng.normal(size=(9, 4)))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)


def toy_log_factors(points, k, **kw):
    """lomar_run's log factors for one-parameter, one-label updates."""
    rnd = round_from(np.asarray(points, dtype=np.float64)[:, None], LAYOUT_1x1)
    return lomar_run(rnd, KdeConfig(k=k, **kw)).log_factors


class TestKdeDensity:
    # Points 0, 2 and 10 with k=1: clients 0 and 1 are each other's nearest
    # peer at distance 2; client 2's is client 1, at distance 8. Client 2's
    # log factor is log K(2) - log K(8), where K is the kernel at that distance.
    POINTS = [0.0, 2.0, 10.0]

    def test_exp_kernel_linear_exponent(self):
        # exp(-d/(2h)): (8 - 2) / (2h) = 3/h
        for h in (1.0, 0.5):
            lf = toy_log_factors(self.POINTS, 1, bandwidth=h, kernel="exp")
            assert lf[:2].tolist() == [0.0, 0.0]
            assert lf[2] == pytest.approx(3.0 / h, rel=1e-12)

    def test_gaussian_kernel_squared_exponent(self):
        # exp(-d^2/(2h^2)): (64 - 4) / (2h^2) = 30/h^2
        for h in (1.0, 0.5):
            lf = toy_log_factors(self.POINTS, 1, bandwidth=h, kernel="gaussian")
            assert lf[:2].tolist() == [0.0, 0.0]
            assert lf[2] == pytest.approx(30.0 / h ** 2, rel=1e-12)

    def test_mean_over_neighbors(self):
        # k=2: every client's density is the mean kernel over both peers
        kern = lambda d: INV_SQRT_2PI * math.exp(-d / 2.0)
        dens = [(kern(2) + kern(10)) / 2, (kern(2) + kern(8)) / 2, (kern(10) + kern(8)) / 2]
        lf = toy_log_factors(self.POINTS, 2, bandwidth=1.0)
        want = [math.log((dens[1] + dens[2]) / 2 / dens[0]),
                math.log((dens[0] + dens[2]) / 2 / dens[1]),
                math.log((dens[0] + dens[1]) / 2 / dens[2])]
        assert lf == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_zero_distance_value(self):
        # identical updates sit at the kernel peak 1/(sqrt(2*pi)*h), which a
        # density floor just above it clamps for every client
        rnd = round_from(np.ones((4, 1)), LAYOUT_1x1)
        for h in (1.0, 0.5):
            peak = INV_SQRT_2PI / h
            assert lomar_run(rnd, KdeConfig(k=2, bandwidth=h, density_floor=peak * 0.999)).floor_hits == 0
            assert lomar_run(rnd, KdeConfig(k=2, bandwidth=h, density_floor=peak * 1.001)).floor_hits == 4


class TestFactors:
    def test_all_equal_densities_give_exactly_one(self):
        logs = np.log(np.full(5, 0.123))
        assert label_log_factor(logs, math.log(0.123)) == 0.0

    def test_mean_ratio(self):
        # neighbors twice as dense as the center -> factor 2
        f = label_log_factor(np.log([0.2, 0.2]), math.log(0.1))
        assert f == pytest.approx(math.log(2.0), rel=1e-12)

    def test_mixed_ratio(self):
        f = label_log_factor(np.log([0.3, 0.1]), math.log(0.2))
        assert f == pytest.approx(0.0, abs=1e-15)

    def test_combine_is_product(self):
        # the overall factor is the product of per-label factors: its log is
        # each client's own row sum, bit for bit (ten labels, so numpy's
        # pairwise summation order applies)
        layout = ParamLayout((1,) * 10)
        rng = np.random.default_rng(16)
        res = lomar_run(round_from(rng.normal(size=(30, 10)), layout), KdeConfig(k=5))
        assert res.per_label_log_factors.shape == (30, 10)
        for row, log_f in zip(res.per_label_log_factors, res.log_factors):
            assert log_f == np.sum(row)
        assert np.array_equal(res.kept, res.log_factors >= 0.0)


class TestMedianBandwidth:
    def test_hand_case(self):
        # one label, three points at 0, 1, 3: distances 1, 2, 3; median 2
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        assert median_bandwidth(np.stack([d])) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)

    def test_pools_across_labels(self):
        d1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        d2 = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert median_bandwidth(np.stack([d1, d2])) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_median_falls_back_to_one(self):
        d = np.zeros((3, 3))
        assert median_bandwidth(np.stack([d])) == 1.0


@st.composite
def identical_rounds(draw):
    """n copies of one row over uneven label blocks, plus the pipeline's knobs."""
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    layout = ParamLayout(tuple(widths), draw(st.integers(0, 3)))
    row = draw(arrays(np.float64, layout.size, elements=st.floats(-1.0, 1.0)))
    n = draw(st.integers(2, 12))
    matrix = np.tile(row * draw(st.sampled_from([0.0, 1e-8, 1.0, 1e6])), (n, 1))
    cfg = KdeConfig(k=draw(st.integers(1, n - 1)), bandwidth=draw(st.sampled_from([None, 1e-3, 1.0, 50.0])),
                    kernel=draw(st.sampled_from(KERNELS)),
                    neighbor_density_mode=draw(st.sampled_from(NEIGHBOR_DENSITY_MODES)))
    return round_from(matrix, layout), cfg


class TestPipelineToys:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(identical_rounds())
    def test_identical_updates_all_kept_at_default_epsilon(self, case):
        rnd, cfg = case
        res = lomar_run(rnd, cfg)
        assert np.all(res.per_label_log_factors == 0.0)
        assert np.all(res.log_factors == 0.0)
        assert np.all(res.kept)
        assert res.client_ids[res.kept].tolist() == list(range(len(rnd.ids)))
        # all-zero distances fall back to 1.0 under the median heuristic
        assert res.h_used == (1.0 if cfg.bandwidth is None else cfg.bandwidth)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate client ids"):
            lomar_run(round_from(np.ones((3, 4)), ids=[0, 0, 2]), KdeConfig(k=1))

    def test_k_too_large_rejected(self):
        rnd = round_from(np.ones((4, 4)))
        with pytest.raises(ValueError):
            lomar_run(rnd, KdeConfig(k=4))

    def test_default_k_resolution(self):
        rnd = round_from(np.random.default_rng(0).normal(size=(10, 4)))
        res = lomar_run(rnd)
        assert res.k_used == 4

    def test_tight_cluster_is_flagged(self):
        # five colluders collapsed onto one point inside a loose clean cloud
        rng = np.random.default_rng(14)
        clean = rng.normal(scale=1.0, size=(20, 4))
        spike = np.tile(clean.mean(axis=0), (5, 1))
        rnd = round_from(np.vstack([clean, spike]))
        res = lomar_run(rnd, KdeConfig(k=10, bandwidth=0.3))
        assert not np.any(res.kept[20:])
        assert res.log_factors[20:].max() < res.log_factors[:20].min()

    def test_epsilon_threshold_is_inclusive(self):
        rnd = round_from(np.ones((5, 4)))
        res = lomar_run(rnd, KdeConfig(k=2, epsilon=1.0))
        assert np.all(res.kept)  # factor exactly 1 kept
        res2 = lomar_run(rnd, KdeConfig(k=2, epsilon=1.0000001))
        assert not np.any(res2.kept)

    def test_density_floor_hits_counted(self):
        # far-apart points at a tiny bandwidth underflow the density floor
        pts = np.zeros((4, 4))
        pts[1, 0] = pts[2, 1] = pts[3, 2] = 1e6
        rnd = round_from(pts)
        res = lomar_run(rnd, KdeConfig(k=2, bandwidth=1e-4))
        assert res.floor_hits > 0
        assert np.all(np.isfinite(res.log_factors))

    def test_neighbor_sets_reported(self):
        rng = np.random.default_rng(15)
        rnd = round_from(rng.normal(size=(7, 4)))
        res = lomar_run(rnd, KdeConfig(k=3))
        assert res.neighbors.shape == res.neighbor_sq_dist.shape == (7, 3)
        for i, row in enumerate(res.neighbors):
            assert i not in row.tolist()
        full = sq_dist_matrix(rnd.deltas)
        assert np.array_equal(res.neighbor_sq_dist, np.take_along_axis(full, res.neighbors, axis=1))


class TestAgainstBruteForce:
    def run_both(self, matrix, layout, ranges, **kw):
        rnd = round_from(matrix, layout)
        res = lomar_run(rnd, KdeConfig(**kw))
        oracle_factors, oracle_deltas, oracle_h = lomar_oracle.run(
            [list(map(float, row)) for row in matrix], ranges,
            k=kw.get("k"), h=kw.get("bandwidth"), kernel=kw.get("kernel", "exp"),
            epsilon=kw.get("epsilon", 1.0),
            neighbor_density_mode=kw.get("neighbor_density_mode", "own_neighborhood"))
        assert res.h_used == pytest.approx(oracle_h, rel=1e-12)
        assert np.exp(res.log_factors).tolist() == pytest.approx(oracle_factors, rel=1e-9)
        assert res.kept.astype(int).tolist() == list(oracle_deltas)
        return res

    def test_random_cases_own_neighborhood(self):
        rng = np.random.default_rng(99)
        for trial in range(12):
            n = int(rng.integers(6, 14))
            k = int(rng.integers(2, n - 1))
            matrix = rng.normal(scale=0.5, size=(n, 4))
            self.run_both(matrix, LAYOUT_2x2, [(0, 2), (2, 4)], k=k)

    def test_random_cases_gaussian_kernel(self):
        rng = np.random.default_rng(100)
        for trial in range(8):
            n = int(rng.integers(6, 12))
            matrix = rng.normal(scale=0.8, size=(n, 4))
            self.run_both(matrix, LAYOUT_2x2, [(0, 2), (2, 4)], k=3, kernel="gaussian")

    def test_random_cases_center_reference(self):
        rng = np.random.default_rng(101)
        for trial in range(8):
            n = int(rng.integers(6, 12))
            matrix = rng.normal(scale=0.5, size=(n, 4))
            self.run_both(matrix, LAYOUT_2x2, [(0, 2), (2, 4)], k=4,
                          neighbor_density_mode="center_reference")

    def test_random_cases_three_labels_fixed_bandwidth(self):
        rng = np.random.default_rng(102)
        for trial in range(8):
            matrix = rng.normal(size=(9, 6))
            self.run_both(matrix, LAYOUT_3x2, [(0, 2), (2, 4), (4, 6)],
                          k=3, bandwidth=0.7)

    def test_default_k_and_auto_bandwidth(self):
        rng = np.random.default_rng(103)
        matrix = rng.normal(size=(11, 4))
        res = self.run_both(matrix, LAYOUT_2x2, [(0, 2), (2, 4)])
        assert res.k_used == 4


class TestKdeConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            KdeConfig(k=0)
        with pytest.raises(ValueError):
            KdeConfig(bandwidth=0.0)
        with pytest.raises(ValueError):
            KdeConfig(kernel="tricube")
        with pytest.raises(ValueError):
            KdeConfig(neighbor_density_mode="nearest")
        with pytest.raises(ValueError):
            KdeConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            KdeConfig(density_floor=0.0)


class TestBallVolume:
    def test_low_dimensions(self):
        assert ball_volume(2.0, 1) == pytest.approx(4.0, rel=1e-12)
        assert ball_volume(1.5, 2) == pytest.approx(math.pi * 2.25, rel=1e-12)
        assert ball_volume(1.0, 3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ball_volume(0.0, 2)
        with pytest.raises(ValueError):
            ball_volume(1.0, 0)

    def test_overflow_is_inf(self):
        # one paper-scale label slice: 784 weights and a bias
        assert ball_volume(20.0, 785) == math.inf


class TestFalseAlarmBound:
    def test_equals_one_at_unit_threshold(self):
        assert false_alarm_bound(1.0, 10, 2.0, 0.5) == 1.0

    def test_in_unit_interval(self):
        for eps_m in (1.0, 1.5, 2.0, 4.0):
            b = false_alarm_bound(eps_m, 8, 1.3, 0.9)
            assert 0.0 < b <= 1.0

    def test_strictly_decreasing_in_threshold(self):
        values = [false_alarm_bound(e, 12, 1.0, 1.0) for e in (1.0, 1.2, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_spot_value(self):
        eps_m, k, vol, h_bar = 2.0, 10, 1.0, 1.0
        want = math.exp(-4.0 * math.pi * (eps_m - 1.0) ** 2 * (k + 1) ** 2 * h_bar
                        / (k * (2 * k + eps_m + 1) ** 2 * vol ** 2))
        assert false_alarm_bound(eps_m, k, vol, h_bar) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("eps_m, volume", [
        pytest.param(2.0, 1e-200, id="volume-squared-underflows"),
        pytest.param(1e200, 1e-100, id="numerator-overflows"),
    ])
    def test_extreme_inputs_give_the_floor(self, eps_m, volume):
        assert false_alarm_bound(eps_m, 1, volume, 1.0) == np.finfo(np.float64).tiny
        assert false_alarm_bound(1.0, 1, volume, 1.0) == 1.0

    def test_validation(self):
        for args in ((1.0, 0, 1.0, 1.0), (0.0, 1, 1.0, 1.0), (1.5, 1, 0.0, 1.0), (1.5, 1, 1.0, -1.0)):
            with pytest.raises(ValueError):
                false_alarm_bound(*args)
