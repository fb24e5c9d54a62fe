import math

import numpy as np
import pytest

import lomar_oracle
from lomarlab.lomar import (
    KdeConfig,
    ball_volume,
    combine_factors,
    default_k,
    false_alarm_bound,
    kde_density,
    knn,
    label_factor,
    label_log_factor,
    lomar_run,
    median_bandwidth,
    sq_dist_matrix,
)
from lomarlab.models import ClientUpdate
from lomarlab.params import ParamLayout, ParamVector

LAYOUT_2x2 = ParamLayout(label_ranges=((0, 2), (2, 4)), shared_range=(4, 4))
LAYOUT_3x2 = ParamLayout(label_ranges=((0, 2), (2, 4), (4, 6)), shared_range=(6, 6))

INV_SQRT_2PI = 0.3989422804014327


def updates_from(matrix, layout=LAYOUT_2x2):
    return [ClientUpdate(client_id=i, delta=ParamVector(np.asarray(row, dtype=np.float64), layout),
                         num_samples=1)
            for i, row in enumerate(matrix)]


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
        ns = knn(d, 0, 2)
        assert ns.ids() == (1, 2)
        assert ns.members[0][1] == 1.0
        assert ns.members[1][1] == 9.0

    def test_tie_broken_by_lower_id(self):
        # clients 1 and 2 sit at the same distance from 0
        d = np.array([
            [0.0, 4.0, 4.0, 1.0],
            [4.0, 0.0, 2.0, 2.0],
            [4.0, 2.0, 0.0, 2.0],
            [1.0, 2.0, 2.0, 0.0],
        ])
        assert knn(d, 0, 2).ids() == (3, 1)
        assert knn(d, 0, 3).ids() == (3, 1, 2)

    def test_k_bounds(self):
        d = np.zeros((3, 3))
        with pytest.raises(ValueError):
            knn(d, 0, 0)
        with pytest.raises(ValueError):
            knn(d, 0, 3)

    def test_pairwise_distance_symmetry_is_exact(self):
        rng = np.random.default_rng(6)
        d = sq_dist_matrix(rng.normal(size=(9, 4)))
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)


class TestKdeDensity:
    def test_zero_distance_value(self):
        # single neighbor at the center itself: density is the kernel peak
        q = kde_density(np.zeros(2), np.zeros((1, 2)), h=1.0)
        assert q == pytest.approx(INV_SQRT_2PI, rel=1e-12)

    def test_exp_kernel_linear_exponent(self):
        # the default kernel decays with distance, not squared distance:
        # at d=2, h=1 the value is exp(-1)/sqrt(2*pi)
        q = kde_density(np.zeros(1), np.array([[2.0]]), h=1.0, kernel="exp")
        assert q == pytest.approx(math.exp(-1.0) * INV_SQRT_2PI, rel=1e-12)

    def test_gaussian_kernel_squared_exponent(self):
        q = kde_density(np.zeros(1), np.array([[math.sqrt(2.0)]]), h=1.0, kernel="gaussian")
        assert q == pytest.approx(math.exp(-1.0) * INV_SQRT_2PI, rel=1e-12)

    def test_mean_over_neighbors(self):
        nbrs = np.array([[0.0], [2.0]])
        q = kde_density(np.zeros(1), nbrs, h=1.0)
        want = (INV_SQRT_2PI + math.exp(-1.0) * INV_SQRT_2PI) / 2.0
        assert q == pytest.approx(want, rel=1e-12)

    def test_bandwidth_scaling(self):
        qa = kde_density(np.zeros(1), np.array([[1.0]]), h=0.5)
        want = (1.0 / (math.sqrt(2 * math.pi) * 0.5)) * math.exp(-1.0)
        assert qa == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            kde_density(np.zeros(1), np.zeros((1, 1)), h=0.0)
        with pytest.raises(ValueError):
            kde_density(np.zeros(1), np.zeros((0, 1)), h=1.0)
        with pytest.raises(ValueError):
            kde_density(np.zeros(1), np.zeros((1, 1)), h=1.0, kernel="box")


class TestFactors:
    def test_all_equal_densities_give_exactly_one(self):
        logs = np.log(np.full(5, 0.123))
        assert label_log_factor(logs, math.log(0.123)) == 0.0
        assert label_factor(np.full(5, 0.123), 0.123) == 1.0

    def test_mean_ratio(self):
        # neighbors twice as dense as the center -> factor 2
        f = label_factor(np.array([0.2, 0.2]), 0.1)
        assert f == pytest.approx(2.0, rel=1e-12)

    def test_mixed_ratio(self):
        f = label_factor(np.array([0.3, 0.1]), 0.2)
        assert f == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            label_factor(np.array([0.1, -0.1]), 0.2)
        with pytest.raises(ValueError):
            label_factor(np.array([0.1]), 0.0)

    def test_combine_is_product(self):
        assert combine_factors([2.0, 0.25]) == pytest.approx(0.5, rel=1e-12)
        assert combine_factors([]) == 1.0
        with pytest.raises(ValueError):
            combine_factors([1.0, 0.0])


class TestMedianBandwidth:
    def test_hand_case(self):
        # one label, three points at 0, 1, 3: distances 1, 2, 3; median 2
        d = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
        assert median_bandwidth([d]) == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)

    def test_pools_across_labels(self):
        d1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        d2 = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert median_bandwidth([d1, d2]) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-12)

    def test_zero_median_falls_back_to_one(self):
        d = np.zeros((3, 3))
        assert median_bandwidth([d]) == 1.0


class TestPipelineToys:
    def test_identical_updates_all_kept_at_default_epsilon(self):
        ups = updates_from(np.ones((6, 4)))
        res = lomar_run(ups, KdeConfig(k=3))
        for rep in res.reports:
            assert rep.factor == 1.0
            assert rep.log_factor == 0.0
            assert rep.delta == 1
        assert res.kept_ids() == [0, 1, 2, 3, 4, 5]
        assert res.h_used == 1.0  # all-zero distances fall back

    def test_duplicate_ids_rejected(self):
        ups = updates_from(np.ones((3, 4)))
        ups[1] = ClientUpdate(client_id=0, delta=ups[1].delta, num_samples=1)
        with pytest.raises(ValueError):
            lomar_run(ups, KdeConfig(k=1))

    def test_k_too_large_rejected(self):
        ups = updates_from(np.ones((4, 4)))
        with pytest.raises(ValueError):
            lomar_run(ups, KdeConfig(k=4))

    def test_default_k_resolution(self):
        ups = updates_from(np.random.default_rng(0).normal(size=(10, 4)))
        res = lomar_run(ups)
        assert res.k_used == 4

    def test_tight_cluster_is_flagged(self):
        # five colluders collapsed onto one point inside a loose clean cloud
        rng = np.random.default_rng(14)
        clean = rng.normal(scale=1.0, size=(20, 4))
        spike = np.tile(clean.mean(axis=0), (5, 1))
        ups = updates_from(np.vstack([clean, spike]))
        res = lomar_run(ups, KdeConfig(k=10, bandwidth=0.3))
        spike_reports = res.reports[20:]
        clean_reports = res.reports[:20]
        assert all(r.delta == 0 for r in spike_reports)
        assert max(r.factor for r in spike_reports) < min(r.factor for r in clean_reports)

    def test_epsilon_threshold_is_inclusive(self):
        ups = updates_from(np.ones((5, 4)))
        res = lomar_run(ups, KdeConfig(k=2, epsilon=1.0))
        assert all(r.delta == 1 for r in res.reports)  # factor exactly 1 kept
        res2 = lomar_run(ups, KdeConfig(k=2, epsilon=1.0000001))
        assert all(r.delta == 0 for r in res2.reports)

    def test_density_floor_hits_counted(self):
        # far-apart points at a tiny bandwidth underflow the density floor
        pts = np.zeros((4, 4))
        pts[1, 0] = pts[2, 1] = pts[3, 2] = 1e6
        ups = updates_from(pts)
        res = lomar_run(ups, KdeConfig(k=2, bandwidth=1e-4))
        assert res.floor_hits > 0
        for rep in res.reports:
            assert math.isfinite(rep.log_factor)

    def test_neighbor_sets_reported(self):
        rng = np.random.default_rng(15)
        ups = updates_from(rng.normal(size=(7, 4)))
        res = lomar_run(ups, KdeConfig(k=3))
        assert len(res.neighbor_sets) == 7
        for ns in res.neighbor_sets:
            assert len(ns.members) == 3
            assert ns.center not in ns.ids()


class TestAgainstBruteForce:
    def run_both(self, matrix, layout, ranges, **kw):
        ups = updates_from(matrix, layout)
        res = lomar_run(ups, KdeConfig(**kw))
        oracle_factors, oracle_deltas, oracle_h = lomar_oracle.run(
            [list(map(float, row)) for row in matrix], ranges,
            k=kw.get("k"), h=kw.get("bandwidth"), kernel=kw.get("kernel", "exp"),
            epsilon=kw.get("epsilon", 1.0),
            neighbor_density_mode=kw.get("neighbor_density_mode", "own_neighborhood"))
        assert res.h_used == pytest.approx(oracle_h, rel=1e-12)
        for rep, of, od in zip(res.reports, oracle_factors, oracle_deltas):
            assert rep.factor == pytest.approx(of, rel=1e-9)
            assert rep.delta == od
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
