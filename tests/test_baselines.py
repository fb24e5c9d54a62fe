import math

import numpy as np
import pytest

from lomarlab.baselines import (
    AggregationResult,
    _foolsgold_weights,
    coordinate_median,
    fedavg,
    fg_krum,
    foolsgold,
    krum,
    weighted_aggregate,
)
from lomarlab.models import ClientUpdate
from lomarlab.params import ParamLayout, ParamVector

LAYOUT_1 = ParamLayout(label_ranges=((0, 1),), shared_range=(1, 1))
LAYOUT_2 = ParamLayout(label_ranges=((0, 1), (1, 2)), shared_range=(2, 2))


def ups_from(rows, layout=LAYOUT_2, samples=None):
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if samples is None:
        samples = [1] * rows.shape[0]
    return [ClientUpdate(client_id=i, delta=ParamVector(rows[i].copy(), layout),
                         num_samples=samples[i])
            for i in range(rows.shape[0])]


def zero_joint(layout=LAYOUT_2):
    return ParamVector.zeros(layout)


def foolsgold_weights_loop(vectors):
    """FoolsGold weights with pardoning as the original per-pair double loop."""
    n = vectors.shape[0]
    norms = np.sqrt(np.sum(vectors ** 2, axis=1))
    safe = np.where(norms > 0, norms, 1.0)
    unit = vectors / safe[:, None]
    cs = unit @ unit.T
    cs[norms == 0, :] = 0.0
    cs[:, norms == 0] = 0.0
    np.fill_diagonal(cs, 0.0)
    maxcs = cs.max(axis=1)
    for i in range(n):
        for j in range(n):
            if i != j and 0.0 < maxcs[i] < maxcs[j]:
                cs[i, j] *= maxcs[i] / maxcs[j]
    wv = np.clip(1.0 - cs.max(axis=1), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        wv = np.log(wv / (1.0 - wv)) + 0.5
    return np.clip(np.nan_to_num(wv, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)


class TestWeightedAggregate:
    def test_weights_over_all_submitted(self):
        ups = ups_from([[8.0, 0.0], [0.0, 8.0], [4.0, 4.0]], samples=[2, 2, 4])
        res = weighted_aggregate(zero_joint(), ups, kept_ids=[0, 1])
        # alpha = samples / total over ALL submitted (8), dropped weight just
        # disappears
        assert res.per_client_weight == {0: 0.25, 1: 0.25}
        assert np.allclose(res.new_joint.values, [2.0, 2.0])
        assert res.kept_clients == [0, 1]

    def test_renormalize_over_kept(self):
        ups = ups_from([[8.0, 0.0], [0.0, 8.0], [4.0, 4.0]], samples=[2, 2, 4])
        res = weighted_aggregate(zero_joint(), ups, kept_ids=[0, 1], renormalize=True)
        assert res.per_client_weight == {0: 0.5, 1: 0.5}
        assert np.allclose(res.new_joint.values, [4.0, 4.0])

    def test_unknown_kept_id_rejected(self):
        ups = ups_from([[1.0, 0.0]])
        with pytest.raises(ValueError):
            weighted_aggregate(zero_joint(), ups, kept_ids=[5])

    def test_empty_and_duplicate_updates_rejected(self):
        with pytest.raises(ValueError):
            weighted_aggregate(zero_joint(), [], kept_ids=[])
        ups = ups_from([[1.0, 0.0], [0.0, 1.0]])
        ups[1] = ClientUpdate(client_id=0, delta=ups[1].delta, num_samples=1)
        with pytest.raises(ValueError):
            weighted_aggregate(zero_joint(), ups, kept_ids=[0])

    def test_layout_mismatch_rejected(self):
        ups = [ClientUpdate(client_id=0, delta=ParamVector(np.zeros(1), LAYOUT_1),
                            num_samples=1)]
        with pytest.raises(ValueError):
            weighted_aggregate(zero_joint(LAYOUT_2), ups, kept_ids=[0])

    def test_fedavg_sample_weighting(self):
        ups = ups_from([[4.0, 0.0], [0.0, 8.0]], samples=[1, 3])
        res = fedavg(zero_joint(), ups)
        assert np.allclose(res.new_joint.values, [1.0, 6.0])
        assert res.kept_clients == [0, 1]


class TestKrum:
    def toy(self):
        # four benign points spaced 0.1 apart and one far outlier
        return ups_from([[0.0], [0.1], [0.2], [0.3], [100.0]], layout=LAYOUT_1)

    def test_toy_selection_and_average(self):
        res = krum(zero_joint(LAYOUT_1), self.toy(), assumed_malicious=1)
        # window = n-M-2 = 2; clients 1 and 2 both score 0.02 and win
        assert res.kept_clients == [1, 2]
        assert res.new_joint.values[0] == pytest.approx(0.15, rel=1e-12)
        assert res.per_client_weight == {1: 0.5, 2: 0.5}

    def test_scores_negated_for_keep_direction(self):
        res = krum(zero_joint(LAYOUT_1), self.toy(), assumed_malicious=1)
        assert res.scores[1] == pytest.approx(-0.02, rel=1e-9)
        assert res.scores[4] == min(res.scores.values())

    def test_outlier_never_chosen(self):
        res = krum(zero_joint(LAYOUT_1), self.toy(), assumed_malicious=1)
        assert 4 not in res.kept_clients

    def test_window_too_small_raises(self):
        ups = ups_from([[0.0], [1.0], [2.0], [3.0]], layout=LAYOUT_1)
        with pytest.raises(ValueError):
            krum(zero_joint(LAYOUT_1), ups, assumed_malicious=2)
        with pytest.raises(ValueError):
            krum(zero_joint(LAYOUT_1), ups, assumed_malicious=-1)
        with pytest.raises(ValueError):
            fg_krum(zero_joint(LAYOUT_1), ups, assumed_malicious=-1)

    def test_select_count_floor_and_clamp(self):
        # n=5, M=2: floor(5 - 1 - 2) = 2 survivors
        ups = ups_from([[0.0], [0.1], [0.2], [0.3], [0.4]], layout=LAYOUT_1)
        res = krum(zero_joint(LAYOUT_1), ups, assumed_malicious=2)
        assert len(res.kept_clients) == 2
        # n=4, M=1: floor(4 - 0.5 - 2) = 1 survivor
        ups = ups_from([[0.0], [0.1], [0.2], [5.0]], layout=LAYOUT_1)
        res = krum(zero_joint(LAYOUT_1), ups, assumed_malicious=1)
        assert len(res.kept_clients) == 1

    def test_translation_invariant_selection(self):
        base = self.toy()
        shifted = ups_from([[v.delta.values[0] + 7.5] for v in base], layout=LAYOUT_1)
        a = krum(zero_joint(LAYOUT_1), base, 1)
        b = krum(zero_joint(LAYOUT_1), shifted, 1)
        assert a.kept_clients == b.kept_clients


class TestMedian:
    def test_even_cohort_averages_middle_pair(self):
        ups = ups_from([[1.0], [2.0], [4.0], [8.0]], layout=LAYOUT_1)
        res = coordinate_median(zero_joint(LAYOUT_1), ups)
        assert res.new_joint.values[0] == pytest.approx(3.0, rel=1e-12)

    def test_odd_cohort_takes_middle(self):
        ups = ups_from([[1.0], [2.0], [9.0]], layout=LAYOUT_1)
        res = coordinate_median(zero_joint(LAYOUT_1), ups)
        assert res.new_joint.values[0] == 2.0

    def test_per_coordinate(self):
        ups = ups_from([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]])
        res = coordinate_median(zero_joint(), ups)
        assert np.array_equal(res.new_joint.values, [2.0, 8.0])

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(7, 2))
        res = coordinate_median(zero_joint(), ups_from(rows))
        assert np.all(res.new_joint.values >= rows.min(axis=0))
        assert np.all(res.new_joint.values <= rows.max(axis=0))

    def test_outlier_resistant(self):
        ups = ups_from([[0.1], [0.2], [0.3], [1000.0]], layout=LAYOUT_1)
        res = coordinate_median(zero_joint(LAYOUT_1), ups)
        assert res.new_joint.values[0] == pytest.approx(0.25, rel=1e-12)


class TestFoolsGold:
    def test_identical_pair_loses_all_weight(self):
        # two clones pointing one way, two honest orthogonal clients
        ups = ups_from([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        res = foolsgold(zero_joint(), ups)
        assert res.scores[0] == 0.0 and res.scores[1] == 0.0
        assert res.scores[2] == 1.0 and res.scores[3] == 1.0
        assert res.kept_clients == [2, 3]
        assert np.allclose(res.new_joint.values, [0.0, 0.0], atol=1e-15)

    def test_pardoning_hand_case(self):
        # similarities: cs01=0.8, cs02=0.6, cs12=0, client 3 negative to all.
        # max similarities are [0.8, 0.8, 0.6, -0.6]; only client 2 is
        # pardoned (0.6/0.8), leaving weights before the logit at
        # [0.2, 0.2, 0.55, 1].
        ups = ups_from([[1.0, 0.0], [0.8, 0.6], [0.6, -0.8], [-1.0, 0.0]])
        res = foolsgold(zero_joint(), ups)
        assert res.scores[0] == 0.0
        assert res.scores[1] == 0.0
        assert res.scores[2] == pytest.approx(math.log(0.55 / 0.45) + 0.5, rel=1e-9)
        assert res.scores[3] == 1.0

        w2 = res.scores[2] / (res.scores[2] + 1.0)
        w3 = 1.0 / (res.scores[2] + 1.0)
        assert res.per_client_weight[2] == pytest.approx(w2, rel=1e-9)
        assert res.per_client_weight[3] == pytest.approx(w3, rel=1e-9)
        want = np.array([0.6 * w2 - w3, -0.8 * w2])
        assert np.allclose(res.new_joint.values, want, rtol=1e-9, atol=1e-12)

    def test_direction_only(self):
        # rescaling a delta by a positive factor does not change any weight
        rows = np.array([[1.0, 0.2], [0.9, 0.3], [-0.5, 1.0], [0.1, -1.0]])
        a = foolsgold(zero_joint(), ups_from(rows))
        scaled = rows.copy()
        scaled[1] *= 37.0
        scaled[3] *= 0.01
        b = foolsgold(zero_joint(), ups_from(scaled))
        for c in range(4):
            assert a.scores[c] == pytest.approx(b.scores[c], rel=1e-9, abs=1e-12)

    def test_zero_norm_update_gets_zero_similarity(self):
        ups = ups_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = foolsgold(zero_joint(), ups)
        # the zero client matches nobody, so its credibility is full
        assert res.scores[0] == 1.0

    def test_pardoning_matches_loop_form_bitwise(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            vectors = rng.normal(size=(n, 6))
            if trial % 4 == 1:
                vectors[: n // 2] = vectors[0] + 1e-3 * rng.normal(size=(n // 2, 6))  # sybil cohort
            if trial % 4 == 2:
                vectors[0] = 0.0  # zero-norm client
            if trial % 4 == 3:
                # client 2 resembles nobody: its row maximum is 0 and it is never pardoned
                vectors = np.array([[1.0, 0.0, 0.0], [0.01, 1.0, 0.0], [-1.0, -0.5, 0.0]])
            assert np.array_equal(_foolsgold_weights(vectors), foolsgold_weights_loop(vectors))

    def test_all_identical_leaves_joint_unchanged(self):
        ups = ups_from(np.tile([2.0, 2.0], (4, 1)))
        res = foolsgold(zero_joint(), ups)
        assert res.kept_clients == []
        assert np.array_equal(res.new_joint.values, np.zeros(2))
        assert all(w == 0.0 for w in res.per_client_weight.values())


class TestFgKrum:
    def spread_updates(self):
        return ups_from([[0.0, 0.1], [0.1, 0.0], [0.1, 0.2], [0.2, 0.1],
                         [3.0, 3.0]])

    def test_krum_first_drops_outlier_then_reweights(self):
        res = fg_krum(zero_joint(), self.spread_updates(), assumed_malicious=1)
        assert 4 not in res.kept_clients
        assert res.scores[4] == min(res.scores.values())  # krum scores reported

    def test_krum_first_single_survivor_used_directly(self):
        # FoolsGold over one survivor gives it weight 1: the joint moves by its delta
        ups = ups_from([[0.0], [0.1], [0.2], [5.0]], layout=LAYOUT_1)
        res = fg_krum(zero_joint(LAYOUT_1), ups, assumed_malicious=1)
        assert len(res.kept_clients) == 1
        only = res.kept_clients[0]
        assert res.per_client_weight[only] == 1.0
        assert res.new_joint.values[0] == ups[only].delta.values[0]

    def test_fg_first_filters_clones_before_krum(self):
        ups = ups_from([[1.0, 0.0], [1.0, 0.0], [0.0, 0.3], [0.1, 0.2],
                        [0.2, 0.1], [0.3, 0.0]])
        res = fg_krum(zero_joint(), ups, assumed_malicious=1, order="fg_first")
        assert 0 not in res.kept_clients and 1 not in res.kept_clients

    def test_fg_first_two_positive_returns_foolsgold_unchanged(self):
        # two clone pairs lose all weight; only clients 4 and 5 stay positive,
        # too few for Krum, so the FoolsGold result comes back as is
        ups = ups_from([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                        [-1.0, 0.1], [0.0, -1.0]])
        fg = foolsgold(zero_joint(), ups)
        assert fg.kept_clients == [4, 5]
        res = fg_krum(zero_joint(), ups, assumed_malicious=1, order="fg_first")
        assert np.array_equal(res.new_joint.values, fg.new_joint.values)
        assert res.kept_clients == fg.kept_clients
        assert res.per_client_weight == fg.per_client_weight
        assert res.scores == fg.scores

    def test_fg_first_clamps_assumed_malicious(self):
        # six updates 60 degrees apart all keep FoolsGold weight; assuming 5
        # malicious leaves no Krum window, so Krum assumes 6 - 3 = 3 instead
        angles = np.deg2rad(60.0 * np.arange(6))
        radii = np.array([1.0, 1.1, 1.2, 1.3, 5.0, 6.0])
        ups = ups_from(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))
        assert len(foolsgold(zero_joint(), ups).kept_clients) == 6
        with pytest.raises(ValueError):
            krum(zero_joint(), ups, assumed_malicious=5)
        res = fg_krum(zero_joint(), ups, assumed_malicious=5, order="fg_first")
        assert res.kept_clients == krum(zero_joint(), ups, assumed_malicious=3).kept_clients
        assert len(res.kept_clients) == 2
        assert sum(res.per_client_weight.values()) == pytest.approx(1.0, rel=1e-12)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            fg_krum(zero_joint(), self.spread_updates(), 1, order="sideways")


class TestResultShape:
    def test_aggregation_result_fields(self):
        res = fedavg(zero_joint(), ups_from([[1.0, 1.0]]))
        assert isinstance(res, AggregationResult)
        assert res.scores is None
        assert res.epsilon_used is None and res.h_used is None
        assert res.per_client_weight[0] == 1.0
