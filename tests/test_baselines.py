import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from lomarlab.lomar import KdeConfig, lomar_run
from lomarlab.models import ParamLayout, ParamVector, Round

LAYOUT_1 = ParamLayout((1,))
LAYOUT_2 = ParamLayout((1, 1))


def round_from(rows, layout=LAYOUT_2, ids=None):
    """A Round of the given rows; client ids default to the row positions."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return Round(np.arange(rows.shape[0]) if ids is None else ids, rows, layout)


def zero_joint(layout=LAYOUT_2):
    return ParamVector(np.zeros(layout.size), layout)


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
        rnd = round_from([[8.0, 0.0], [0.0, 8.0], [4.0, 4.0], [4.0, 4.0]])
        res = weighted_aggregate(zero_joint(), rnd, kept=[True, True, False, False])
        # alpha = 1 / 4 over ALL submitted, dropped weight just disappears:
        # 0.25 * [8, 0] + 0.25 * [0, 8]
        assert np.array_equal(res.new_joint.values, [2.0, 2.0])
        assert res.kept.tolist() == [True, True, False, False]

    def test_unknown_kept_id_rejected(self):
        # a mask entry past the round's one row names no submitted client
        rnd = round_from([[1.0, 0.0]])
        with pytest.raises(ValueError, match="kept mask"):
            weighted_aggregate(zero_joint(), rnd, kept=[True, True])

    def test_empty_kept_set_leaves_joint(self):
        rnd = round_from([[1.0, 0.0], [0.0, 1.0]])
        res = weighted_aggregate(zero_joint(), rnd, kept=[False, False])
        assert not res.kept.any()
        assert np.array_equal(res.new_joint.values, np.zeros(2))

    def test_empty_and_duplicate_updates_rejected(self):
        with pytest.raises(ValueError, match="no updates"):
            weighted_aggregate(zero_joint(), Round([], np.zeros((0, 2)), LAYOUT_2), kept=[])
        with pytest.raises(ValueError, match="duplicate client ids"):
            weighted_aggregate(zero_joint(), round_from([[1.0, 0.0], [0.0, 1.0]], ids=[0, 0]),
                               kept=[True, False])

    def test_layout_mismatch_rejected(self):
        rnd = round_from([[0.0]], layout=LAYOUT_1)
        with pytest.raises(ValueError, match="layout does not match"):
            weighted_aggregate(zero_joint(LAYOUT_2), rnd, kept=[True])

    def test_fedavg_equal_weighting(self):
        rnd = round_from([[4.0, 0.0], [0.0, 8.0]])
        res = fedavg(zero_joint(), rnd)
        assert np.array_equal(res.new_joint.values, [2.0, 4.0])
        assert res.kept.tolist() == [True, True]


class TestKrum:
    def toy(self):
        # four benign points spaced 0.1 apart and one far outlier
        return round_from([[0.0], [0.1], [0.2], [0.3], [100.0]], layout=LAYOUT_1)

    def test_toy_selection_and_average(self):
        res = krum(zero_joint(LAYOUT_1), self.toy(), assumed_malicious=1)
        # window = n-M-2 = 2; clients 1 and 2 both score 0.02 and win
        assert res.kept.tolist() == [False, True, True, False, False]
        # equal weights: 0.5 * 0.1 + 0.5 * 0.2
        assert res.new_joint.values[0] == pytest.approx(0.15, rel=1e-12)

    def test_scores_negated_for_keep_direction(self):
        res = krum(zero_joint(LAYOUT_1), self.toy(), assumed_malicious=1)
        assert res.scores[1] == pytest.approx(-0.02, rel=1e-9)
        assert res.scores[4] == res.scores.min()

    def test_outlier_never_chosen(self):
        res = krum(zero_joint(LAYOUT_1), self.toy(), assumed_malicious=1)
        assert not res.kept[4]

    def test_window_too_small_raises(self):
        rnd = round_from([[0.0], [1.0], [2.0], [3.0]], layout=LAYOUT_1)
        with pytest.raises(ValueError):
            krum(zero_joint(LAYOUT_1), rnd, assumed_malicious=2)
        with pytest.raises(ValueError):
            krum(zero_joint(LAYOUT_1), rnd, assumed_malicious=-1)
        with pytest.raises(ValueError):
            fg_krum(zero_joint(LAYOUT_1), rnd, assumed_malicious=-1)

    def test_select_count_floor_and_clamp(self):
        # n=5, M=2: floor(5 - 1 - 2) = 2 survivors
        rnd = round_from([[0.0], [0.1], [0.2], [0.3], [0.4]], layout=LAYOUT_1)
        res = krum(zero_joint(LAYOUT_1), rnd, assumed_malicious=2)
        assert res.kept.sum() == 2
        # n=4, M=1: floor(4 - 0.5 - 2) = 1 survivor
        rnd = round_from([[0.0], [0.1], [0.2], [5.0]], layout=LAYOUT_1)
        res = krum(zero_joint(LAYOUT_1), rnd, assumed_malicious=1)
        assert res.kept.sum() == 1

    def test_translation_invariant_selection(self):
        base = self.toy()
        shifted = round_from(base.deltas + 7.5, layout=LAYOUT_1)
        a = krum(zero_joint(LAYOUT_1), base, 1)
        b = krum(zero_joint(LAYOUT_1), shifted, 1)
        assert np.array_equal(a.kept, b.kept)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 14), data=st.data())
    def test_kept_set_ignores_client_order(self, seed, n, data):
        # which client survives a near tie at the cut is a rounding outcome, so
        # the set is checked only when no other total lies within 1e-6 of it
        layout = ParamLayout((2, 2), 1)
        rows = np.random.default_rng(seed).normal(size=(n, layout.size))
        assumed = data.draw(st.integers(0, n - 3))
        perm = np.array(data.draw(st.permutations(range(n))))
        base = krum(zero_joint(layout), round_from(rows, layout), assumed)
        res = krum(zero_joint(layout), round_from(rows[perm], layout, ids=perm), assumed)
        assert res.kept.sum() == base.kept.sum()
        totals = -base.scores
        cut = int(np.flatnonzero(base.kept)[np.argmax(totals[base.kept])])
        others = np.delete(totals, cut)
        if np.all(np.abs(others - totals[cut]) > 1e-6 * abs(totals[cut])):
            assert set(perm[res.kept].tolist()) == set(np.flatnonzero(base.kept).tolist())

    @pytest.mark.parametrize("position", range(8))
    def test_nan_row_ranks_last(self, position):
        # a NaN score sorts after every finite one, wherever the row sits
        rows = np.random.default_rng(3).normal(size=(8, 2))
        rows[position, 1] = np.nan
        res = krum(zero_joint(), round_from(rows), assumed_malicious=1)
        assert res.kept.sum() == 5
        assert not res.kept[position]
        assert math.isnan(res.scores[position])
        assert np.all(np.isfinite(res.new_joint.values))


class TestMedian:
    def test_even_cohort_averages_middle_pair(self):
        rnd = round_from([[1.0], [2.0], [4.0], [8.0]], layout=LAYOUT_1)
        res = coordinate_median(zero_joint(LAYOUT_1), rnd)
        assert res.new_joint.values[0] == pytest.approx(3.0, rel=1e-12)

    def test_odd_cohort_takes_middle(self):
        rnd = round_from([[1.0], [2.0], [9.0]], layout=LAYOUT_1)
        res = coordinate_median(zero_joint(LAYOUT_1), rnd)
        assert res.new_joint.values[0] == 2.0

    def test_per_coordinate(self):
        rnd = round_from([[1.0, 9.0], [2.0, 8.0], [3.0, 7.0]])
        res = coordinate_median(zero_joint(), rnd)
        assert np.array_equal(res.new_joint.values, [2.0, 8.0])

    def test_bounded_by_extremes(self):
        rng = np.random.default_rng(23)
        rows = rng.normal(size=(7, 2))
        res = coordinate_median(zero_joint(), round_from(rows))
        assert np.all(res.new_joint.values >= rows.min(axis=0))
        assert np.all(res.new_joint.values <= rows.max(axis=0))

    def test_outlier_resistant(self):
        rnd = round_from([[0.1], [0.2], [0.3], [1000.0]], layout=LAYOUT_1)
        res = coordinate_median(zero_joint(LAYOUT_1), rnd)
        assert res.new_joint.values[0] == pytest.approx(0.25, rel=1e-12)


class TestFoolsGold:
    def test_identical_pair_loses_all_weight(self):
        # two clones pointing one way, two honest orthogonal clients
        rnd = round_from([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        res = foolsgold(zero_joint(), rnd)
        assert res.scores[0] == 0.0 and res.scores[1] == 0.0
        assert res.scores[2] == 1.0 and res.scores[3] == 1.0
        assert res.kept.tolist() == [False, False, True, True]
        assert np.allclose(res.new_joint.values, [0.0, 0.0], atol=1e-15)

    def test_pardoning_hand_case(self):
        # similarities: cs01=0.8, cs02=0.6, cs12=0, client 3 negative to all.
        # max similarities are [0.8, 0.8, 0.6, -0.6]; only client 2 is
        # pardoned (0.6/0.8), leaving weights before the logit at
        # [0.2, 0.2, 0.55, 1].
        rnd = round_from([[1.0, 0.0], [0.8, 0.6], [0.6, -0.8], [-1.0, 0.0]])
        res = foolsgold(zero_joint(), rnd)
        assert res.scores[0] == 0.0
        assert res.scores[1] == 0.0
        assert res.scores[2] == pytest.approx(math.log(0.55 / 0.45) + 0.5, rel=1e-9)
        assert res.scores[3] == 1.0

        assert res.kept.tolist() == [False, False, True, True]
        w2 = res.scores[2] / (res.scores[2] + 1.0)
        w3 = 1.0 / (res.scores[2] + 1.0)
        want = np.array([0.6 * w2 - w3, -0.8 * w2])
        assert np.allclose(res.new_joint.values, want, rtol=1e-9, atol=1e-12)

    def test_direction_only(self):
        # rescaling a delta by a positive factor does not change any weight
        rows = np.array([[1.0, 0.2], [0.9, 0.3], [-0.5, 1.0], [0.1, -1.0]])
        a = foolsgold(zero_joint(), round_from(rows))
        scaled = rows.copy()
        scaled[1] *= 37.0
        scaled[3] *= 0.01
        b = foolsgold(zero_joint(), round_from(scaled))
        for c in range(4):
            assert a.scores[c] == pytest.approx(b.scores[c], rel=1e-9, abs=1e-12)

    def test_zero_norm_update_gets_zero_similarity(self):
        rnd = round_from([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = foolsgold(zero_joint(), rnd)
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
        rnd = round_from(np.tile([2.0, 2.0], (4, 1)))
        res = foolsgold(zero_joint(), rnd)
        assert not res.kept.any()
        assert np.array_equal(res.new_joint.values, np.zeros(2))
        assert np.all(res.scores == 0.0)

    @pytest.mark.parametrize("position", range(8))
    def test_nan_row_is_ignored(self, position):
        # eight 6-dim rows, at least three of whose weights lie strictly
        # inside (0, 1), so the normalizing sum has real terms to reorder
        layout = ParamLayout((3, 3))
        rows = np.random.default_rng(2).normal(size=(8, 6)) + 0.3
        rows[position, 4] = np.nan
        joint = ParamVector(np.linspace(-1.0, 1.0, 6), layout)
        res = foolsgold(joint, round_from(rows, layout))
        others = np.delete(np.arange(8), position)
        alone = foolsgold(joint, round_from(rows[others], layout, ids=others))
        assert np.sum((alone.scores > 0.0) & (alone.scores < 1.0)) >= 3
        assert not res.kept[position] and res.scores[position] == 0.0
        assert np.array_equal(res.scores[others], alone.scores)
        assert np.array_equal(res.kept[others], alone.kept)
        assert np.array_equal(res.new_joint.values, alone.new_joint.values)

    def test_all_nan_round_keeps_no_one(self):
        joint = ParamVector([0.5, -0.25], LAYOUT_2)
        res = foolsgold(joint, round_from(np.full((8, 2), np.nan)))
        assert not res.kept.any()
        assert np.all(res.scores == 0.0)
        assert np.array_equal(res.new_joint.values, joint.values)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 14), data=st.data())
    def test_kept_count_ignores_client_order(self, seed, n, data):
        # a sybil cohort of near-duplicates of row 0 loses its weight, so the count varies with its size;
        # whether a client whose weight sits at the cut is kept is a rounding outcome, so the count is
        # checked only when no weight on either side lies within 1e-9 above 0
        layout = ParamLayout((2, 2), 1)
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(n, layout.size))
        cohort = data.draw(st.integers(0, n))
        rows[:cohort] = rows[0] + 1e-3 * rng.normal(size=(cohort, layout.size))
        perm = np.array(data.draw(st.permutations(range(n))))
        base = foolsgold(zero_joint(layout), round_from(rows, layout))
        res = foolsgold(zero_joint(layout), round_from(rows[perm], layout, ids=perm))
        assert np.allclose(res.scores, base.scores[perm], rtol=1e-9, atol=1e-12)
        assert np.array_equal(res.kept, res.scores > 0.0)
        scores = np.concatenate([base.scores, res.scores])
        if not np.any((scores > 0.0) & (scores <= 1e-9)):
            assert res.kept.sum() == base.kept.sum()


class TestFgKrum:
    def spread_updates(self):
        return round_from([[0.0, 0.1], [0.1, 0.0], [0.1, 0.2], [0.2, 0.1],
                         [3.0, 3.0]])

    def test_krum_first_drops_outlier_then_reweights(self):
        res = fg_krum(zero_joint(), self.spread_updates(), assumed_malicious=1)
        assert not res.kept[4]
        assert res.scores[4] == res.scores.min()  # krum scores reported

    def test_krum_first_single_survivor_used_directly(self):
        # FoolsGold over one survivor gives it weight 1: the joint moves by its delta
        rnd = round_from([[0.0], [0.1], [0.2], [5.0]], layout=LAYOUT_1)
        res = fg_krum(zero_joint(LAYOUT_1), rnd, assumed_malicious=1)
        assert res.kept.sum() == 1
        assert res.new_joint.values[0] == rnd.deltas[res.kept][0, 0]

    def test_fg_first_filters_clones_before_krum(self):
        rnd = round_from([[1.0, 0.0], [1.0, 0.0], [0.0, 0.3], [0.1, 0.2],
                        [0.2, 0.1], [0.3, 0.0]])
        res = fg_krum(zero_joint(), rnd, assumed_malicious=1, order="fg_first")
        assert not res.kept[0] and not res.kept[1]

    def test_fg_first_two_positive_returns_foolsgold_unchanged(self):
        # two clone pairs lose all weight; only clients 4 and 5 stay positive,
        # too few for Krum, so the FoolsGold result comes back as is
        rnd = round_from([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                        [-1.0, 0.1], [0.0, -1.0]])
        fg = foolsgold(zero_joint(), rnd)
        assert np.flatnonzero(fg.kept).tolist() == [4, 5]
        res = fg_krum(zero_joint(), rnd, assumed_malicious=1, order="fg_first")
        assert np.array_equal(res.new_joint.values, fg.new_joint.values)
        assert np.array_equal(res.kept, fg.kept)
        assert np.array_equal(res.scores, fg.scores)

    def test_fg_first_clamps_assumed_malicious(self):
        # six updates 60 degrees apart all keep FoolsGold weight; assuming 5
        # malicious leaves no Krum window, so Krum assumes 6 - 3 = 3 instead
        angles = np.deg2rad(60.0 * np.arange(6))
        radii = np.array([1.0, 1.1, 1.2, 1.3, 5.0, 6.0])
        rnd = round_from(np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1))
        assert foolsgold(zero_joint(), rnd).kept.all()
        with pytest.raises(ValueError):
            krum(zero_joint(), rnd, assumed_malicious=5)
        res = fg_krum(zero_joint(), rnd, assumed_malicious=5, order="fg_first")
        assert np.array_equal(res.kept, krum(zero_joint(), rnd, assumed_malicious=3).kept)
        assert res.kept.sum() == 2
        # the survivors' credibility weights are renormalized to sum to 1
        w = foolsgold(zero_joint(), rnd).scores[res.kept]
        assert np.allclose(res.new_joint.values, w @ rnd.deltas[res.kept] / w.sum(), rtol=1e-12, atol=0)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            fg_krum(zero_joint(), self.spread_updates(), 1, order="sideways")


class TestResultShape:
    def test_aggregation_result_fields(self):
        res = fedavg(zero_joint(), round_from([[1.0, 1.0]]))
        assert isinstance(res, AggregationResult)
        assert res.scores is None
        assert res.epsilon_used is None and res.h_used is None
        assert res.kept.dtype == bool and res.kept.tolist() == [True]
        assert np.array_equal(res.new_joint.values, [1.0, 1.0])

    @pytest.mark.parametrize("rule", [
        lambda j, r: fedavg(j, r), lambda j, r: krum(j, r, 1), lambda j, r: coordinate_median(j, r),
        lambda j, r: foolsgold(j, r), lambda j, r: fg_krum(j, r, 1, order="krum_first"),
        lambda j, r: fg_krum(j, r, 1, order="fg_first")],
        ids=["fedavg", "krum", "median", "foolsgold", "fg_krum-krum_first", "fg_krum-fg_first"])
    def test_kept_and_scores_follow_the_rows(self, rule):
        # ids out of order: both arrays are indexed by row position, not by id
        rows = np.array([[0.0, 0.1], [0.1, 0.0], [3.0, -3.0], [0.1, 0.2], [0.2, 0.1], [-0.1, 0.3]])
        ids = np.array([40, 7, 19, 3, 25, 11])
        res = rule(zero_joint(), round_from(rows, ids=ids))
        perm = [5, 2, 0, 4, 1, 3]
        permuted = rule(zero_joint(), round_from(rows[perm], ids=ids[perm]))
        assert res.kept.shape == (6,)
        assert np.array_equal(permuted.kept, res.kept[perm])
        if res.scores is not None:
            assert res.scores.shape == (6,)
            assert np.allclose(permuted.scores, res.scores[perm], rtol=1e-12, atol=1e-15)


# Every rule takes a models.Round, whose constructor validates the round.
SHARED_STACKER_RULES = {
    "lomar_run": lambda rnd: lomar_run(rnd, KdeConfig(k=1)),
    "weighted_aggregate": lambda rnd: weighted_aggregate(zero_joint(), rnd, np.ones(len(rnd.ids), dtype=bool)),
    "krum": lambda rnd: krum(zero_joint(), rnd, assumed_malicious=0),
    "coordinate_median": lambda rnd: coordinate_median(zero_joint(), rnd),
    "foolsgold": lambda rnd: foolsgold(zero_joint(), rnd),
    "fg_krum-krum_first": lambda rnd: fg_krum(zero_joint(), rnd, 0, order="krum_first"),
    "fg_krum-fg_first": lambda rnd: fg_krum(zero_joint(), rnd, 0, order="fg_first"),
}
JOINT_RULES = {name: rule for name, rule in SHARED_STACKER_RULES.items() if name != "lomar_run"}
# Same size as LAYOUT_2 but one label block, so only the layout check can tell them apart.
LAYOUT_2_ONE_LABEL = ParamLayout((2,))


@pytest.mark.parametrize("rule", SHARED_STACKER_RULES.values(), ids=SHARED_STACKER_RULES.keys())
class TestSharedStacker:
    def rows(self):
        return [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.3, -1.0]]

    def test_valid_round_accepted(self, rule):
        rule(round_from(self.rows()))

    def test_empty_round_rejected(self, rule):
        with pytest.raises(ValueError, match="no updates|at least 2"):
            rule(Round([], np.zeros((0, 2)), LAYOUT_2))

    def test_repeated_id_rejected(self, rule):
        with pytest.raises(ValueError, match="duplicate client ids"):
            rule(round_from(self.rows(), ids=[0, 1, 0, 3]))

    def test_layout_mismatch_rejected(self, rule):
        # three-parameter rows do not fit the two-parameter layout
        with pytest.raises(ValueError, match="layout does not match"):
            rule(round_from(np.ones((4, 3))))


@pytest.mark.parametrize("rule", JOINT_RULES.values(), ids=JOINT_RULES.keys())
def test_round_layout_must_match_the_joint(rule):
    with pytest.raises(ValueError, match="layout does not match"):
        rule(round_from([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.3, -1.0]], layout=LAYOUT_2_ONE_LABEL))


def test_lomar_run_rejects_a_single_update():
    with pytest.raises(ValueError, match="at least 2"):
        lomar_run(round_from([[1.0, 0.0]]), KdeConfig(k=1))


def loop_sum(joint, weighted):
    """The reference weighted sum: values = values + w * delta, in the order given."""
    values = joint.values.copy()
    for w, delta in weighted:
        if w > 0:
            values = values + w * delta
    return values


def best_first(rnd, scores, kept):
    """Positions of the kept rows in Krum's best-first order (scores are negated, ties by lower id)."""
    return np.array(sorted(np.flatnonzero(kept), key=lambda i: (-scores[i], rnd.ids[i])))


def foolsgold_pairs(rnd):
    wv = _foolsgold_weights(rnd.deltas)
    return list(zip(wv / wv.sum(), rnd.deltas))


class TestSummationOrder:
    """new_joint equals, bit for bit, an explicit loop in the documented order.

    Deltas span several orders of magnitude, so a different order (or a
    matrix product) would change the last bits.
    """

    layout = ParamLayout((3, 3))

    @pytest.fixture
    def rnd(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(12, 6)) * 10.0 ** rng.integers(-3, 4, size=(12, 1))
        rows[:4] = rows[0] + 1e-9 * rng.normal(size=(4, 6))  # a clone cohort FoolsGold zeroes
        return round_from(rows, layout=self.layout)

    def zero(self):
        return zero_joint(self.layout)

    def test_fedavg_and_weighted_aggregate(self, rnd):
        joint = ParamVector(np.linspace(-0.7, 0.3, 6), self.layout)
        # FedAvg's sample-count weight over 12 equal shards of 600 rows
        rows, total = list(zip(rnd.ids.tolist(), rnd.deltas)), 600 * len(rnd.ids)
        want = loop_sum(joint, [(600 / total, d) for _, d in rows])
        assert np.array_equal(fedavg(joint, rnd).new_joint.values, want)
        kept = [1, 4, 5, 8, 11]
        mask = np.isin(rnd.ids, kept)
        want = loop_sum(joint, [(600 / total if c in kept else 0.0, d) for c, d in rows])
        assert np.array_equal(weighted_aggregate(joint, rnd, mask).new_joint.values, want)

    def test_foolsgold_in_input_order(self, rnd):
        res = foolsgold(self.zero(), rnd)
        assert 0 < res.kept.sum() < len(rnd.ids)
        assert np.array_equal(res.new_joint.values, loop_sum(self.zero(), foolsgold_pairs(rnd)))

    def test_krum_in_input_order(self, rnd):
        res = krum(self.zero(), rnd, assumed_malicious=3)
        take = res.kept.sum()
        want = loop_sum(self.zero(), [(1.0 / take if kept else 0.0, d) for kept, d in zip(res.kept, rnd.deltas)])
        assert np.array_equal(res.new_joint.values, want)

    def test_krum_first_reweights_survivors_best_first(self, rnd):
        selection = krum(self.zero(), rnd, assumed_malicious=2)
        order = best_first(rnd, selection.scores, selection.kept)
        assert order.tolist() != sorted(order)
        survivors = rnd.select(order)
        res = fg_krum(self.zero(), rnd, assumed_malicious=2, order="krum_first")
        assert np.array_equal(res.new_joint.values, loop_sum(self.zero(), foolsgold_pairs(survivors)))

    def test_fg_first_sums_krum_survivors_best_first(self, rnd):
        inner = foolsgold(self.zero(), rnd)
        positive = np.flatnonzero(inner.kept)
        pool = rnd.select(positive)
        selection = krum(self.zero(), pool, assumed_malicious=0)
        order = positive[best_first(pool, selection.scores, selection.kept)]
        assert order.tolist() != sorted(order)
        total = sum(inner.scores[i] for i in order)
        res = fg_krum(self.zero(), rnd, assumed_malicious=0, order="fg_first")
        want = loop_sum(self.zero(), [(inner.scores[i] / total, rnd.deltas[i]) for i in order])
        assert np.array_equal(res.new_joint.values, want)
