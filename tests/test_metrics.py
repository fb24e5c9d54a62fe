import math

import numpy as np
import pytest

from lomarlab.metrics import RocPoint, confusion_counts, eval_accuracy, roc_from_scores
from lomarlab.models import ModelSpec
from lomarlab.params import ParamVector


def sign_model():
    """1-D two-class model that predicts label 1 exactly when x > 0."""
    spec = ModelSpec(kind="logistic", input_dim=1, num_labels=2)
    params = ParamVector(np.array([-1.0, 0.0, 1.0, 0.0]), spec.layout())
    return spec, params


class TestEvalAccuracy:
    def test_overall_target_other(self):
        spec, params = sign_model()
        x = np.array([[-1.0], [1.0], [2.0]])
        y = np.array([0, 1, 0])  # the last sample is misclassified
        overall, target, other = eval_accuracy(params, x, y, spec,
                                               target_label=0, source_label=1)
        assert overall == pytest.approx(2.0 / 3.0)
        assert target == pytest.approx(0.5)
        assert math.isnan(other)  # two-label task has no third class

    def test_other_accuracy_with_three_labels(self):
        spec = ModelSpec(kind="logistic", input_dim=1, num_labels=3)
        params = ParamVector(np.zeros(6), spec.layout())  # always predicts 0
        x = np.zeros((6, 1))
        y = np.array([0, 0, 1, 1, 2, 2])
        overall, target, other = eval_accuracy(params, x, y, spec,
                                               target_label=1, source_label=0)
        assert overall == pytest.approx(2.0 / 6.0)
        assert target == 0.0
        assert other == 0.0  # label-2 samples only, all predicted 0

    def test_no_target_gives_nan_pair(self):
        spec, params = sign_model()
        overall, target, other = eval_accuracy(params, np.array([[1.0]]),
                                               np.array([1]), spec, None, None)
        assert overall == 1.0
        assert math.isnan(target) and math.isnan(other)

    def test_empty_test_set_rejected(self):
        spec, params = sign_model()
        with pytest.raises(ValueError):
            eval_accuracy(params, np.zeros((0, 1)), np.zeros(0, dtype=int), spec, 0, 1)

    def test_missing_target_label_rejected(self):
        spec, params = sign_model()
        with pytest.raises(ValueError):
            eval_accuracy(params, np.array([[1.0]]), np.array([1]), spec, 0, 1)


class TestConfusion:
    def test_counts(self):
        malicious = [False, False, True, True, False]
        n_t, n_f, m_t, m_f = confusion_counts([True, False, True, False, False], malicious)
        assert (n_t, n_f, m_t, m_f) == (1, 1, 1, 2)

    def test_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            malicious = np.array([rng.random() < 0.3 for _ in range(n)])
            kept = np.array([rng.random() < 0.5 for _ in range(n)])
            n_t, n_f, m_t, m_f = confusion_counts(kept, malicious)
            assert n_t + m_f == np.sum(~malicious)
            assert n_f + m_t == np.sum(malicious)
            assert n_t + n_f == np.sum(kept)

    def test_unknown_kept_id_rejected(self):
        # a kept entry past the last client names no client
        with pytest.raises(ValueError, match="kept mask"):
            confusion_counts([False, False, True], [False, True])


def roc_points_by_sets(scores, malicious):
    """The ROC sweep as one kept-set rebuild per distinct threshold."""
    scores, malicious = np.asarray(scores, dtype=float), np.asarray(malicious, dtype=bool)
    points = [RocPoint(float("inf"), 0.0, 0.0)]
    for theta in sorted(set(scores.tolist()), reverse=True):
        kept = scores >= theta
        points.append(RocPoint(float(theta), np.sum(kept & ~malicious) / np.sum(~malicious),
                               np.sum(kept & malicious) / np.sum(malicious)))
    return points


class TestRoc:
    def test_hand_case(self):
        points, auc = roc_from_scores([4.0, 2.0, 3.0, 1.0], [False, False, True, True])
        assert auc == pytest.approx(0.75, rel=1e-12)
        assert points[0] == RocPoint(float("inf"), 0.0, 0.0)
        assert points[-1].sensitivity == 1.0
        assert points[-1].one_minus_specificity == 1.0
        # threshold 4 keeps one clean client and no malicious
        assert points[1].threshold == 4.0
        assert points[1].sensitivity == 0.5
        assert points[1].one_minus_specificity == 0.0

    def test_perfect_separation(self):
        _, auc = roc_from_scores([5.0, 4.0, 1.0, 0.5], [False, False, True, True])
        assert auc == 1.0

    def test_inverted_separation(self):
        _, auc = roc_from_scores([1.0, 0.5, 5.0, 4.0], [False, False, True, True])
        assert auc == 0.0

    def test_all_tied_scores_give_half(self):
        _, auc = roc_from_scores([2.0, 2.0], [False, True])
        assert auc == pytest.approx(0.5, rel=1e-12)

    def test_auc_equals_pairwise_probability(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_c, n_m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            clean = [float(rng.normal()) for _ in range(n_c)]
            malicious = [float(rng.normal()) for _ in range(n_m)]
            _, auc = roc_from_scores(clean + malicious, [False] * n_c + [True] * n_m)
            wins = sum(c > m for c in clean for m in malicious)
            ties = sum(c == m for c in clean for m in malicious)
            want = (wins + 0.5 * ties) / (n_c * n_m)
            assert auc == pytest.approx(want, rel=1e-9)

    def test_tied_scores_one_point_per_distinct_value(self):
        points, auc = roc_from_scores([1.0, 1.0, 0.0, 1.0, 0.0], [False, True, True, False, False])
        assert points == [RocPoint(float("inf"), 0.0, 0.0), RocPoint(1.0, 2 / 3, 0.5),
                          RocPoint(0.0, 1.0, 1.0)]
        # clean beats malicious in 2 of 6 pairs and ties in 3
        assert auc == pytest.approx(3.5 / 6, rel=1e-12)

    def test_infinite_scores_accepted(self):
        inf = float("inf")
        scores = [inf, -inf, 0.5, -inf, inf]
        malicious = [False, True, False, False, True]
        points, auc = roc_from_scores(scores, malicious)
        assert points == roc_points_by_sets(scores, malicious)
        assert [p.threshold for p in points] == [inf, inf, 0.5, -inf]
        assert auc == pytest.approx(3.0 / 6, rel=1e-12)

    def test_matches_set_sweep_with_ties(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            scores = np.append(rng.integers(0, 5, size=n).astype(float), [2.0, 2.0])
            malicious = np.append(np.arange(n) % 3 == 0, [True, False])
            points, _ = roc_from_scores(scores, malicious)
            assert points == roc_points_by_sets(scores, malicious)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores = np.array([rng.normal() for _ in range(10)])
        malicious = np.arange(10) < 3
        _, base = roc_from_scores(scores, malicious)
        _, scaled = roc_from_scores(3.0 * scores + 11.0, malicious)
        _, warped = roc_from_scores(np.exp(scores), malicious)
        assert scaled == pytest.approx(base, rel=1e-12)
        assert warped == pytest.approx(base, rel=1e-12)

    def test_coverage_and_role_checks(self):
        with pytest.raises(ValueError):
            roc_from_scores([1.0], [False, True])
        with pytest.raises(ValueError):
            roc_from_scores([1.0, 2.0], [False, False])
        with pytest.raises(ValueError):
            roc_from_scores([float("nan"), 2.0], [False, True])
