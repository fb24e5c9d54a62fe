import math

import numpy as np
import pytest

from lomarlab.metrics import RocPoint, confusion_counts, eval_accuracy, roc_from_scores
from lomarlab.models import ModelSpec, ROLE_CLEAN, ROLE_MALICIOUS
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
        roles = {0: ROLE_CLEAN, 1: ROLE_CLEAN, 2: ROLE_MALICIOUS, 3: ROLE_MALICIOUS,
                 4: ROLE_CLEAN}
        n_t, n_f, m_t, m_f = confusion_counts([0, 2], roles)
        assert (n_t, n_f, m_t, m_f) == (1, 1, 1, 2)

    def test_identities(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 12))
            roles = {i: (ROLE_MALICIOUS if rng.random() < 0.3 else ROLE_CLEAN)
                     for i in range(n)}
            kept = [i for i in range(n) if rng.random() < 0.5]
            n_t, n_f, m_t, m_f = confusion_counts(kept, roles)
            assert n_t + m_f == sum(1 for r in roles.values() if r == ROLE_CLEAN)
            assert n_f + m_t == sum(1 for r in roles.values() if r == ROLE_MALICIOUS)
            assert n_t + n_f == len(kept)

    def test_unknown_kept_id_rejected(self):
        with pytest.raises(ValueError):
            confusion_counts([7], {0: ROLE_CLEAN, 1: ROLE_MALICIOUS})


def roc_points_by_sets(scores, roles):
    """The ROC sweep as one kept-set rebuild per distinct threshold."""
    clean = [c for c, r in roles.items() if r == ROLE_CLEAN]
    malicious = [c for c, r in roles.items() if r == ROLE_MALICIOUS]
    points = [RocPoint(float("inf"), 0.0, 0.0)]
    for theta in sorted(set(scores.values()), reverse=True):
        kept = {c for c, s in scores.items() if s >= theta}
        points.append(RocPoint(float(theta), sum(c in kept for c in clean) / len(clean),
                               sum(c in kept for c in malicious) / len(malicious)))
    return points


class TestRoc:
    def test_hand_case(self):
        scores = {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
        roles = {0: ROLE_CLEAN, 1: ROLE_CLEAN, 2: ROLE_MALICIOUS, 3: ROLE_MALICIOUS}
        points, auc = roc_from_scores(scores, roles)
        assert auc == pytest.approx(0.75, rel=1e-12)
        assert points[0] == RocPoint(float("inf"), 0.0, 0.0)
        assert points[-1].sensitivity == 1.0
        assert points[-1].one_minus_specificity == 1.0
        # threshold 4 keeps one clean client and no malicious
        assert points[1].threshold == 4.0
        assert points[1].sensitivity == 0.5
        assert points[1].one_minus_specificity == 0.0

    def test_perfect_separation(self):
        scores = {0: 5.0, 1: 4.0, 2: 1.0, 3: 0.5}
        roles = {0: ROLE_CLEAN, 1: ROLE_CLEAN, 2: ROLE_MALICIOUS, 3: ROLE_MALICIOUS}
        _, auc = roc_from_scores(scores, roles)
        assert auc == 1.0

    def test_inverted_separation(self):
        scores = {0: 1.0, 1: 0.5, 2: 5.0, 3: 4.0}
        roles = {0: ROLE_CLEAN, 1: ROLE_CLEAN, 2: ROLE_MALICIOUS, 3: ROLE_MALICIOUS}
        _, auc = roc_from_scores(scores, roles)
        assert auc == 0.0

    def test_all_tied_scores_give_half(self):
        scores = {0: 2.0, 1: 2.0}
        roles = {0: ROLE_CLEAN, 1: ROLE_MALICIOUS}
        _, auc = roc_from_scores(scores, roles)
        assert auc == pytest.approx(0.5, rel=1e-12)

    def test_auc_equals_pairwise_probability(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_c, n_m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            scores = {}
            roles = {}
            for i in range(n_c):
                scores[i] = float(rng.normal())
                roles[i] = ROLE_CLEAN
            for j in range(n_m):
                scores[100 + j] = float(rng.normal())
                roles[100 + j] = ROLE_MALICIOUS
            _, auc = roc_from_scores(scores, roles)
            wins = ties = 0
            for i in range(n_c):
                for j in range(n_m):
                    if scores[i] > scores[100 + j]:
                        wins += 1
                    elif scores[i] == scores[100 + j]:
                        ties += 1
            want = (wins + 0.5 * ties) / (n_c * n_m)
            assert auc == pytest.approx(want, rel=1e-9)

    def test_tied_scores_one_point_per_distinct_value(self):
        scores = {0: 1.0, 1: 1.0, 2: 0.0, 3: 1.0, 4: 0.0}
        roles = {0: ROLE_CLEAN, 1: ROLE_MALICIOUS, 2: ROLE_MALICIOUS, 3: ROLE_CLEAN, 4: ROLE_CLEAN}
        points, auc = roc_from_scores(scores, roles)
        assert points == [RocPoint(float("inf"), 0.0, 0.0), RocPoint(1.0, 2 / 3, 0.5),
                          RocPoint(0.0, 1.0, 1.0)]
        # clean beats malicious in 2 of 6 pairs and ties in 3
        assert auc == pytest.approx(3.5 / 6, rel=1e-12)

    def test_infinite_scores_accepted(self):
        inf = float("inf")
        scores = {0: inf, 1: -inf, 2: 0.5, 3: -inf, 4: inf}
        roles = {0: ROLE_CLEAN, 1: ROLE_MALICIOUS, 2: ROLE_CLEAN, 3: ROLE_CLEAN, 4: ROLE_MALICIOUS}
        points, auc = roc_from_scores(scores, roles)
        assert points == roc_points_by_sets(scores, roles)
        assert [p.threshold for p in points] == [inf, inf, 0.5, -inf]
        assert auc == pytest.approx(3.0 / 6, rel=1e-12)

    def test_matches_set_sweep_with_ties(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            values = rng.integers(0, 5, size=n).astype(float)
            roles = {i: (ROLE_MALICIOUS if i % 3 == 0 else ROLE_CLEAN) for i in range(n)}
            roles[n] = ROLE_MALICIOUS
            roles[n + 1] = ROLE_CLEAN
            scores = {i: float(v) for i, v in enumerate(values)} | {n: 2.0, n + 1: 2.0}
            points, _ = roc_from_scores(scores, roles)
            assert points == roc_points_by_sets(scores, roles)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        scores = {i: float(rng.normal()) for i in range(10)}
        roles = {i: (ROLE_MALICIOUS if i < 3 else ROLE_CLEAN) for i in range(10)}
        _, base = roc_from_scores(scores, roles)
        _, scaled = roc_from_scores({c: 3.0 * s + 11.0 for c, s in scores.items()}, roles)
        _, warped = roc_from_scores({c: math.exp(s) for c, s in scores.items()}, roles)
        assert scaled == pytest.approx(base, rel=1e-12)
        assert warped == pytest.approx(base, rel=1e-12)

    def test_coverage_and_role_checks(self):
        roles = {0: ROLE_CLEAN, 1: ROLE_MALICIOUS}
        with pytest.raises(ValueError):
            roc_from_scores({0: 1.0}, roles)
        with pytest.raises(ValueError):
            roc_from_scores({0: 1.0, 1: 2.0}, {0: ROLE_CLEAN, 1: ROLE_CLEAN})
        with pytest.raises(ValueError):
            roc_from_scores({0: float("nan"), 1: 2.0}, roles)
