import numpy as np
import pytest

from lomarlab.data import DataShard
from lomarlab.models import (
    ModelSpec,
    Round,
    local_train,
    loss_and_grad,
    predict,
)
from lomarlab.params import ParamVector


def logistic_spec(**kw):
    base = dict(kind="logistic", input_dim=3, num_labels=2,
                learning_rate=0.5, local_epochs=1, batch_size=1)
    base.update(kw)
    return ModelSpec(**base)


def mlp_spec(**kw):
    base = dict(kind="mlp", input_dim=4, num_labels=2, hidden_dim=3,
                learning_rate=0.1, local_epochs=1, batch_size=4)
    base.update(kw)
    return ModelSpec(**base)


def whole_pool_shard(x, y, owner, **kw):
    """A shard over every row of x, in order."""
    return DataShard(x, np.arange(len(y)), y, owner=owner, **kw)


class TestLayoutCounting:
    def test_logistic_blocks(self):
        lay = logistic_spec().layout()
        assert lay.label_ranges == ((0, 4), (4, 8))
        assert lay.shared_range == (8, 8)
        assert lay.size == 8

    def test_mlp_blocks(self):
        # per-label block is hidden_dim+1; shared holds W1 (3x4) and b1 (3)
        lay = mlp_spec().layout()
        assert lay.label_ranges == ((0, 4), (4, 8))
        assert lay.shared_range == (8, 23)
        assert lay.size == 23

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec(kind="tree")
        with pytest.raises(ValueError):
            ModelSpec(kind="mlp", hidden_dim=None)
        with pytest.raises(ValueError):
            ModelSpec(learning_rate=-0.1)
        with pytest.raises(ValueError):
            ModelSpec(num_labels=1)


class TestSingleStep:
    def test_exact_one_sample_delta(self):
        # From zero weights the probabilities are exactly [0.5, 0.5], so every
        # entry of the delta is a dyadic rational and matches bit for bit.
        spec = logistic_spec()
        shard = whole_pool_shard(np.array([[1.0, -2.0, 0.5]]), np.array([1]), owner=0)
        delta = local_train(spec.init_params(), shard, spec, 7)
        want = np.array([-0.25, 0.5, -0.125, -0.25, 0.25, -0.5, 0.125, 0.25])
        assert np.array_equal(delta, want)

    def test_zero_learning_rate_gives_zero_delta(self):
        spec = logistic_spec(learning_rate=0.0, local_epochs=4, batch_size=2)
        rng = np.random.default_rng(3)
        shard = whole_pool_shard(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6), owner=1)
        delta = local_train(spec.init_params(), shard, spec, 5)
        assert np.array_equal(delta, np.zeros(8))

    def test_label_slice_views_update(self):
        spec = logistic_spec()
        shard = whole_pool_shard(np.array([[1.0, -2.0, 0.5]]), np.array([1]), owner=0)
        delta = ParamVector(local_train(spec.init_params(), shard, spec, 7), spec.layout())
        assert np.array_equal(delta.values[delta.layout.label_slice(0)], delta.values[0:4])
        assert np.array_equal(delta.values[delta.layout.label_slice(1)], delta.values[4:8])


class TestTrainingDeterminism:
    def make_shard(self, rng, n=20, d=3, labels=2):
        return whole_pool_shard(rng.normal(size=(n, d)), rng.integers(0, labels, size=n), owner=2)

    def test_same_seed_same_delta(self):
        spec = logistic_spec(local_epochs=3, batch_size=4, learning_rate=0.1)
        shard = self.make_shard(np.random.default_rng(11))
        a = local_train(spec.init_params(), shard, spec, 123)
        b = local_train(spec.init_params(), shard, spec, 123)
        assert np.array_equal(a, b)

    def test_different_seed_different_delta(self):
        spec = logistic_spec(local_epochs=3, batch_size=4, learning_rate=0.1)
        shard = self.make_shard(np.random.default_rng(11))
        a = local_train(spec.init_params(), shard, spec, 123)
        b = local_train(spec.init_params(), shard, spec, 124)
        assert not np.array_equal(a, b)

    def test_generator_threading_reproduces_multi_epoch(self):
        # three single-epoch calls sharing one Generator == one 3-epoch call
        spec3 = logistic_spec(local_epochs=3, batch_size=4, learning_rate=0.1)
        spec1 = logistic_spec(local_epochs=1, batch_size=4, learning_rate=0.1)
        shard = self.make_shard(np.random.default_rng(21))

        whole = local_train(spec3.init_params(), shard, spec3, 77)

        gen = np.random.default_rng(77)
        joint = spec1.init_params()
        for _ in range(3):
            joint = ParamVector(joint.values + local_train(joint, shard, spec1, gen), joint.layout)
        assert np.allclose(joint.values - spec3.init_params().values, whole, rtol=0, atol=0)

    def test_seedsequence_accepted(self):
        spec = logistic_spec()
        shard = self.make_shard(np.random.default_rng(31), n=4)
        a = local_train(spec.init_params(), shard, spec, np.random.SeedSequence([9, 3, 1, 0]))
        b = local_train(spec.init_params(), shard, spec, np.random.SeedSequence([9, 3, 1, 0]))
        assert np.array_equal(a, b)


def reference_train(joint, shard, spec, seed):
    """Minibatch SGD written over the public loss_and_grad, one ParamVector per step; returns the delta."""
    rng = np.random.default_rng(seed)
    x, y = shard.pool[shard.rows], shard.labels
    n = x.shape[0]
    work = ParamVector(joint.values.copy(), joint.layout)
    for _ in range(spec.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            batch = order[start: start + spec.batch_size]
            _, grad = loss_and_grad(work, spec, x[batch], y[batch])
            work.values -= spec.learning_rate * grad.values
    return work.values - joint.values


class TestTrainingMatchesReference:
    # 23 samples at batch 5 leave a short last batch of 3 in every epoch
    @pytest.mark.parametrize("spec", [
        logistic_spec(num_labels=3, local_epochs=4, batch_size=5, learning_rate=0.3),
        mlp_spec(num_labels=3, local_epochs=4, batch_size=5, learning_rate=0.3),
    ], ids=["logistic", "mlp"])
    def test_local_train_is_bitwise_the_reference_loop(self, spec):
        rng = np.random.default_rng(41)
        # 23 rows out of a 40-row pool, out of order: training must gather pool[rows[batch]]
        shard = DataShard(rng.normal(size=(40, spec.input_dim)), rng.permutation(40)[:23],
                          rng.integers(0, 3, size=23), owner=4)
        joint = ParamVector(rng.normal(scale=0.5, size=spec.layout().size), spec.layout())
        got = local_train(joint, shard, spec, np.random.SeedSequence([5, 3, 1, 4]))
        want = reference_train(joint, shard, spec, np.random.SeedSequence([5, 3, 1, 4]))
        assert np.array_equal(got, want)
        assert got.shape == (joint.layout.size,)
        assert not np.array_equal(want, np.zeros_like(want))


def finite_difference_check(spec, params, x, y, tol):
    loss0, grad = loss_and_grad(params, spec, x, y)
    eps = 1e-6
    num = np.zeros_like(grad.values)
    for j in range(params.values.shape[0]):
        up = ParamVector(params.values.copy(), params.layout)
        up.values[j] += eps
        down = ParamVector(params.values.copy(), params.layout)
        down.values[j] -= eps
        lu, _ = loss_and_grad(up, spec, x, y)
        ld, _ = loss_and_grad(down, spec, x, y)
        num[j] = (lu - ld) / (2 * eps)
    err = np.max(np.abs(num - grad.values)) / max(1.0, np.max(np.abs(grad.values)))
    assert err < tol, f"finite-difference mismatch {err}"


class TestGradients:
    def test_logistic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        spec = logistic_spec(input_dim=4, num_labels=3)
        params = ParamVector(rng.normal(scale=0.5, size=spec.layout().size), spec.layout())
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        finite_difference_check(spec, params, x, y, 1e-4)

    def test_mlp_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        spec = mlp_spec()
        for _ in range(20):
            params = ParamVector(rng.normal(scale=0.7, size=spec.layout().size), spec.layout())
            x = rng.normal(size=(6, 4))
            w1, b1 = params.values[8:20].reshape(3, 4), params.values[20:23]
            pre = x @ w1.T + b1
            # the kink at 0 breaks the finite-difference estimate, so only
            # draws with a clear pre-activation margin are used
            if np.min(np.abs(pre)) > 1e-2:
                break
        else:
            pytest.fail("no margin case found")
        y = rng.integers(0, 2, size=6)
        finite_difference_check(spec, params, x, y, 1e-4)

    def test_loss_decreases_with_training(self):
        rng = np.random.default_rng(13)
        spec = logistic_spec(input_dim=2, learning_rate=0.5, local_epochs=20, batch_size=10)
        x = np.concatenate([rng.normal(loc=-2, size=(20, 2)), rng.normal(loc=2, size=(20, 2))])
        y = np.array([0] * 20 + [1] * 20)
        shard = whole_pool_shard(x, y, owner=0)
        joint = spec.init_params()
        before, _ = loss_and_grad(joint, spec, x, y)
        delta = local_train(joint, shard, spec, 1)
        after, _ = loss_and_grad(ParamVector(joint.values + delta, joint.layout), spec, x, y)
        assert after < before


class TestPredict:
    def test_zero_params_tie_resolves_to_lowest_label(self):
        spec = logistic_spec(num_labels=4)
        x = np.random.default_rng(2).normal(size=(5, 3))
        assert np.array_equal(predict(spec.init_params(), x, spec), np.zeros(5, dtype=np.int64))

    def test_single_vector_matches_batch(self):
        rng = np.random.default_rng(17)
        spec = logistic_spec()
        params = ParamVector(rng.normal(size=8), spec.layout())
        x = rng.normal(size=(4, 3))
        batch = predict(params, x, spec)
        singles = [predict(params, x[i], spec) for i in range(4)]
        assert np.array_equal(batch, np.array(singles))

    def test_feature_dim_mismatch(self):
        spec = logistic_spec()
        with pytest.raises(ValueError):
            predict(spec.init_params(), np.zeros((2, 5)), spec)

    def test_mlp_forward_runs(self):
        rng = np.random.default_rng(19)
        spec = mlp_spec()
        params = ParamVector(rng.normal(size=23), spec.layout())
        out = predict(params, rng.normal(size=(6, 4)), spec)
        assert out.shape == (6,)
        assert out.min() >= 0 and out.max() <= 1


class TestValidation:
    def test_round_needs_samples(self):
        spec = logistic_spec()
        with pytest.raises(ValueError, match="num_samples"):
            Round([0], [0], spec.init_params().values[None], spec.layout())
        with pytest.raises(ValueError, match="num_samples"):
            Round([0, 1], [3], np.zeros((2, 8)), spec.layout())

    def test_round_select_keeps_the_given_order(self):
        spec = logistic_spec()
        deltas = np.arange(24.0).reshape(3, 8)
        rnd = Round([7, 3, 9], [4, 5, 6], deltas, spec.layout())
        assert rnd.deltas is deltas  # a float64 matrix is taken without a copy
        picked = rnd.select([2, 0])
        assert picked.ids.tolist() == [9, 7]
        assert picked.num_samples.tolist() == [6, 4]
        assert np.array_equal(picked.deltas, deltas[[2, 0]])
        assert picked.layout == rnd.layout

    def test_local_train_rejects_bad_shards(self):
        spec = logistic_spec()
        with pytest.raises(ValueError, match="feature dim"):
            local_train(spec.init_params(),
                        whole_pool_shard(np.zeros((2, 5)), np.zeros(2, dtype=int), owner=0), spec, 1)
        with pytest.raises(ValueError, match="out of range"):
            local_train(spec.init_params(),
                        whole_pool_shard(np.zeros((2, 3)), np.array([0, 9]), owner=0), spec, 1)
        with pytest.raises(ValueError, match="empty"):
            local_train(spec.init_params(),
                        DataShard(np.zeros((2, 3)), np.empty(0, dtype=int), np.empty(0, dtype=int), owner=0),
                        spec, 1)

    def test_large_logits_stay_finite(self):
        spec = logistic_spec()
        params = ParamVector(np.full(8, 500.0), spec.layout())
        loss, grad = loss_and_grad(params, spec, np.ones((3, 3)) * 100, np.array([0, 1, 0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad.values))
