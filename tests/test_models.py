import re
import tracemalloc

import numpy as np
import pytest

from lomarlab import models
from lomarlab.data import DataShard
from lomarlab.models import (
    EVAL_CHUNK_ROWS,
    TRAIN_GROUP_BYTES,
    ModelSpec,
    ParamVector,
    Round,
    local_train,
    loss_and_grad,
    predict,
)


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


# Both sides of numpy's 8-term threshold, above which its row sums are pairwise, and the paper's 10 labels.
LABEL_COUNTS = [2, 7, 8, 10]


def label_cases(**kw):
    """(specs, ids): a logistic and an MLP spec with `kw` at each of LABEL_COUNTS."""
    cases = [(kind, make(num_labels=r, **kw), r) for kind, make in (("logistic", logistic_spec), ("mlp", mlp_spec))
             for r in LABEL_COUNTS]
    return [spec for _, spec, _ in cases], [f"{kind}-{r}-labels" for kind, _, r in cases]


def whole_pool_shard(x, y, owner, **kw):
    """(pool, shard): x rounded to a float32 pool and a shard over every row of it, in order."""
    return np.asarray(x, dtype=np.float32), DataShard(np.arange(len(y)), y, owner=owner, **kw)


class TestLayoutCounting:
    def test_logistic_blocks(self):
        lay = logistic_spec().layout()
        assert lay.label_sizes == (4, 4)
        assert lay.shared_size == 0
        assert [lay.label_slice(r) for r in range(2)] == [slice(0, 4), slice(4, 8)]
        assert lay.size == 8

    def test_mlp_blocks(self):
        # per-label block is hidden_dim+1; shared holds W1 (3x4) and b1 (3)
        lay = mlp_spec().layout()
        assert lay.label_sizes == (4, 4)
        assert lay.shared_size == 15
        assert [lay.label_slice(r) for r in range(2)] == [slice(0, 4), slice(4, 8)]
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


class TestFitToData:
    @pytest.mark.parametrize("dims", [{"input_dim": 0}, {"num_labels": 1}], ids=["input-dim-0", "num-labels-1"])
    def test_a_set_dim_is_range_checked(self, dims):
        with pytest.raises(ValueError, match="need input_dim >= 1 and num_labels >= 2"):
            ModelSpec(**dims)

    def test_unset_dims_come_from_the_data(self):
        spec = ModelSpec(kind="mlp", hidden_dim=3, learning_rate=0.2)
        assert spec.input_dim is None and spec.num_labels is None
        assert spec.fit(5, 4) == ModelSpec(kind="mlp", input_dim=5, num_labels=4, hidden_dim=3, learning_rate=0.2)

    def test_fit_keeps_a_dim_that_matches_the_data(self):
        assert ModelSpec(input_dim=5).fit(5, 4) == ModelSpec(input_dim=5, num_labels=4)
        assert ModelSpec(num_labels=4).fit(5, 4) == ModelSpec(input_dim=5, num_labels=4)

    @pytest.mark.parametrize("spec, match", [
        pytest.param(ModelSpec(input_dim=6), "input_dim 6 != the data's 5", id="input-dim"),
        pytest.param(ModelSpec(num_labels=3), "num_labels 3 != the data's 4", id="num-labels"),
    ])
    def test_fit_rejects_a_dim_the_data_does_not_have(self, spec, match):
        with pytest.raises(ValueError, match=match):
            spec.fit(5, 4)


    @pytest.mark.parametrize("spec", [ModelSpec(), ModelSpec(input_dim=5), ModelSpec(num_labels=3),
                                      ModelSpec(kind="mlp", hidden_dim=3, num_labels=4)],
                             ids=["no-dims", "no-labels", "no-input-dim", "mlp-no-input-dim"])
    @pytest.mark.parametrize("use", [lambda spec: spec.layout(), lambda spec: spec.init_params(),
                                     lambda spec: spec.output_fan_in],
                             ids=["layout", "init_params", "output_fan_in"])
    def test_an_unfitted_spec_says_to_fit(self, spec, use):
        with pytest.raises(ValueError, match=r"call fit\(input_dim, num_labels\) first"):
            use(spec)


class TestSingleStep:
    def test_exact_one_sample_delta(self):
        # From zero weights the probabilities are exactly [0.5, 0.5], so every
        # entry of the delta is a dyadic rational and matches bit for bit.
        spec = logistic_spec()
        pool, shard = whole_pool_shard(np.array([[1.0, -2.0, 0.5]]), np.array([1]), owner=0)
        delta = local_train(spec.init_params(), pool, [shard], spec, [7])[0]
        want = np.array([-0.25, 0.5, -0.125, -0.25, 0.25, -0.5, 0.125, 0.25])
        assert np.array_equal(delta, want)

    def test_zero_learning_rate_gives_zero_delta(self):
        spec = logistic_spec(learning_rate=0.0, local_epochs=4, batch_size=2)
        rng = np.random.default_rng(3)
        pool, shard = whole_pool_shard(rng.normal(size=(6, 3)), rng.integers(0, 2, size=6), owner=1)
        delta = local_train(spec.init_params(), pool, [shard], spec, [5])[0]
        assert np.array_equal(delta, np.zeros(8))

    def test_label_slice_views_update(self):
        spec = logistic_spec()
        pool, shard = whole_pool_shard(np.array([[1.0, -2.0, 0.5]]), np.array([1]), owner=0)
        delta = ParamVector(local_train(spec.init_params(), pool, [shard], spec, [7])[0], spec.layout())
        assert np.array_equal(delta.values[delta.layout.label_slice(0)], delta.values[0:4])
        assert np.array_equal(delta.values[delta.layout.label_slice(1)], delta.values[4:8])


class TestTrainingDeterminism:
    def make_shard(self, rng, n=20, d=3, labels=2):
        return whole_pool_shard(rng.normal(size=(n, d)), rng.integers(0, labels, size=n), owner=2)

    def test_same_seed_same_delta(self):
        spec = logistic_spec(local_epochs=3, batch_size=4, learning_rate=0.1)
        pool, shard = self.make_shard(np.random.default_rng(11))
        a = local_train(spec.init_params(), pool, [shard], spec, [123])[0]
        b = local_train(spec.init_params(), pool, [shard], spec, [123])[0]
        assert np.array_equal(a, b)

    def test_different_seed_different_delta(self):
        spec = logistic_spec(local_epochs=3, batch_size=4, learning_rate=0.1)
        pool, shard = self.make_shard(np.random.default_rng(11))
        a = local_train(spec.init_params(), pool, [shard], spec, [123])[0]
        b = local_train(spec.init_params(), pool, [shard], spec, [124])[0]
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("batch_size", [20, 64], ids=["batch-is-shard", "batch-above-shard"])
    def test_a_shard_that_fits_one_batch_trains_alike_under_any_seed(self, batch_size):
        # every epoch takes the shard in stored order, so colluders on byte-identical full-batch shards
        # get byte-identical deltas whatever their seeds
        spec = logistic_spec(local_epochs=3, batch_size=batch_size, learning_rate=0.1)
        pool, shard = self.make_shard(np.random.default_rng(11))
        a, b = local_train(spec.init_params(), pool, [shard, shard], spec, [123, 124])
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, np.zeros_like(a))

    def test_generator_threading_reproduces_multi_epoch(self):
        # three single-epoch calls sharing one Generator == one 3-epoch call
        spec3 = logistic_spec(local_epochs=3, batch_size=4, learning_rate=0.1)
        spec1 = logistic_spec(local_epochs=1, batch_size=4, learning_rate=0.1)
        pool, shard = self.make_shard(np.random.default_rng(21))

        whole = local_train(spec3.init_params(), pool, [shard], spec3, [77])[0]

        gen = np.random.default_rng(77)
        joint = spec1.init_params()
        for _ in range(3):
            joint = ParamVector(joint.values + local_train(joint, pool, [shard], spec1, [gen])[0], joint.layout)
        assert np.allclose(joint.values - spec3.init_params().values, whole, rtol=0, atol=0)
        # the shard spans several batches, so every call drew from the shared generator
        assert len(shard) > spec1.batch_size
        assert gen.bit_generator.state != np.random.default_rng(77).bit_generator.state

    @pytest.mark.parametrize("batch_size, draws", [(4, 3), (20, 0), (64, 0)],
                             ids=["several-batches", "batch-is-shard", "batch-above-shard"])
    def test_a_shard_draws_one_permutation_per_epoch_only_when_it_spans_several_batches(self, batch_size, draws):
        spec = logistic_spec(local_epochs=3, batch_size=batch_size, learning_rate=0.1)
        pool, shard = self.make_shard(np.random.default_rng(23))
        gen, twin = np.random.default_rng(5), np.random.default_rng(5)
        local_train(spec.init_params(), pool, [shard], spec, [gen])
        for _ in range(draws):
            twin.permutation(len(shard))
        assert gen.bit_generator.state == twin.bit_generator.state

    def test_seedsequence_accepted(self):
        spec = logistic_spec()
        pool, shard = self.make_shard(np.random.default_rng(31), n=4)
        a = local_train(spec.init_params(), pool, [shard], spec, [np.random.SeedSequence([9, 3, 1, 0])])[0]
        b = local_train(spec.init_params(), pool, [shard], spec, [np.random.SeedSequence([9, 3, 1, 0])])[0]
        assert np.array_equal(a, b)


def reference_train(joint, pool, shard, spec, seed, dtype=np.float32):
    """Minibatch SGD in `dtype`, out of place over reference_grad: a new vector per step.

    Starts from the joint rounded to `dtype` on the shard's pool rows widened to
    it; the delta is taken against that start in `dtype` and widened to float64.
    Each epoch shuffles the shard, unless it fits in one batch: then every epoch
    takes it in stored order.
    """
    rng = np.random.default_rng(seed)
    x, y = pool[shard.rows].astype(dtype), shard.labels
    n = x.shape[0]
    start = work = joint.values.astype(dtype)
    for _ in range(spec.local_epochs):
        order = np.arange(n) if n <= spec.batch_size else rng.permutation(n)
        for begin in range(0, n, spec.batch_size):
            batch = order[begin: begin + spec.batch_size]
            grad, _ = reference_grad(work, spec, x[batch], y[batch])
            work = work - spec.learning_rate * grad
    return (work - start).astype(np.float64)


def reference_grad(values, spec, x, y):
    """Mean cross-entropy gradient at the flat vector `values` and the true-label probabilities,
    written out of place in the dtype of `values` and x.

    The same float operations, on the same operands and in the same order, as
    the in-place kernel behind loss_and_grad and local_train.
    """
    m, r, d = spec.output_fan_in, spec.num_labels, spec.input_dim
    split = r * (m + 1)
    blocks = values[:split].reshape(r, m + 1)
    w, b = blocks[:, :m], blocks[:, m]
    if spec.kind == "logistic":
        pre = hidden = x
    else:
        w1, b1 = values[split: split + m * d].reshape(m, d), values[split + m * d:]
        pre = x @ w1.T + b1
        hidden = np.maximum(pre, 0.0)
    logits = hidden @ w.T + b
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    dlogits = e / e.sum(axis=1, keepdims=True)
    rows = np.arange(len(x))
    p_true = dlogits[rows, y]
    dlogits[rows, y] -= 1.0
    dlogits /= len(x)
    grad = np.zeros_like(values)
    grad_blocks = grad[:split].reshape(r, m + 1)
    grad_blocks[:, :m] = dlogits.T @ hidden
    grad_blocks[:, m] = dlogits.sum(axis=0)
    if spec.kind == "mlp":
        dhidden = (dlogits @ w) * (pre > 0.0)
        grad[split: split + m * d] = (dhidden.T @ x).ravel()
        grad[split + m * d:] = dhidden.sum(axis=0)
    return grad, p_true


class TestTrainingMatchesReference:
    LABEL_SPECS, LABEL_IDS = label_cases(local_epochs=4, batch_size=5, learning_rate=0.3)

    # 23 samples at batch 5 leave a short last batch of 3 in every epoch; a
    # batch of 64 is larger than the whole shard and one of 23 is exactly it,
    # so both train it in stored order; a one-row shard trains one
    # single-sample step per epoch.
    @pytest.mark.parametrize("spec, shard_rows", [
        (logistic_spec(num_labels=3, local_epochs=4, batch_size=5, learning_rate=0.3), 23),
        (mlp_spec(num_labels=3, local_epochs=4, batch_size=5, learning_rate=0.3), 23),
        (logistic_spec(num_labels=3, local_epochs=3, batch_size=64, learning_rate=0.3), 23),
        (mlp_spec(num_labels=3, local_epochs=3, batch_size=64, learning_rate=0.3), 23),
        (logistic_spec(num_labels=3, local_epochs=3, batch_size=23, learning_rate=0.3), 23),
        (mlp_spec(num_labels=3, local_epochs=3, batch_size=23, learning_rate=0.3), 23),
        (logistic_spec(num_labels=3, local_epochs=3, batch_size=5, learning_rate=0.3), 1),
        (mlp_spec(num_labels=3, local_epochs=3, batch_size=5, learning_rate=0.3), 1),
        *[(spec, 23) for spec in LABEL_SPECS],
    ], ids=["logistic", "mlp", "logistic-batch-above-shard", "mlp-batch-above-shard",
            "logistic-batch-is-shard", "mlp-batch-is-shard", "logistic-one-row", "mlp-one-row", *LABEL_IDS])
    def test_local_train_is_bitwise_the_reference_loop(self, spec, shard_rows):
        rng = np.random.default_rng(41)
        # rows out of a 40-row pool, out of order: training must gather pool[rows[batch]]
        pool = rng.normal(size=(40, spec.input_dim)).astype(np.float32)
        shard = DataShard(rng.permutation(40)[:shard_rows], rng.integers(0, spec.num_labels, size=shard_rows), owner=4)
        joint = ParamVector(rng.normal(scale=0.5, size=spec.layout().size), spec.layout())
        got = local_train(joint, pool, [shard], spec, [np.random.SeedSequence([5, 3, 1, 4])])[0]
        want = reference_train(joint, pool, shard, spec, np.random.SeedSequence([5, 3, 1, 4]))
        assert np.array_equal(got, want)
        assert got.shape == (joint.layout.size,)
        assert not np.array_equal(want, np.zeros_like(want))
        # against the float64 loop: at most one float32 rounding at the weights' scale per step, plus the start
        wide = reference_train(joint, pool, shard, spec, np.random.SeedSequence([5, 3, 1, 4]), dtype=np.float64)
        steps = spec.local_epochs * -(-shard_rows // spec.batch_size)
        assert np.abs(got - wide).max() <= (steps + 1) * np.finfo(np.float32).eps * np.abs(joint.values).max()

    @pytest.mark.parametrize("spec", [logistic_spec(num_labels=3, local_epochs=3, batch_size=5, learning_rate=0.3),
                                      mlp_spec(num_labels=3, local_epochs=3, batch_size=5, learning_rate=0.3)],
                             ids=["logistic", "mlp"])
    def test_byte_identical_shards_train_alike(self, spec):
        # colluders on copies of one shard: the same rows, held at other places of
        # another pool, train through the same float32 operations on the same bytes
        rng = np.random.default_rng(53)
        pool = rng.normal(size=(40, spec.input_dim)).astype(np.float32)
        rows, labels = rng.permutation(40)[:23], rng.integers(0, 3, size=23)
        moved = rng.permutation(60)[:23]
        other = rng.normal(size=(60, spec.input_dim)).astype(np.float32)
        other[moved] = pool[rows]
        joint = ParamVector(rng.normal(scale=0.5, size=spec.layout().size), spec.layout())
        got = local_train(joint, pool, [DataShard(rows, labels, owner=4)], spec, [11])[0]
        twin = local_train(joint, other, [DataShard(moved, labels, owner=5)], spec, [11])[0]
        assert got.dtype == twin.dtype == np.float64
        assert got.tobytes() == twin.tobytes()
        assert not np.array_equal(got, np.zeros_like(got))

    @pytest.mark.parametrize("spec", [logistic_spec(num_labels=3), mlp_spec(num_labels=3), *LABEL_SPECS],
                             ids=["logistic", "mlp", *LABEL_IDS])
    @pytest.mark.parametrize("batch", [1, 5, 23])
    def test_loss_and_grad_is_bitwise_the_out_of_place_formula(self, spec, batch):
        rng = np.random.default_rng(43)
        params = ParamVector(rng.normal(scale=2.0, size=spec.layout().size), spec.layout())
        x, y = rng.normal(size=(batch, spec.input_dim)), rng.integers(0, spec.num_labels, size=batch)
        loss, grad = loss_and_grad(params, spec, x, y)
        want_grad, p_true = reference_grad(params.values, spec, x, y)
        assert grad.values.tobytes() == want_grad.tobytes()
        assert loss == -np.mean(np.log(np.clip(p_true, 1e-300, None)))

    @pytest.mark.parametrize("spec", [logistic_spec(num_labels=3, local_epochs=2, batch_size=5),
                                      mlp_spec(num_labels=3, local_epochs=2, batch_size=5)],
                             ids=["logistic", "mlp"])
    def test_joint_is_left_unchanged_and_unshared(self, spec):
        rng = np.random.default_rng(47)
        pool, shard = whole_pool_shard(rng.normal(size=(12, spec.input_dim)), rng.integers(0, 3, size=12), owner=5)
        joint = ParamVector(rng.normal(size=spec.layout().size), spec.layout())
        before = joint.values.copy()
        delta = local_train(joint, pool, [shard], spec, [9])[0]
        assert joint.values.tobytes() == before.tobytes()
        assert not np.shares_memory(delta, joint.values)
        assert not np.array_equal(delta, np.zeros_like(delta))

    # Values recorded with numpy 2.4.6 and its bundled OpenBLAS, where they
    # match bitwise. Tiny matmuls may round differently in another CPU's BLAS
    # kernel, so the pin allows 1e-12 relative.
    @pytest.mark.parametrize("spec, want", [
        (logistic_spec(input_dim=4, num_labels=3), 1.5032884170851415),
        (mlp_spec(input_dim=4, num_labels=3), 1.0330014121660052),
    ], ids=["logistic", "mlp"])
    def test_loss_is_pinned(self, spec, want):
        rng = np.random.default_rng(29)
        params = ParamVector(rng.normal(scale=0.5, size=spec.layout().size), spec.layout())
        x = rng.normal(size=(7, 4))
        y = rng.integers(0, 3, size=7)
        assert loss_and_grad(params, spec, x, y)[0] == pytest.approx(want, rel=1e-12, abs=0)


class TestGroupedTraining:
    """One call over many shards: each row is bitwise the delta its shard trains alone, however the shards
    fall into lockstep groups."""

    BATCH = 5
    INPUT_DIM = TRAIN_GROUP_BYTES // (3 * 4 * BATCH)  # a group holds three float32 batch gathers
    # 10 shards of 23 rows: groups of 3, 3, 3 and a partial 1; at batch 5 each epoch ends in a short batch
    PLAN = [23] * 10
    GROUP_SIZES = [3, 3, 3, 1]
    COLLUDERS = [0, 4, 9]  # first of group 1, middle of group 2, alone in the last group

    def call(self, spec):
        """(joint, pool, shards, seeds): the colluders hold byte-identical shards and seeds."""
        rng = np.random.default_rng(67)
        pool = rng.normal(size=(60, spec.input_dim)).astype(np.float32)
        shards = [DataShard(rng.permutation(60)[:n], rng.integers(0, spec.num_labels, size=n), owner=owner)
                  for owner, n in enumerate(self.PLAN)]
        seeds = [np.random.SeedSequence([3, owner]) for owner in range(len(shards))]
        for i in self.COLLUDERS[1:]:
            shards[i] = DataShard(shards[0].rows, shards[0].labels, owner=i)
            seeds[i] = seeds[0]
        joint = ParamVector(rng.normal(scale=0.02, size=spec.layout().size), spec.layout())
        return joint, pool, shards, seeds

    SPECS = [logistic_spec(input_dim=INPUT_DIM, num_labels=3, local_epochs=2, batch_size=BATCH, learning_rate=0.3),
             mlp_spec(input_dim=INPUT_DIM, num_labels=3, local_epochs=2, batch_size=BATCH, learning_rate=0.3)]
    LABEL_SPECS, LABEL_IDS = label_cases(input_dim=INPUT_DIM, local_epochs=2, batch_size=BATCH, learning_rate=0.3)

    @pytest.mark.parametrize("spec", SPECS + LABEL_SPECS, ids=["logistic", "mlp", *LABEL_IDS])
    @pytest.mark.parametrize("shuffled", [False, True], ids=["in-order", "shuffled"])
    def test_each_delta_is_bitwise_its_lone_delta(self, spec, shuffled):
        joint, pool, shards, seeds = self.call(spec)
        lone = [local_train(joint, pool, [shard], spec, [seed])[0] for shard, seed in zip(shards, seeds)]
        order = np.random.default_rng(71).permutation(len(shards)) if shuffled else np.arange(len(shards))
        got = local_train(joint, pool, [shards[i] for i in order], spec, [seeds[i] for i in order])
        assert got.shape == (len(shards), spec.layout().size) and got.dtype == np.float64
        for row, i in zip(got, order):
            assert row.tobytes() == lone[i].tobytes(), i
        colluder_rows = {lone[i].tobytes() for i in self.COLLUDERS}
        others = {lone[i].tobytes() for i in range(len(shards)) if i not in self.COLLUDERS}
        assert len(colluder_rows) == 1
        assert len(others | colluder_rows) == len(shards) - len(self.COLLUDERS) + 1
        assert not any(np.array_equal(row, np.zeros_like(row)) for row in lone)

    @pytest.mark.parametrize("spec", SPECS, ids=["logistic", "mlp"])
    def test_groups_break_at_the_cap_and_a_new_length(self, spec, monkeypatch):
        # every group unpacks its stacked working rows and gradient rows once
        stacks, unpack = [], models._unpack
        monkeypatch.setattr(models, "_unpack", lambda values, spec: stacks.append(values.shape) or unpack(values, spec))
        joint, pool, shards, seeds = self.call(spec)
        local_train(joint, pool, shards, spec, seeds)
        assert [shape[0] for shape in stacks[::2]] == self.GROUP_SIZES
        assert stacks[::2] == stacks[1::2]
        # a shard of a new length ends the call before any group is stacked
        stacks.clear()
        shards[7] = DataShard(shards[7].rows[:19], shards[7].labels[:19], owner=7)
        with pytest.raises(ValueError, match=r"shards of \[19, 23\] rows"):
            local_train(joint, pool, shards, spec, seeds)
        assert stacks == []


class TestLabelReductions:
    """The softmax's row max and row sum over the labels are bitwise numpy's own row reductions, on the batch
    shapes the benchmark workloads train (small's 28 x 200, paper_fgkrum's 1 x 600, paper_lomar's groups of 8 and
    2 x 20) and one lone row."""

    SHAPES = [(28, 200), (1, 600), (8, 20), (2, 20), (1, 1)]

    @staticmethod
    def exp_outputs(rng, shape, dtype):
        """exp's range at `dtype`: +0.0, subnormals, normals up to a 32nd of the largest (no 17 of them overflow)
        and +inf."""
        info = np.finfo(dtype)
        p = np.exp(rng.uniform(-20.0, 20.0, size=shape)).astype(dtype)
        kind = rng.integers(0, 8, size=shape)
        p[kind == 0] = 0.0
        p[kind == 1] = info.smallest_subnormal * rng.integers(1, 1000, size=np.count_nonzero(kind == 1))
        p[kind == 2] = info.max / 32
        p[rng.random(shape) < 0.01] = np.inf
        return p

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("labels", range(2, 18))
    def test_label_max_and_sum_are_numpys_row_reductions(self, labels, dtype):
        rng = np.random.default_rng(labels)
        for shape in self.SHAPES:
            logits = rng.normal(scale=30.0, size=(*shape, labels)).astype(dtype)
            want = np.maximum.reduce(logits, axis=-1, keepdims=True)
            assert models._label_reduce(np.maximum, logits).tobytes() == want.tobytes()
            p = self.exp_outputs(rng, (*shape, labels), dtype)
            want = np.add.reduce(p, axis=-1, keepdims=True)
            assert models._label_reduce(np.add, p).tobytes() == want.tobytes()
        # numpy's row sum is pairwise from 8 terms on: a label-major sum no longer gives its bytes there
        if labels >= 8:
            p = rng.random((28, 200, labels)).astype(dtype)
            label_major = np.add.reduce(np.moveaxis(p, -1, 0).copy(), axis=0)[..., None]
            assert label_major.tobytes() != np.add.reduce(p, axis=-1, keepdims=True).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("labels", LABEL_COUNTS)
    def test_a_row_holding_nan_comes_out_nan(self, labels, dtype):
        rng = np.random.default_rng(labels)
        p = self.exp_outputs(rng, (8, 20, labels), dtype)
        nan_rows = rng.random((8, 20)) < 0.2
        p[nan_rows, rng.integers(0, labels, size=np.count_nonzero(nan_rows))] = np.nan
        for ufunc in (np.maximum, np.add):
            got, want = models._label_reduce(ufunc, p)[..., 0], ufunc.reduce(p, axis=-1)
            assert np.array_equal(np.isnan(got), nan_rows) and np.array_equal(np.isnan(want), nan_rows)
            assert got[~nan_rows].tobytes() == want[~nan_rows].tobytes()


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
        pool, shard = whole_pool_shard(x, y, owner=0)
        joint = spec.init_params()
        before, _ = loss_and_grad(joint, spec, x, y)
        delta = local_train(joint, pool, [shard], spec, [1])[0]
        after, _ = loss_and_grad(ParamVector(joint.values + delta, joint.layout), spec, x, y)
        assert after < before


def reference_predict(params, spec, x):
    """Argmax of the logits of the whole batch at once, in float64."""
    x = np.asarray(x, dtype=np.float64)
    m, r, d = spec.output_fan_in, spec.num_labels, spec.input_dim
    split = r * (m + 1)
    blocks = params.values[:split].reshape(r, m + 1)
    hidden = x
    if spec.kind == "mlp":
        w1, b1 = params.values[split: split + m * d].reshape(m, d), params.values[split + m * d:]
        hidden = np.maximum(x @ w1.T + b1, 0.0)
    return np.argmax(hidden @ blocks[:, :m].T + blocks[:, m], axis=1)


class TestPredict:
    @pytest.mark.parametrize("spec", [logistic_spec(input_dim=6, num_labels=5),
                                      mlp_spec(input_dim=6, num_labels=5, hidden_dim=4)],
                             ids=["logistic", "mlp"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunks_give_the_one_shot_labels(self, spec, dtype):
        # three full chunks and a partial fourth
        rng = np.random.default_rng(59)
        x = rng.normal(size=(3 * EVAL_CHUNK_ROWS + 37, spec.input_dim)).astype(dtype)
        params = ParamVector(rng.normal(size=spec.layout().size), spec.layout())
        got, want = predict(params, x, spec), reference_predict(params, spec, x)
        assert got.dtype == np.int64 and got.shape == (len(x),)
        assert np.array_equal(got, want)
        assert len(np.unique(got)) > 2  # not a constant or near-constant answer
        single = predict(params, x[-1], spec)
        assert single.shape == () and single == want[-1]

    def test_a_float32_test_set_is_never_widened_whole(self):
        spec = logistic_spec(input_dim=64, num_labels=3)
        rng = np.random.default_rng(61)
        x = rng.normal(size=(4 * EVAL_CHUNK_ROWS, 64)).astype(np.float32)
        params = ParamVector(rng.normal(size=spec.layout().size), spec.layout())
        predict(params, x[:10], spec)
        tracemalloc.start()
        try:
            predict(params, x, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one float64 chunk is half of x; a whole float64 copy would be twice x
        assert peak < 0.75 * x.nbytes

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
    def test_round_select_keeps_the_given_order(self):
        spec = logistic_spec()
        deltas = np.arange(24.0).reshape(3, 8)
        rnd = Round([7, 3, 9], deltas, spec.layout())
        assert rnd.deltas is deltas  # a float64 matrix is taken without a copy
        picked = rnd.select([2, 0])
        assert picked.ids.tolist() == [9, 7]
        assert np.array_equal(picked.deltas, deltas[[2, 0]])
        assert picked.layout == rnd.layout

    def test_local_train_rejects_bad_shards(self):
        spec = logistic_spec()
        pool, shard = whole_pool_shard(np.zeros((2, 5)), np.zeros(2, dtype=int), owner=0)
        with pytest.raises(ValueError, match="with 3 columns"):
            local_train(spec.init_params(), pool, [shard], spec, [1])
        pool, shard = whole_pool_shard(np.zeros((2, 3)), np.array([0, 9]), owner=0)
        with pytest.raises(ValueError, match="out of range"):
            local_train(spec.init_params(), pool, [shard], spec, [1])
        with pytest.raises(ValueError, match="empty"):
            local_train(spec.init_params(), pool, [DataShard(np.empty(0, dtype=int), np.empty(0, dtype=int), owner=0)],
                        spec, [1])

    @pytest.mark.parametrize("seeds", [[1], [1, 2, 3]], ids=["fewer-seeds", "more-seeds"])
    def test_local_train_needs_one_seed_per_shard(self, seeds):
        spec = logistic_spec()
        shards = [DataShard([0, 1], [0, 1], owner=i) for i in range(2)]
        with pytest.raises(ValueError, match=f"2 shards but {len(seeds)} seeds"):
            local_train(spec.init_params(), np.zeros((2, 3), dtype=np.float32), shards, spec, seeds)

    @pytest.mark.parametrize("bad, match", [
        (DataShard(np.empty(0, dtype=int), np.empty(0, dtype=int), owner=1), "empty"),
        # the first shard's length: both would train in one group
        (DataShard([2, 3], [1, 2], owner=1), "out of range"),
    ], ids=["empty", "labels"])
    def test_local_train_checks_every_shard_not_only_the_first(self, bad, match):
        spec = logistic_spec()
        pool = np.zeros((4, 3), dtype=np.float32)
        with pytest.raises(ValueError, match=match):
            local_train(spec.init_params(), pool, [DataShard([0, 1], [0, 1], owner=0), bad], spec, [1, 2])

    @pytest.mark.parametrize("pool, bad, match", [
        *[(np.zeros((6, 3), dtype=dtype), None, "not 2-D float32")
          for dtype in (np.float16, np.float64, np.int64, np.uint8, np.complex128)],
        (np.zeros(6, dtype=np.float32), None, "not 2-D float32"),
        (np.zeros((6, 3, 1), dtype=np.float32), None, "not 2-D float32"),
        (np.zeros((6, 2), dtype=np.float32), None, "with 3 columns"),
        (np.zeros((6, 4), dtype=np.float32), None, "with 3 columns"),
        (np.zeros((6, 3), dtype=np.float32), (3, []), "empty shard"),
        (np.zeros((6, 3), dtype=np.float32), (1, [2, 6, 3]), "past the pool's 6 rows"),
        (np.zeros((6, 3), dtype=np.float32), (3, [0, 6, 2]), "past the pool's 6 rows"),
    ], ids=["float16", "float64", "int64", "uint8", "complex128", "1-D", "3-D", "narrower", "wider", "empty",
            "rows-in-the-first-group", "rows-in-a-later-group"])
    def test_local_train_rejects_a_bad_pool_or_shard(self, pool, bad, match, monkeypatch):
        # four shards of 3 rows at batch 2, capped at two per lockstep group: two groups, in each of which a
        # bad-row shard is second
        monkeypatch.setattr(models, "TRAIN_GROUP_BYTES", 2 * 2 * 3 * 4)
        spec = logistic_spec(batch_size=2)
        shards = [DataShard(rows, np.zeros(len(rows), dtype=int), owner=i)
                  for i, rows in enumerate([[0, 1, 3], [2, 3, 4], [1, 4, 5], [0, 2, 5]])]
        if bad is not None:
            position, rows = bad
            shards[position] = DataShard(rows, np.zeros(len(rows), dtype=int), owner=position)
        with pytest.raises(ValueError, match=match):
            local_train(spec.init_params(), pool, shards, spec, [1, 2, 3, 4])

    @pytest.mark.parametrize("lengths", [[2, 3], [3, 3, 2], [1, 4, 1]],
                             ids=["two-lengths", "last-shorter", "middle-longer"])
    def test_local_train_rejects_shards_of_mixed_lengths(self, lengths, monkeypatch):
        monkeypatch.setattr(models, "_gradient", lambda *a: pytest.fail("a step ran"))
        spec = logistic_spec()
        shards = [DataShard(np.arange(n), np.zeros(n, dtype=int), owner=i) for i, n in enumerate(lengths)]
        with pytest.raises(ValueError, match=re.escape(f"shards of {sorted(set(lengths))} rows")):
            local_train(spec.init_params(), np.zeros((4, 3), dtype=np.float32), shards, spec, list(range(len(shards))))

    def test_local_train_without_shards_returns_no_rows(self):
        spec = logistic_spec()
        deltas = local_train(spec.init_params(), np.zeros((4, 3), dtype=np.float32), [], spec, [])
        assert deltas.shape == (0, spec.layout().size) and deltas.dtype == np.float64

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_labels_outside_the_model_rejected(self, bad):
        spec = logistic_spec(num_labels=3)
        x, y = np.zeros((2, 3)), np.array([0, bad])
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            loss_and_grad(spec.init_params(), spec, x, y)
        pool, shard = whole_pool_shard(x, y, owner=0)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            local_train(spec.init_params(), pool, [shard], spec, [1])

    @pytest.mark.parametrize("x, y, match", [
        (np.zeros((3, 3)), [0, 1, 0, 1], r"3 rows and labels of shape \(4,\)"),
        (np.zeros((3, 3)), [[0], [1], [0]], r"3 rows and labels of shape \(3, 1\)"),
        (np.zeros((2, 4)), [0, 1], r"batch of shape \(2, 4\) is not 2-D with 3 columns"),
        (np.zeros(3), [0], r"batch of shape \(3,\) is not 2-D"),
        (np.zeros((0, 3)), [], r"0 rows .* at least one row"),
    ], ids=["mismatched-lengths", "2-D-labels", "feature-dim", "1-D", "empty"])
    def test_loss_and_grad_checks_its_batch(self, x, y, match, monkeypatch):
        monkeypatch.setattr(models, "_gradient", lambda *a: pytest.fail("the kernel ran"))
        spec = logistic_spec()
        with pytest.raises(ValueError, match=match):
            loss_and_grad(spec.init_params(), spec, x, y)

    def test_large_logits_stay_finite(self):
        spec = logistic_spec()
        params = ParamVector(np.full(8, 500.0), spec.layout())
        loss, grad = loss_and_grad(params, spec, np.ones((3, 3)) * 100, np.array([0, 1, 0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad.values))
