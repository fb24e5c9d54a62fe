import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lomarlab import data
from lomarlab.data import (
    _BOX_MULLER_CHUNK,
    DataShard,
    IdxFormatError,
    PartitionPlan,
    _Pool,
    _standard_normal_f32,
    load_idx,
    major_count,
    partition,
    synth_gaussian,
)
from lomarlab.models import ModelSpec, local_train


def write_idx_pair(tmp_path, images, labels):
    """Write a minimal IDX image/label file pair and return the paths."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "imgs.idx3-ubyte"
    lab_path = tmp_path / "labs.idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", 2051, n, rows, cols) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 2049, len(labels)) + labels.tobytes())
    return img_path, lab_path


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        ip, lp = write_idx_pair(tmp_path, images, labels)
        x, y = load_idx(ip, lp)
        assert x.shape == (5, 12)
        assert x.dtype == np.float32
        assert np.array_equal(y, labels.astype(np.int64))
        assert np.allclose(x, images.reshape(5, 12) / 255.0, rtol=1e-7, atol=0)
        assert np.array_equal(x, images.reshape(5, 12).astype(np.float32) / np.float32(255))
        assert x.max() <= 1.0 and x.min() >= 0.0

    def test_every_pixel_is_float32_k_over_255(self, tmp_path):
        # float32 division rounds k/255 once, so pixel k is the float32 nearest k/255
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        x, _ = load_idx(*write_idx_pair(tmp_path, images, [0, 1, 2, 3]))
        k = np.arange(256)
        assert x.dtype == np.float32
        assert np.array_equal(x.ravel(), k.astype(np.float32) / np.float32(255))
        assert np.array_equal(x.ravel(), np.array([np.float32(i / 255) for i in k]))
        assert x[0, 0] == 0.0 and x[-1, -1] == 1.0

    def test_bad_image_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        ip.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + bytes(4))
        with pytest.raises(IdxFormatError):
            load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
        lp.write_bytes(struct.pack(">II", 99, 1) + bytes(1))
        with pytest.raises(IdxFormatError):
            load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        ip.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(5))
        with pytest.raises(IdxFormatError):
            load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, lp = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1, 1])
        with pytest.raises(IdxFormatError):
            load_idx(ip, lp)


class TestSynth:
    def test_shapes_and_label_counts(self):
        x, y = synth_gaussian(3, 5, per_label_count=40, spread=1.0, seed=9)
        assert x.shape == (120, 5)
        assert y.shape == (120,)
        assert np.array_equal(np.bincount(y), [40, 40, 40])

    def test_seed_reproducibility(self):
        a = synth_gaussian(2, 4, 30, 0.5, seed=12)
        b = synth_gaussian(2, 4, 30, 0.5, seed=12)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = synth_gaussian(2, 4, 30, 0.5, seed=13)
        assert not np.array_equal(a[0], c[0])

    def test_zero_spread_puts_samples_on_the_means(self):
        x, y = synth_gaussian(2, 2, 10, 0.0, seed=1, radius=2.0)
        for lab in (0, 1):
            pts = x[y == lab]
            assert np.allclose(pts, pts[0])
        d = np.linalg.norm(x[y == 0][0] - x[y == 1][0])
        assert d == pytest.approx(4.0, rel=1e-12)

    def test_class_separation_scales_with_radius(self):
        x, y = synth_gaussian(2, 3, 200, 0.1, seed=3, radius=5.0)
        m0 = x[y == 0].mean(axis=0)
        m1 = x[y == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) == pytest.approx(10.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_gaussian(1, 3, 10, 1.0, seed=0)
        with pytest.raises(ValueError):
            synth_gaussian(2, 3, 10, -1.0, seed=0)


def box_muller_reference(rng, size):
    """Whole-array, out-of-place Box-Muller in float32: size + size % 2 uniforms, the
    first half radii sqrt(-2 log(1 - u)), the second angles 2 pi u, then r cos(theta)
    followed by r sin(theta), cut to `size`."""
    u = rng.random(size + size % 2, dtype=np.float32)
    half = u.shape[0] // 2
    r = np.sqrt(np.float32(-2) * np.log(np.float32(1) - u[:half]))
    theta = np.float32(2 * np.pi) * u[half:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:size]


def synth_reference(num_labels, input_dim, per_label_count, spread, seed, radius=3.0):
    """The out-of-place construction in float32: each row is the full-width center
    of its label, rounded to float32, plus float32 spread times its own float32
    noise draw."""
    rng = np.random.default_rng(seed)
    count = num_labels * per_label_count
    noise = box_muller_reference(rng, count * input_dim).reshape(count, input_dim) if spread > 0 \
        else np.zeros((count, input_dim), dtype=np.float32)
    labels = np.repeat(np.arange(num_labels, dtype=np.int64), per_label_count)[rng.permutation(count)]
    centers = np.zeros((num_labels, input_dim), dtype=np.float32)
    if input_dim == 1:
        centers[:, 0] = radius * np.arange(num_labels)
    else:
        angles = 2.0 * np.pi * np.arange(num_labels) / num_labels
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
    return centers[labels] + np.float32(spread) * noise, labels


class TestSynthInPlace:
    @pytest.mark.parametrize("input_dim", [1, 8, 64, 65, 130])
    @pytest.mark.parametrize("spread", [0.0, 0.7, 3.0])
    def test_bitwise_the_out_of_place_formula(self, input_dim, spread):
        seed = np.random.SeedSequence([5, input_dim])
        x, y = synth_gaussian(3, input_dim, 17, spread, seed, radius=2.5)
        want_x, want_y = synth_reference(3, input_dim, 17, spread, seed, radius=2.5)
        assert x.dtype == want_x.dtype == np.float32 and x.flags.c_contiguous
        assert np.array_equal(x, want_x)
        assert np.array_equal(y, want_y)

    @pytest.mark.parametrize("input_dim", [130, 131])
    def test_bitwise_across_chunk_borders(self, input_dim):
        # two full chunks and a partial one; 3 * odd * 131 entries make the second pool odd
        per_label_count = 5 * _BOX_MULLER_CHUNK // (3 * input_dim) | 1
        seed = np.random.SeedSequence([6, input_dim])
        x, y = synth_gaussian(3, input_dim, per_label_count, 1.5, seed)
        assert 2 * _BOX_MULLER_CHUNK < (x.size + 1) // 2 < 3 * _BOX_MULLER_CHUNK
        assert x.size % 2 == input_dim % 2
        want_x, want_y = synth_reference(3, input_dim, per_label_count, 1.5, seed)
        assert x.shape == (3 * per_label_count, input_dim) and x.flags.c_contiguous
        assert np.array_equal(x, want_x)
        assert np.array_equal(y, want_y)

    def test_peak_is_the_pool(self):
        # the pool plus two chunk-sized float32 temporaries: the one the transform
        # keeps, and room for ufunc cast buffers and the label arrays. A full-width
        # centers[labels] gather, a full-width float64 add into the pool, or a second
        # pool would each add at least the pool again. The warm-up call keeps
        # first-use import allocations out of the window.
        temporaries = 2 * 4 * _BOX_MULLER_CHUNK
        synth_gaussian(10, 200, 200, 1.0, seed=2)
        tracemalloc.start()
        try:
            x, _ = synth_gaussian(10, 200, 200, 1.0, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert x.nbytes > 2 * temporaries
        assert peak < x.nbytes + temporaries


def recorded_uniforms(monkeypatch):
    """Record every uniform chunk _standard_normal_f32 makes; returns a function that
    joins them as the radius uniforms followed by the angle uniforms."""
    chunks = []

    def record(words, out):
        chunks.append(real(words, out).copy())
        return out

    real = data._uniforms_f32
    monkeypatch.setattr(data, "_uniforms_f32", record)
    return lambda: np.concatenate(chunks[0::2] + chunks[1::2])


class TestUniformRecipe:
    """The uniforms come from PCG64's raw words and must be numpy's own float32 uniforms,
    leaving the generator where rng.random would. If numpy changes either recipe, this fails."""

    # the last size is odd and spans two full chunks and part of a third
    @pytest.mark.parametrize("size", [1, 2, 3, 4 * _BOX_MULLER_CHUNK + 3])
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 7])
    def test_uniforms_are_numpys(self, monkeypatch, size, seed):
        uniforms = recorded_uniforms(monkeypatch)
        rng, ref = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
        normals = _standard_normal_f32(rng, size, 1.0)
        want = ref.random(size + size % 2, dtype=np.float32)
        got = uniforms()
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        assert normals.shape == (size,)
        assert np.array_equal(rng.permutation(1000), ref.permutation(1000))
        assert rng.random(3, dtype=np.float32).tobytes() == ref.random(3, dtype=np.float32).tobytes()

    @pytest.mark.parametrize("seed", [np.random.default_rng(3), np.random.PCG64(3), np.random.MT19937(3)])
    def test_generator_or_bit_generator_seed_raises(self, seed):
        with pytest.raises(TypeError):
            synth_gaussian(2, 3, 10, 1.0, seed=seed)


class TestSynthNoise:
    """At spread 1 and radius 0 the pool is the noise itself, 10**6 float32 draws."""

    N = 10**6

    @pytest.fixture(scope="class")
    def noise(self):
        x, _ = synth_gaussian(2, 5000, 100, 1.0, seed=31, radius=0.0)
        assert x.size == self.N
        return x.ravel().astype(np.float64)

    def test_mean_and_variance(self, noise):
        # standard errors of the sample mean and variance of N standard normals:
        # 1/sqrt(N) and sqrt(2/N)
        assert abs(noise.mean()) < 5 / np.sqrt(self.N)
        assert abs(noise.var() - 1.0) < 5 * np.sqrt(2 / self.N)

    def test_tail_share_beyond_three(self, noise):
        share = np.count_nonzero(np.abs(noise) > 3) / self.N
        p = 1 - math.erf(3 / math.sqrt(2))  # 0.0027
        assert abs(share - p) < 5 * math.sqrt(p * (1 - p) / self.N)

    def test_kolmogorov_smirnov_distance(self, noise):
        # sup |F_N - Phi| over the sorted draws; 1.95 / sqrt(N) is the KS test's
        # critical value at the 0.001 level
        z = np.sort(noise)
        cdf = 0.5 * (1 + np.frompyfunc(math.erf, 1, 1)(z / math.sqrt(2)).astype(np.float64))
        steps = np.arange(1, self.N + 1) / self.N
        distance = max(np.max(steps - cdf), np.max(cdf - (steps - 1 / self.N)))
        assert distance < 1.95 / np.sqrt(self.N)

    def test_seeds_differ_and_repeat(self):
        a, _ = synth_gaussian(2, 1000, 50, 1.0, seed=40)
        b, _ = synth_gaussian(2, 1000, 50, 1.0, seed=40)
        c, _ = synth_gaussian(2, 1000, 50, 1.0, seed=41)
        assert a.tobytes() == b.tobytes()
        assert np.count_nonzero(a != c) > 0.99 * a.size


class LoopPool:
    """The per-entry draw loop that _Pool.draw replaces."""

    def __init__(self, indices, taken):
        self.queue, self.pos, self.taken = indices, 0, taken

    def draw(self, count):
        out = []
        while len(out) < count and self.pos < len(self.queue):
            idx = self.queue[self.pos]
            self.pos += 1
            if not self.taken[idx]:
                self.taken[idx] = True
                out.append(idx)
        return np.asarray(out, dtype=np.int64)


class TestPoolDraw:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.integers(0, 30),
           st.lists(st.tuples(st.booleans(), st.integers(1, 12)), min_size=1, max_size=10))
    # 29 taken entries ahead of the first free one: from a window of 1, a draw of 1
    # doubles it 5 times
    @example(total=30, seed=4, prefix=29, draws=[(False, 1), (False, 2), (True, 3), (False, 1)])
    # 4,000 taken entries ahead: from a window of 1,024, a draw of 1 doubles it 2 times
    @example(total=5000, seed=5, prefix=4000, draws=[(False, 1), (False, 12), (True, 12), (False, 900)])
    def test_draws_equal_the_loop(self, total, seed, prefix, draws):
        # two pools share one taken mask, as a label pool and the global pool do;
        # draws past the end of a queue come back short. The first `prefix` entries
        # of the first queue start taken, so a window must grow past them. Each case
        # runs at the least window and at 1, where windows grow in short queues too.
        rng = np.random.default_rng(seed)
        start = rng.random(total) < 0.3
        queues = [rng.permutation(total), rng.permutation(np.flatnonzero(rng.random(total) < 0.5))]
        start[queues[0][:prefix]] = True
        for least_window in (data._POOL_WINDOW, 1):
            fast_taken, loop_taken = start.copy(), start.copy()
            fast = [_Pool(q, fast_taken) for q in queues]
            loop = [LoopPool(q, loop_taken) for q in queues]
            with mock.patch.object(data, "_POOL_WINDOW", least_window):
                for which, count in draws:
                    got, want = fast[which].draw(count), loop[which].draw(count)
                    assert got.dtype == want.dtype == np.int64
                    assert np.array_equal(got, want)
                    assert fast[which].pos == loop[which].pos
                    assert np.array_equal(fast_taken, loop_taken)

    def test_short_draw_then_empty(self):
        taken = np.array([False, True, False, False])
        pool = _Pool(np.array([3, 1, 0, 2]), taken)
        assert np.array_equal(pool.draw(2), [3, 0])
        assert np.array_equal(pool.draw(5), [2])
        assert pool.pos == 4 and taken.all()
        assert pool.draw(1).shape == (0,)


class TestMajorCount:
    def test_zero_lam(self):
        assert major_count(0.0, 600) == 0

    def test_exact_fraction(self):
        assert major_count(0.5, 600) == 300
        assert major_count(0.9, 20) == 18

    def test_rounds_up(self):
        assert major_count(0.34, 10) == 4

    def test_near_integer_products_do_not_overshoot(self):
        # 0.9 * 500 is 450.00000000000006 in floats; the count must stay 450
        assert major_count(0.9, 500) == 450
        assert major_count(0.7, 10) == 7


class TestPartition:
    def make_pool(self, seed=6, per_label=50, labels=3):
        return synth_gaussian(labels, 4, per_label, 1.0, seed=seed)

    def test_counts_and_owners(self):
        _, y = self.make_pool()
        shards = partition(y, 10, PartitionPlan(samples_per_client=12, lam=0.0), seed=1)
        assert len(shards) == 10
        assert [s.owner for s in shards] == list(range(10))
        assert all(len(s) == 12 for s in shards)

    def test_disjoint_when_pool_is_large_enough(self):
        x, y = self.make_pool(per_label=100)
        plan = PartitionPlan(samples_per_client=12, lam=0.0, allow_replacement=False)
        shards = partition(y, 10, plan, seed=2)
        seen = np.concatenate([x[s.rows] for s in shards])
        # all drawn rows distinct -> no sample was handed to two clients
        assert np.unique(seen, axis=0).shape[0] == seen.shape[0]
        assert not any(s.used_replacement for s in shards)

    def test_major_label_fraction(self):
        _, y = self.make_pool(per_label=200)
        shards = partition(y, 6, PartitionPlan(samples_per_client=40, lam=0.8), seed=3)
        for shard in shards:
            major = np.bincount(shard.labels, minlength=3).max()
            assert major >= 32  # ceil(0.8 * 40)

    def test_round_robin_major_assignment(self):
        _, y = self.make_pool(per_label=200)
        shards = partition(y, 6, PartitionPlan(samples_per_client=20, lam=0.9), seed=4)
        for i, shard in enumerate(shards):
            counts = np.bincount(shard.labels, minlength=3)
            assert counts.argmax() == i % 3

    def test_replacement_flagged_on_shortfall(self):
        _, y = self.make_pool(per_label=10)
        shards = partition(y, 8, PartitionPlan(samples_per_client=10, lam=0.9), seed=6)
        assert all(len(s) == 10 for s in shards)
        assert any(s.used_replacement for s in shards)

    def test_no_replacement_raises_on_shortfall(self):
        _, y = self.make_pool(per_label=10)
        plan = PartitionPlan(samples_per_client=10, lam=0.9, allow_replacement=False)
        with pytest.raises(ValueError):
            partition(y, 8, plan, seed=7)

    def test_no_replacement_names_the_exhausted_label(self):
        # 16 of 20 rows are demanded, but label 0's 3 rows cannot fill two major blocks of 2
        labels = np.array([0] * 3 + [1] * 17)
        plan = PartitionPlan(samples_per_client=4, lam=0.5, allow_replacement=False)
        with pytest.raises(ValueError, match="label 0 pool exhausted"):
            partition(labels, 4, plan, seed=0)

    def test_seed_reproducibility(self):
        _, y = self.make_pool()
        plan = PartitionPlan(samples_per_client=9, lam=0.4)
        a = partition(y, 5, plan, seed=11)
        b = partition(y, 5, plan, seed=11)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.rows, sb.rows)
            assert np.array_equal(sa.labels, sb.labels)

    def test_plan_validation(self):
        _, y = self.make_pool()
        with pytest.raises(ValueError, match="num_clients"):
            partition(y, 0, PartitionPlan(samples_per_client=5), seed=8)
        with pytest.raises(ValueError):
            PartitionPlan(samples_per_client=5, lam=1.0)

    def test_shard_validation(self):
        DataShard([2, 0, 2], np.zeros(3, dtype=int), owner=0)
        DataShard(np.empty(0, dtype=int), np.empty(0, dtype=int), owner=0)
        with pytest.raises(ValueError, match="length"):
            DataShard([0, 1, 2], np.zeros(2, dtype=int), owner=0)
        with pytest.raises(ValueError, match="1-D"):
            DataShard(np.zeros((3, 1), dtype=int), np.zeros(3, dtype=int), owner=0)
        with pytest.raises(ValueError, match="1-D"):
            DataShard([0, 1, 2], np.zeros((3, 1), dtype=int), owner=0)
        with pytest.raises(ValueError, match="negative"):
            DataShard([-1, 0, 1], np.zeros(3, dtype=int), owner=0)
        with pytest.raises(ValueError, match="role"):
            DataShard([0], [0], owner=0, role="confused")

    @pytest.mark.parametrize("dtype", [np.float16, np.float64, np.int64, np.uint8, np.complex128])
    def test_pool_dtype_is_float32(self, dtype):
        # a shard holds no pool: the one pool its rows index is checked where it trains
        x, y = self.make_pool()
        shards = partition(y, 3, PartitionPlan(samples_per_client=4), seed=0)
        spec = ModelSpec(input_dim=4, num_labels=3, local_epochs=1, batch_size=4)
        assert local_train(spec.init_params(), x, shards, spec, [0, 1, 2]).shape == (3, spec.layout().size)
        with pytest.raises(ValueError, match=f"pool of {np.dtype(dtype).name} .* is not 2-D float32"):
            local_train(spec.init_params(), x.astype(dtype), shards, spec, [0, 1, 2])


def choice_partition(labels, num_clients, plan, seed):
    """partition's draws with the shortfall taken by rng.choice(..., replace=True).

    Returns one (rows, labels, used_replacement) per client. The queues are the
    per-entry LoopPool; the replacement draws are what this reference pins.
    """
    rng = np.random.default_rng(seed)
    total = len(labels)
    present = np.unique(labels)
    majors = [int(present[i % len(present)]) for i in range(num_clients)]
    taken = np.zeros(total, dtype=bool)
    label_pools = {int(lab): LoopPool(rng.permutation(np.flatnonzero(labels == lab)), taken) for lab in present}
    global_pool = LoopPool(rng.permutation(total), taken)
    out = []
    for client in range(num_clients):
        n_major = major_count(plan.lam, plan.samples_per_client)
        draws = [(label_pools[majors[client]], n_major, np.flatnonzero(labels == majors[client])),
                 (global_pool, plan.samples_per_client - n_major, total)]
        picked, flagged = [], False
        for pool, count, population in draws:
            if count > 0:
                picked.append(pool.draw(count))
                if len(picked[-1]) < count:
                    picked.append(rng.choice(population, size=count - len(picked[-1]), replace=True))
                    flagged = True
        idx = np.concatenate(picked)
        out.append((idx, labels[idx], flagged))
    return out


class TestReplacementDraws:
    # (labels, rows per label, clients, shard size): every plan oversubscribes its
    # pool; the first two pools are smaller than one shard
    @pytest.mark.parametrize("shape", [(2, 1, 3, 5), (3, 4, 5, 20), (3, 10, 8, 10), (4, 25, 30, 12)])
    @pytest.mark.parametrize("lam", [0.0, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2**31 + 5])
    def test_partition_equals_the_choice_draws(self, shape, lam, seed):
        num_labels, per_label, clients, samples = shape
        _, y = synth_gaussian(num_labels, 3, per_label, 1.0, seed=seed + 1)
        plan = PartitionPlan(samples_per_client=samples, lam=lam)
        shards = partition(y, clients, plan, seed=seed)
        want = choice_partition(y, clients, plan, seed)
        assert any(flagged for _, _, flagged in want)
        for shard, (rows, labels, flagged) in zip(shards, want, strict=True):
            assert shard.rows.dtype == rows.dtype == np.int64
            assert np.array_equal(shard.rows, rows)
            assert np.array_equal(shard.labels, labels)
            assert shard.used_replacement == flagged
