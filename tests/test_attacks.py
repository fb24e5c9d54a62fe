import numpy as np
import pytest

from lomarlab.attacks import AttackConfig, boost_update, build_malicious_shards, make_flipped_shard
from lomarlab.data import ROLE_MALICIOUS, major_count, synth_gaussian


def pool(per_label=60, labels=3, seed=2):
    return synth_gaussian(labels, 4, per_label, 1.0, seed=seed)


class TestAttackConfig:
    def test_none_rejects_malicious(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="none", malicious_count=2)

    def test_active_needs_pairs_and_count(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="label_flip", malicious_count=0, flip_pairs=((0, 1),))
        with pytest.raises(ValueError):
            AttackConfig(kind="label_flip", malicious_count=1, flip_pairs=())

    def test_noop_pair_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="label_flip", malicious_count=1, flip_pairs=((2, 2),))

    def test_tau_range(self):
        with pytest.raises(ValueError):
            AttackConfig(kind="label_flip", malicious_count=1, flip_pairs=((0, 1),), tau=0.0)
        with pytest.raises(ValueError):
            AttackConfig(kind="label_flip", malicious_count=1, flip_pairs=((0, 1),), tau=1.5)
        AttackConfig(kind="label_flip", malicious_count=1, flip_pairs=((0, 1),), tau=1.0)

    def test_budget_cap(self):
        atk = AttackConfig(kind="label_flip", malicious_count=5, flip_pairs=((0, 1),))
        atk.check_budget(50)
        with pytest.raises(ValueError):
            atk.check_budget(10)

    def test_pair_round_robin(self):
        atk = AttackConfig(kind="label_flip", malicious_count=5,
                           flip_pairs=((0, 1), (1, 2)))
        assert [atk.pair_for(i) for i in range(4)] == [(0, 1), (1, 2), (0, 1), (1, 2)]


class TestFlippedShard:
    def test_full_flip_composition(self):
        _, y = pool()
        shard = make_flipped_shard(y, samples=20, pair=(0, 2), tau=1.0, seed=5, owner=9)
        assert len(shard) == 20
        assert shard.owner == 9
        assert shard.role == ROLE_MALICIOUS
        assert np.all(shard.labels == 2)

    def test_flipped_samples_come_from_source_pool(self):
        x, y = pool()
        shard = make_flipped_shard(y, samples=15, pair=(1, 0), tau=1.0, seed=6)
        source_rows = {tuple(row) for row in x[y == 1]}
        for row in x[shard.rows]:
            assert tuple(row) in source_rows

    def test_partial_tau_counts(self):
        _, y = pool()
        shard = make_flipped_shard(y, samples=20, pair=(0, 1), tau=0.6, seed=7)
        # ceil(0.6*20)=12 flipped-to-1 samples at minimum; the remaining 8 are
        # uniform draws so label 1 may gain a few more
        assert np.sum(shard.labels == 1) >= 12
        assert len(shard) == 20

    def test_no_within_shard_duplicates(self):
        x, y = pool()
        shard = make_flipped_shard(y, samples=30, pair=(0, 1), tau=0.5, seed=8)
        assert np.unique(x[shard.rows], axis=0).shape[0] == 30

    def test_insufficient_source_pool_raises(self):
        _, y = pool(per_label=10)
        with pytest.raises(ValueError):
            make_flipped_shard(y, samples=20, pair=(0, 1), tau=1.0, seed=9)

    def test_seed_reproducibility(self):
        x, y = pool()
        a = make_flipped_shard(y, samples=12, pair=(2, 0), tau=0.8, seed=10)
        b = make_flipped_shard(y, samples=12, pair=(2, 0), tau=0.8, seed=10)
        assert np.array_equal(x[a.rows], x[b.rows])
        assert np.array_equal(a.labels, b.labels)


def flipped_reference(pool_labels, samples, pair, tau, seed):
    """(rows, labels) drawn as before the boolean mask: the untouched rows come from setdiff1d."""
    src, tgt = pair
    n_flip = major_count(tau, samples)
    rng = np.random.default_rng(seed)
    flip_idx = rng.choice(np.flatnonzero(pool_labels == src), size=n_flip, replace=False)
    remaining = np.setdiff1d(np.arange(pool_labels.shape[0]), flip_idx)
    rand_idx = rng.choice(remaining, size=samples - n_flip, replace=False) if samples > n_flip \
        else np.empty(0, dtype=np.int64)
    rows = np.concatenate([flip_idx, rand_idx])
    labels = np.concatenate([np.full(n_flip, tgt, dtype=np.int64), pool_labels[rand_idx]])
    return rows, labels


class TestFlippedShardReference:
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024])
    @pytest.mark.parametrize("samples, tau", [(20, 1.0), (20, 0.6), (45, 0.3), (7, 0.01)])
    def test_rows_and_labels_equal_the_setdiff_draw(self, seed, samples, tau):
        _, y = pool(per_label=60, labels=4, seed=seed)
        shard = make_flipped_shard(y, samples, (2, 3), tau, seed=seed, owner=5)
        rows, labels = flipped_reference(y, samples, (2, 3), tau, seed)
        assert shard.rows.dtype == np.int64
        assert np.array_equal(shard.rows, rows)
        assert np.array_equal(shard.labels, labels)
        assert not hasattr(shard, "pool")


class TestBoost:
    def test_scales_delta(self):
        delta = np.arange(8.0)
        boosted = boost_update(delta, 10.0)
        assert np.array_equal(boosted, np.arange(8.0) * 10)
        # the original is untouched
        assert np.array_equal(delta, np.arange(8.0))

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            boost_update(np.zeros(8), 0.0)


class TestCohort:
    def test_one_shard_per_malicious_client(self):
        _, y = pool()
        atk = AttackConfig(kind="label_flip", malicious_count=4,
                           flip_pairs=((0, 1), (1, 2)), tau=1.0)
        shards = build_malicious_shards(atk, y, samples=10,
                                        seed_seq=np.random.SeedSequence(3), first_owner=50)
        assert [s.owner for s in shards] == [50, 51, 52, 53]
        assert all(s.role == ROLE_MALICIOUS for s in shards)
        # round-robin pairs: owners 50/52 flip to 1, owners 51/53 flip to 2
        assert np.all(shards[0].labels == 1) and np.all(shards[2].labels == 1)
        assert np.all(shards[1].labels == 2) and np.all(shards[3].labels == 2)

    def test_cohort_seeding_is_order_free(self):
        x, y = pool()
        atk = AttackConfig(kind="label_flip", malicious_count=3,
                           flip_pairs=((0, 1),), tau=1.0)
        ss = np.random.SeedSequence([42, 2])
        a = build_malicious_shards(atk, y, samples=10, seed_seq=ss, first_owner=0)
        b = build_malicious_shards(atk, y, samples=10, seed_seq=ss, first_owner=0)
        for sa, sb in zip(a, b):
            assert np.array_equal(x[sa.rows], x[sb.rows])

    def test_none_attack_builds_nothing(self):
        _, y = pool()
        shards = build_malicious_shards(AttackConfig(), y, samples=10,
                                        seed_seq=np.random.SeedSequence(1), first_owner=0)
        assert shards == []

    def test_whole_pool_shards_are_identical_sets(self):
        # tau=1 with samples == source pool size makes every colluder hold the
        # entire flipped source pool, the worst-case collusion geometry
        x, y = pool(per_label=25)
        atk = AttackConfig(kind="label_flip", malicious_count=3,
                           flip_pairs=((0, 1),), tau=1.0)
        shards = build_malicious_shards(atk, y, samples=25,
                                        seed_seq=np.random.SeedSequence(9), first_owner=0)
        sets = [np.sort(x[s.rows].view([('', x.dtype)] * 4), axis=0) for s in shards]
        assert np.array_equal(sets[0], sets[1])
        assert np.array_equal(sets[0], sets[2])
