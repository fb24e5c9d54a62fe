"""Acceptance gate: one test per shipping criterion, one printed line each.

Criteria 3-5 need the real MNIST IDX files, which this environment cannot
download. Those tests skip (with a visible SKIP line) unless MNIST_DATA_DIR
or data/mnist/ provides the four files; scripts/fetch_mnist.py fetches them
on a networked machine. A synthetic stand-in covering the same
attack-damage/defense-recovery shape runs unconditionally at the end.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import lomar_oracle
from lomarlab.baselines import coordinate_median, foolsgold, krum
from lomarlab.harness import (
    MNIST_FILES,
    config_from_dict,
    run_experiment,
    run_sweep,
)
from lomarlab.lomar import KdeConfig, ball_volume, false_alarm_bound, lomar_run
from lomarlab.metrics import confusion_counts, roc_from_scores
from lomarlab.models import ModelSpec, Round, loss_and_grad
from lomarlab.params import ParamLayout, ParamVector


def report(criterion, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    assert not failures, "; ".join(failures)


def skip_report(criterion, reason):
    print(f"\nACCEPTANCE {criterion}: SKIP ({reason})")
    pytest.skip(reason)


def round_from(matrix, layout):
    return Round(np.arange(len(matrix)), np.ones(len(matrix)), matrix, layout)


def random_label_layout(rng, max_labels=3, max_dim=6):
    """Consecutive per-label blocks, no shared block, total size <= max_dim."""
    num_labels = int(rng.integers(1, max_labels + 1))
    dims = np.ones(num_labels, dtype=int)
    for _ in range(int(rng.integers(0, max_dim - num_labels + 1))):
        dims[int(rng.integers(num_labels))] += 1
    edges = np.concatenate([[0], np.cumsum(dims)])
    ranges = tuple((int(a), int(b)) for a, b in zip(edges, edges[1:]))
    total = int(edges[-1])
    return ParamLayout(ranges, (total, total)), [(int(a), int(b)) for a, b in ranges]


def test_criterion_1_oracle_equivalence():
    """Filter output matches an independent brute-force evaluation."""
    rng = np.random.default_rng(20260822)
    start = time.monotonic()
    failures = []
    for trial in range(50):
        n = int(rng.integers(4, 9))
        layout, ranges = random_label_layout(rng)
        matrix = rng.normal(scale=1.0, size=(n, ranges[-1][1]))
        if trial % 5 == 0:
            matrix[1] = matrix[0]  # exact duplicates exercise tie handling
        k = int(rng.integers(1, n)) if trial % 3 else None
        h = float(rng.uniform(0.2, 1.5)) if trial % 2 else None
        kernel = "gaussian" if trial % 7 == 0 else "exp"

        result = lomar_run(round_from(matrix, layout),
                           KdeConfig(k=k, bandwidth=h, kernel=kernel))
        o_factors, o_deltas, o_h = lomar_oracle.run(
            [list(map(float, row)) for row in matrix], ranges,
            k=k, h=h, kernel=kernel)

        if result.h_used != pytest.approx(o_h, rel=1e-9):
            failures.append(f"trial {trial}: bandwidth {result.h_used} vs {o_h}")
        for cid, factor, kept, of, od in zip(result.client_ids.tolist(), np.exp(result.log_factors).tolist(),
                                             result.kept.tolist(), o_factors, o_deltas):
            if factor != pytest.approx(of, rel=1e-9):
                failures.append(f"trial {trial} client {cid}: factor {factor} vs {of}")
            if int(kept) != od:
                failures.append(f"trial {trial} client {cid}: keep bit")
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    report(1, failures)


CRIT2_SEEDS = (101, 202, 303, 404, 505)


def crit2_dict():
    """Colluding label-flip cohort against 50 clean clients.

    tau=1 with shard size equal to the source pool makes every colluder's
    shard the entire flipped pool, so their full-batch updates coincide
    exactly; the filter sees the resulting density spike at its
    nearest-neighbor scale (bandwidth 0.003, far below the pooled-median
    heuristic which smooths at cloud diameter).
    """
    return {
        "num_clean": 50,
        "rounds": 3,
        "seed": 0,
        "dataset": {"kind": "synth", "num_labels": 2, "input_dim": 8,
                    "per_label_count": 500, "spread": 3.0, "radius": 0.1,
                    "test_fraction": 0.5},
        "model": {"kind": "logistic", "learning_rate": 0.1,
                  "local_epochs": 1, "batch_size": 512},
        "partition": {"samples_per_client": 500, "lambda": 0.9},
        "attack": {"kind": "label_flip", "malicious_count": 5,
                   "flip_pairs": [[0, 1]], "tau": 1.0},
        "defense": {"kind": "lomar", "epsilon": 1.0, "k": 22,
                    "bandwidth": 0.003},
    }


def test_criterion_2_separation_property():
    """Colluders score below clean clients: AUC and flag counts over seeds."""
    cfg = config_from_dict(crit2_dict())
    assert cfg.defense.k == 22  # floor(0.4 * 55)
    start = time.monotonic()
    aucs, flagged = [], []
    for seed in CRIT2_SEEDS:
        out = run_experiment(cfg, seed=seed)
        aucs.append(out.auc)
        flagged.append(out.records[-1].m_t)
    elapsed = time.monotonic() - start

    failures = []
    mean_auc = float(np.mean(aucs))
    if mean_auc < 0.90:
        failures.append(f"mean AUC {mean_auc:.3f} < 0.90 (per-seed {aucs})")
    good_seeds = sum(1 for m in flagged if m >= 4)
    if good_seeds < 4:
        failures.append(f"only {good_seeds}/5 seeds flagged >= 4 of 5 "
                        f"(per-seed {flagged})")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.0f}s, budget 120s")
    report(2, failures)


def mnist_dir():
    candidates = []
    env = os.environ.get("MNIST_DATA_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parents[1] / "data" / "mnist")
    for cand in candidates:
        if all((cand / name).exists() for name in MNIST_FILES.values()):
            return cand
    return None


MNIST_SKIP = ("MNIST IDX files not found; set MNIST_DATA_DIR or run "
              "scripts/fetch_mnist.py into data/mnist/")


def scaled_mnist_dict(directory, defense):
    """One-fifth-scale digit task: 200 clean clients, 20 colluders flipping 7 to 1."""
    return {
        "num_clean": 200,
        "rounds": 100,
        "seed": 0,
        "dataset": {"kind": "mnist", "dir": str(directory)},
        "model": {"kind": "logistic", "learning_rate": 0.05,
                  "local_epochs": 5, "batch_size": 20},
        "partition": {"samples_per_client": 600, "lambda": 0.5},
        "attack": {"kind": "label_flip", "malicious_count": 20,
                   "flip_pairs": [[7, 1]], "tau": 1.0},
        "defense": defense,
    }


_scaled_cache = {}


def scaled_mnist_run(directory, key, defense):
    if key not in _scaled_cache:
        cfg = config_from_dict(scaled_mnist_dict(directory, defense))
        _scaled_cache[key] = run_experiment(cfg)
    return _scaled_cache[key]


def test_criterion_3_scaled_digit_label_flip():
    directory = mnist_dir()
    if directory is None:
        skip_report(3, MNIST_SKIP)
    start = time.monotonic()
    filtered = scaled_mnist_run(directory, "lomar", {"kind": "lomar", "epsilon": 1.0})
    undefended = scaled_mnist_run(directory, "none", {"kind": "none"})
    elapsed = time.monotonic() - start

    failures = []
    f = filtered.records[-1]
    if f.target_acc < 0.93:
        failures.append(f"filtered target accuracy {f.target_acc:.3f} < 0.93")
    if f.overall_acc < 0.88:
        failures.append(f"filtered overall accuracy {f.overall_acc:.3f} < 0.88")
    u = undefended.records[-1]
    if u.target_acc > 0.30:
        failures.append(f"undefended target accuracy {u.target_acc:.3f} > 0.30")
    if elapsed >= 1800.0:
        failures.append(f"took {elapsed:.0f}s, budget 1800s")
    report(3, failures)


def test_criterion_4_baselines_on_scaled_run():
    directory = mnist_dir()
    if directory is None:
        skip_report(4, MNIST_SKIP)
    filtered = scaled_mnist_run(directory, "lomar", {"kind": "lomar", "epsilon": 1.0})
    krum_run = scaled_mnist_run(directory, "krum",
                                {"kind": "krum", "assumed_malicious": 20})
    median_run = scaled_mnist_run(directory, "median", {"kind": "median"})

    failures = []
    if krum_run.records[-1].target_acc > 0.30:
        failures.append(f"krum target accuracy "
                        f"{krum_run.records[-1].target_acc:.3f} > 0.30")
    gap = filtered.records[-1].overall_acc - median_run.records[-1].overall_acc
    if gap < 0.15:
        failures.append(f"median trails the filter by only {gap:.3f} overall, "
                        f"need >= 0.15")
    report(4, failures)


def test_criterion_5_epsilon_sweep_shape(tmp_path):
    directory = mnist_dir()
    if directory is None:
        skip_report(5, MNIST_SKIP)
    cfg = config_from_dict(scaled_mnist_dict(directory,
                                             {"kind": "lomar", "epsilon": 1.0}))
    rows = run_sweep(cfg, "epsilon", "0.6,0.8,1.0,1.2,1.4", tmp_path)
    best = max(rows, key=lambda r: r["combined_acc"])
    failures = []
    if best["value"] != 1.0:
        failures.append(f"combined accuracy peaks at epsilon {best['value']}, "
                        f"expected 1.0: "
                        f"{[(r['value'], round(r['combined_acc'], 3)) for r in rows]}")
    report(5, failures)


LAYOUT_2x2 = ParamLayout(((0, 2), (2, 4)), (4, 4))


def test_criterion_6_invariant_suite():
    start = time.monotonic()
    rng = np.random.default_rng(606)
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    matrix = rng.normal(scale=0.5, size=(9, 4))
    base = lomar_run(round_from(matrix, LAYOUT_2x2), KdeConfig(k=4))

    # translation invariance: a common offset moves every update identically
    shifted = lomar_run(round_from(matrix + rng.normal(size=4), LAYOUT_2x2),
                        KdeConfig(k=4))
    check("translation invariance",
          np.allclose(np.exp(shifted.log_factors), np.exp(base.log_factors), rtol=1e-9, atol=0))

    # scale covariance: the bandwidth heuristic tracks a global rescaling
    scaled = lomar_run(round_from(matrix * 37.0, LAYOUT_2x2), KdeConfig(k=4))
    check("scale covariance",
          np.allclose(np.exp(scaled.log_factors), np.exp(base.log_factors), rtol=1e-9, atol=0))

    # permutation equivariance: submission order never matters
    rnd = round_from(matrix, LAYOUT_2x2)
    perm = rng.permutation(len(rnd.ids))
    permuted = lomar_run(rnd.select(perm), KdeConfig(k=4))
    check("permutation equivariance",
          np.array_equal(permuted.log_factors, base.log_factors[perm]))

    # median boundedness: each joint coordinate stays inside the update range
    joint = ParamVector.zeros(LAYOUT_2x2)
    med = coordinate_median(joint, rnd)
    delta = med.new_joint.values - joint.values
    check("median boundedness",
          bool(np.all(delta >= matrix.min(axis=0) - 1e-12)
               and np.all(delta <= matrix.max(axis=0) + 1e-12)))

    # krum selection ignores a common translation
    kept_a = krum(joint, rnd, 2).kept
    kept_b = krum(joint, round_from(matrix + 5.0, LAYOUT_2x2), 2).kept
    check("krum translation invariance", np.array_equal(kept_a, kept_b))

    # similarity weights depend on direction only
    fg_a = foolsgold(joint, rnd)
    stretch = np.array([float(rng.uniform(0.2, 40.0)) for _ in range(len(rnd.ids))])
    fg_b = foolsgold(joint, round_from(matrix * stretch[:, None], LAYOUT_2x2))
    check("direction-only weighting",
          np.allclose(fg_a.scores, fg_b.scores, rtol=1e-12, atol=1e-12))

    # confusion identities over random kept sets
    ok = True
    malicious = np.arange(9) >= 6
    for _ in range(25):
        kept = rng.random(9) < 0.5
        n_t, n_f, m_t, m_f = confusion_counts(kept, malicious)
        ok = ok and (n_t + m_f == 6) and (n_f + m_t == 3)
    check("confusion identities", ok)

    # analytic gradients match central differences
    def gradient_ok(spec):
        params = ParamVector(rng.normal(scale=0.5, size=spec.layout().size),
                             spec.layout())
        x = rng.normal(size=(7, spec.input_dim))
        y = rng.integers(0, spec.num_labels, size=7)
        _, grad = loss_and_grad(params, spec, x, y)
        eps = 1e-6
        num = np.zeros_like(grad.values)
        for j in range(params.values.shape[0]):
            up, down = (ParamVector(params.values.copy(), params.layout) for _ in range(2))
            up.values[j] += eps
            down.values[j] -= eps
            num[j] = (loss_and_grad(up, spec, x, y)[0]
                      - loss_and_grad(down, spec, x, y)[0]) / (2 * eps)
        err = np.max(np.abs(num - grad.values)) / max(1.0, np.max(np.abs(grad.values)))
        return err < 1e-4

    check("logistic gradient",
          gradient_ok(ModelSpec(kind="logistic", input_dim=4, num_labels=3)))
    check("mlp gradient",
          gradient_ok(ModelSpec(kind="mlp", input_dim=4, num_labels=3, hidden_dim=3)))

    # ranking metrics ignore any strictly increasing rescoring
    scores = rng.normal(size=12)
    malicious = np.arange(12) % 3 == 0
    points_a, auc_a = roc_from_scores(scores, malicious)
    for transform in (lambda s: 3.0 * s + 11.0, np.exp):
        points_b, auc_b = roc_from_scores(transform(scores), malicious)
        same_curve = all(pa.sensitivity == pb.sensitivity
                         and pa.one_minus_specificity == pb.one_minus_specificity
                         for pa, pb in zip(points_a, points_b))
        check("auc monotone invariance",
              same_curve and auc_a == pytest.approx(auc_b, rel=1e-12))

    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s, budget 60s")
    report(6, failures)


def test_criterion_7_false_alarm_bound():
    failures = []
    volume = ball_volume(0.8, 4)
    grid = np.linspace(1.0, 3.0, 9)
    values = [false_alarm_bound(e, k=10, volume=volume, h_bar=0.5) for e in grid]

    if not all(0.0 < v <= 1.0 for v in values):
        failures.append(f"bound left (0, 1]: {values}")
    if values[0] != 1.0:
        failures.append(f"bound at threshold 1 is {values[0]}, expected exactly 1")
    if not all(a > b for a, b in zip(values, values[1:])):
        failures.append(f"bound not strictly decreasing: {values}")

    for eps_m, k, vol, h_bar in ((1.5, 5, 2.0, 0.3), (2.0, 10, 1.0, 1.0),
                                 (2.5, 22, 0.7, 0.05)):
        direct = math.exp(-(4.0 * math.pi * (eps_m - 1.0) ** 2 * (k + 1) ** 2 * h_bar)
                          / (k * (2.0 * k + eps_m + 1.0) ** 2 * vol ** 2))
        got = false_alarm_bound(eps_m, k=k, volume=vol, h_bar=h_bar)
        if got != pytest.approx(direct, rel=1e-12):
            failures.append(f"spot point ({eps_m}, {k}): {got} vs {direct}")
    report(7, failures)


def test_criterion_8_byte_identical_reruns(tmp_path):
    cfg = config_from_dict(crit2_dict())
    run_experiment(cfg, out_dir=tmp_path / "first", seed=101)
    run_experiment(cfg, out_dir=tmp_path / "second", seed=101)
    failures = []
    for name in ("rounds.csv", "scores.csv", "roc_points.csv"):
        a = (tmp_path / "first" / name).read_bytes()
        b = (tmp_path / "second" / name).read_bytes()
        if a != b:
            failures.append(f"{name} differs between reruns")
    report(8, failures)


class TestSyntheticStandIn:
    """Runs the criterion 3 shape on synthetic data, since the digit files
    cannot be fetched here: the undefended run loses the victim label while
    the filtered run recovers it at clean-run overall accuracy."""

    def make(self, defense, attack, seed):
        return config_from_dict({
            "num_clean": 20,
            "rounds": 40,
            "seed": seed,
            "dataset": {"kind": "synth", "num_labels": 2, "input_dim": 8,
                        "per_label_count": 200, "spread": 3.0, "radius": 3.0,
                        "test_fraction": 0.5},
            "model": {"kind": "logistic", "learning_rate": 0.1,
                      "local_epochs": 1, "batch_size": 512},
            "partition": {"samples_per_client": 200, "lambda": 0.9},
            "attack": ({"kind": "label_flip", "malicious_count": 8,
                        "flip_pairs": [[0, 1]], "tau": 1.0}
                       if attack else {"kind": "none"}),
            "defense": defense,
            "eval": {"target_label": 0, "source_label": 1},
        })

    def test_attack_damage_and_recovery(self):
        failures = []
        for seed in (11, 22, 33):
            clean = run_experiment(self.make({"kind": "none"}, False, seed)).records[-1]
            hit = run_experiment(self.make({"kind": "none"}, True, seed)).records[-1]
            guarded = run_experiment(
                self.make({"kind": "lomar", "epsilon": 1.0, "bandwidth": 0.01},
                          True, seed))
            g = guarded.records[-1]
            if hit.target_acc > 0.60:
                failures.append(f"seed {seed}: undefended victim accuracy "
                                f"{hit.target_acc:.3f} > 0.60")
            if g.target_acc < 0.70:
                failures.append(f"seed {seed}: filtered victim accuracy "
                                f"{g.target_acc:.3f} < 0.70")
            if g.target_acc < hit.target_acc + 0.20:
                failures.append(f"seed {seed}: recovery gap only "
                                f"{g.target_acc - hit.target_acc:.3f}")
            if g.overall_acc < clean.overall_acc - 0.02:
                failures.append(f"seed {seed}: filtered overall "
                                f"{g.overall_acc:.3f} trails clean run "
                                f"{clean.overall_acc:.3f}")
            if guarded.auc < 0.85:
                failures.append(f"seed {seed}: detection AUC {guarded.auc:.3f}")
        status = "PASS" if not failures else "FAIL"
        print(f"\nACCEPTANCE 3-5 stand-in (synthetic): {status}")
        assert not failures, "; ".join(failures)
