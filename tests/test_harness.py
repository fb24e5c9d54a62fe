"""Experiment harness tests: config parsing, runs, outputs, sweeps, CLI."""

import csv
import ctypes
import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import asdict, astuple, fields, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from lomarlab import cli, harness
from lomarlab.harness import (
    ConfigError,
    EvalSection,
    apply_sweep_value,
    config_from_dict,
    initialize_state,
    load_config,
    run_experiment,
    run_sweep,
    sweep_values,
)
from lomarlab.metrics import RocPoint, roc_from_scores
from lomarlab.models import ParamLayout, ParamVector, Round


def base_dict(**overrides):
    """A small, fast experiment config as a plain dict."""
    raw = {
        "num_clean": 8,
        "rounds": 2,
        "seed": 7,
        "dataset": {"kind": "synth", "num_labels": 2, "input_dim": 4,
                    "per_label_count": 60, "spread": 1.0, "radius": 3.0,
                    "test_fraction": 0.2},
        "model": {"kind": "logistic", "learning_rate": 0.1,
                  "local_epochs": 1, "batch_size": 30},
        "partition": {"samples_per_client": 30, "lambda": 0.0},
        "attack": {"kind": "label_flip", "malicious_count": 3,
                   "flip_pairs": [[0, 1]], "tau": 1.0},
        "defense": {"kind": "lomar", "epsilon": 1.0},
    }
    raw.update(overrides)
    return raw


def write_mnist_dir(directory, images, labels):
    """Write uint8 (n, rows, cols) images and their labels as the train and the test IDX pairs."""
    files, (count, rows, cols) = harness.MNIST_FILES, images.shape
    for images_key, labels_key in [("train_images", "train_labels"), ("test_images", "test_labels")]:
        (directory / files[images_key]).write_bytes(struct.pack(">IIII", 2051, count, rows, cols) + images.tobytes())
        (directory / files[labels_key]).write_bytes(struct.pack(">II", 2049, count) + labels.tobytes())


def read_scores(path):
    """The score and role columns of a run's scores.csv as (scores, malicious) arrays, in file order."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return np.array([float(r["score"]) for r in rows]), np.array([r["role"] == "malicious" for r in rows])


def assert_roc_outputs_agree(out_dir):
    """roc_points.csv is roc_from_scores of scores.csv, row by row in repr, and summary.json holds its AUC."""
    points, auc = roc_from_scores(*read_scores(out_dir / "scores.csv"))
    with open(out_dir / "roc_points.csv", encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    assert table == [[f.name for f in fields(RocPoint)]] + [[repr(v) for v in astuple(p)] for p in points]
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        assert repr(json.load(fh)["auc"]) == repr(auc)


OUTPUT_FILES = ("rounds.csv", "summary.json", "config_resolved.yaml", "scores.csv", "roc_points.csv")


def write_yaml(path, raw):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(raw, fh)
    return path


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = config_from_dict({"num_clean": 4})
        assert cfg.num_clean == 4
        assert cfg.rounds == 200
        assert cfg.seed == 0
        assert cfg.dataset.kind == "synth"
        assert cfg.attack.kind == "none"
        assert cfg.defense.kind == "lomar"
        assert cfg.defense.epsilon == 1.0

    def test_missing_num_clean(self):
        with pytest.raises(ConfigError):
            config_from_dict({"rounds": 3})

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'bogus' in top level"):
            config_from_dict(base_dict(bogus=1))

    def test_unknown_section_key(self):
        raw = base_dict()
        raw["dataset"]["bogus"] = 1
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict(raw)

    def test_section_must_be_mapping(self):
        for section, value in [("dataset", [1, 2]), ("attack", "label_flip")]:
            with pytest.raises(ConfigError, match=f"section '{section}' must be a mapping"):
                config_from_dict(base_dict(**{section: value}))

    def test_lambda_alias(self):
        cfg = config_from_dict(base_dict(partition={"samples_per_client": 30,
                                                    "lambda": 0.7}))
        assert cfg.partition.lam == 0.7
        cfg = config_from_dict(base_dict(partition={"samples_per_client": 30,
                                                    "lam": 0.3}))
        assert cfg.partition.lam == 0.3

    @pytest.mark.parametrize("keys", [("lambda", "lam"), ("lam", "lambda")])
    def test_field_named_twice_rejected(self, keys):
        partition = {"samples_per_client": 30, keys[0]: 0.7, keys[1]: 0.3}
        with pytest.raises(ConfigError, match=f"keys '{keys[0]}' and '{keys[1]}'"):
            config_from_dict(base_dict(partition=partition))

    def test_readme_block_shows_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = yaml.safe_load(re.search(r"```yaml\n(.*?)```", readme, re.S).group(1))
        block["partition"]["lam"] = block["partition"].pop("lambda")
        defaults = yaml.safe_load(yaml.safe_dump(asdict(config_from_dict({"num_clean": 50}))))
        assert block == defaults

    def test_flip_pairs_coerced_to_int_tuples(self):
        raw = base_dict()
        raw["attack"]["flip_pairs"] = [[0, 1], [1, 0]]
        cfg = config_from_dict(raw)
        assert cfg.attack.flip_pairs == ((0, 1), (1, 0))
        assert all(isinstance(v, int) for pair in cfg.attack.flip_pairs for v in pair)
        # flip labels follow the int rule: a float never passes, even an integral one
        raw["attack"]["flip_pairs"] = [[0, 1], [1.0, 0.0]]
        with pytest.raises(ConfigError, match=re.escape("section 'attack': flip_pairs must be")):
            config_from_dict(raw)

    @pytest.mark.parametrize("pairs, want", [
        pytest.param([[0.5, 1]], "int, got 0.5", id="fraction"),
        pytest.param([[True, 0]], "int, got True", id="bool"),
        pytest.param([[1.0, 0]], "int, got 1.0", id="integral-float"),
        pytest.param([[1, 2, 3]], "tuple[int, int], got [1, 2, 3]", id="triple"),
        pytest.param([7], "tuple[int, int], got 7", id="bare-label"),
        pytest.param([["a", 1]], "int, got 'a'", id="str"),
    ])
    def test_malformed_flip_pairs_rejected(self, pairs, want):
        # the message names the first item that breaks the declared type
        raw = base_dict()
        raw["attack"]["flip_pairs"] = pairs
        with pytest.raises(ConfigError, match=re.escape(f"section 'attack': flip_pairs must be {want}")):
            config_from_dict(raw)

    def test_flip_pairs_must_be_list(self):
        raw = base_dict()
        raw["attack"]["flip_pairs"] = "0,1"
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("section, key, value, want", [
        pytest.param("defense", "k", 2.5, "int | None", id="k-float"),
        pytest.param("partition", "samples_per_client", 2.5, "int", id="samples-float"),
        pytest.param("model", "local_epochs", True, "int", id="epochs-bool"),
        pytest.param("partition", "allow_replacement", "false", "bool", id="allow-replacement-str"),
        pytest.param(None, "rounds", 2.7, "int", id="rounds-float"),
        pytest.param(None, "num_clean", "8", "int", id="num-clean-str"),
        pytest.param(None, "seed", 1.5, "int", id="seed-float"),
    ])
    def test_mistyped_value_rejected(self, section, key, value, want):
        raw = base_dict()
        (raw if section is None else raw[section])[key] = value
        where = "top level" if section is None else f"section {section!r}"
        with pytest.raises(ConfigError, match=re.escape(f"{where}: {key} must be {want}, got {value!r}")):
            config_from_dict(raw)

    def test_int_for_float_and_null_for_optional_load(self):
        raw = base_dict(defense={"kind": "lomar", "epsilon": 1, "k": None})
        raw["dataset"]["spread"] = 0
        cfg = config_from_dict(raw)
        assert cfg.defense.epsilon == 1 and cfg.defense.k is None and cfg.dataset.spread == 0

    def test_bad_section_values(self):
        raw = base_dict()
        raw["dataset"]["kind"] = "bogus"
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(rounds=0))
        with pytest.raises(ConfigError):
            config_from_dict({"num_clean": 1})
        # model, partition and synthetic-dataset values are checked at load too
        for section, values in [("model", {"learning_rate": -1}), ("model", {"kind": "bogus"}),
                                ("model", {"kind": "mlp"}), ("model", {"batch_size": 0}),
                                ("partition", {"samples_per_client": 0}), ("partition", {"lambda": 1.0}),
                                ("dataset", {"spread": -1}), ("dataset", {"input_dim": 0}),
                                ("dataset", {"num_labels": 1}), ("dataset", {"per_label_count": 0})]:
            raw = base_dict()
            raw[section].update(values)
            with pytest.raises(ConfigError):
                config_from_dict(raw)

    @pytest.mark.parametrize("kind", ["lomar", "krum"])
    @pytest.mark.parametrize("key", ["k", "bandwidth", "density_floor"])
    def test_density_knobs_checked_at_load(self, kind, key):
        # DefenseConfig is a KdeConfig, so LoMar's checks run for every kind
        with pytest.raises(ConfigError, match=key):
            config_from_dict(base_dict(defense={"kind": kind, key: 0}))

    @pytest.mark.parametrize("defense", [
        pytest.param({"kind": "lomar", "assumed_malicious": -1}, id="lomar-negative"),
        pytest.param({"kind": "krum", "assumed_malicious": -1}, id="krum-negative"),
        pytest.param({"kind": "fg_krum", "assumed_malicious": 10}, id="krum_first-no-window"),
        pytest.param({"kind": "fg_krum", "fg_krum_order": "fg_first", "assumed_malicious": -1},
                     id="fg_first-negative"),
    ])
    def test_assumed_malicious_checked_at_load(self, defense):
        with pytest.raises(ConfigError, match="assumed_malicious"):
            config_from_dict(base_dict(defense=defense))

    def test_assumed_malicious_window_boundary(self):
        # 11 clients: assumed 8 leaves a window of 11 - 8 - 2 = 1 peer
        cfg = config_from_dict(base_dict(defense={"kind": "krum", "assumed_malicious": 8}))
        assert cfg.defense.assumed_malicious == 8
        with pytest.raises(ConfigError, match="assumed_malicious"):
            config_from_dict(base_dict(defense={"kind": "krum", "assumed_malicious": 9}))

    def test_synth_labels_checked_before_the_pool_is_drawn(self, monkeypatch):
        monkeypatch.setattr(harness, "synth_gaussian", lambda *a, **k: pytest.fail("pool drawn"))
        raw = base_dict()
        raw["attack"]["flip_pairs"] = [[0, 5]]
        with pytest.raises(ConfigError, match=r"labels \[5\] outside the dataset's 2 labels"):
            config_from_dict(raw)

    def test_fg_first_needs_only_nonnegative_assumed_malicious(self):
        # fg_first clamps the value to its FoolsGold survivors at run time
        defense = {"kind": "fg_krum", "fg_krum_order": "fg_first", "assumed_malicious": 10}
        assert config_from_dict(base_dict(defense=defense)).defense.assumed_malicious == 10

    def test_attack_budget_enforced(self):
        # 3 malicious against 4 clean breaks the 40% budget
        raw = base_dict(num_clean=4)
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.yaml")

    def test_load_config_bad_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("{:\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unparseable"):
            load_config(path)

    def test_load_config_roundtrip(self, tmp_path):
        raw = base_dict()
        path = write_yaml(tmp_path / "cfg.yaml", raw)
        assert load_config(path) == config_from_dict(raw)

    def test_eval_labels_default_is_flip_source(self):
        raw = base_dict()
        raw["attack"]["flip_pairs"] = [[1, 0]]
        cfg = config_from_dict(raw)
        # the flip suppresses the source label, so that is the victim
        assert cfg.fit(4, 2).eval == EvalSection(target_label=1, source_label=0)

    def test_eval_labels_override(self):
        cfg = config_from_dict(base_dict(eval={"target_label": 0, "source_label": 1}))
        assert cfg.fit(4, 2).eval == EvalSection(target_label=0, source_label=1)

    def test_eval_labels_without_attack(self):
        cfg = config_from_dict({"num_clean": 4})
        assert cfg.fit(8, 2).eval == EvalSection(target_label=None, source_label=None)

    def test_eval_source_label_needs_target_label(self):
        for raw in (base_dict(eval={"source_label": 0}), {"num_clean": 4, "eval": {"source_label": 1}}):
            with pytest.raises(ConfigError, match="source_label needs eval.target_label"):
                config_from_dict(raw)


@st.composite
def oversubscribed_configs(draw):
    """A label-flip config on a small synthetic pool that its clean clients oversubscribe, so that
    partition fills their shortfalls with replacement."""
    num_labels, per_label = draw(st.integers(2, 4)), draw(st.integers(3, 12))
    samples = draw(st.integers(1, per_label))  # a flip's source label covers its ceil(tau * samples) rows
    least = num_labels * per_label // samples + 1
    num_clean = draw(st.integers(least, least + 6))
    label = st.integers(0, num_labels - 1)
    pairs = draw(st.lists(st.tuples(label, label).filter(lambda pair: pair[0] != pair[1]),
                          min_size=1, max_size=2, unique=True))
    return {
        "num_clean": num_clean,
        "rounds": 1,
        "seed": draw(st.integers(0, 2**32 - 1)),
        "dataset": {"kind": "synth", "num_labels": num_labels, "input_dim": 2, "per_label_count": per_label},
        "partition": {"samples_per_client": samples, "lambda": draw(st.floats(0.0, 0.99))},
        "attack": {"kind": "label_flip", "malicious_count": draw(st.integers(1, int(0.4 * num_clean))),
                   "flip_pairs": [list(pair) for pair in pairs],
                   "tau": draw(st.floats(0.0, 1.0, exclude_min=True))},
    }


class TestInitializeState:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(oversubscribed_configs())
    def test_every_shard_holds_samples_per_client_rows(self, raw):
        # local_train steps a round's clients in lockstep only because every shard is one length
        state = initialize_state(config_from_dict(raw))
        samples = raw["partition"]["samples_per_client"]
        assert len(state.shards) == raw["num_clean"] + raw["attack"]["malicious_count"]
        assert [len(shard.rows) for shard in state.shards] == [samples] * len(state.shards)
        assert any(shard.used_replacement for shard in state.shards[:raw["num_clean"]])

    def test_roles_and_shards(self):
        cfg = config_from_dict(base_dict())
        state = initialize_state(cfg)
        assert len(state.shards) == 8 + 3
        assert [s.owner for s in state.shards] == list(range(11))
        assert state.malicious.tolist() == [False] * 8 + [True] * 3
        assert all(isinstance(s.used_replacement, bool) for s in state.shards)

    def test_every_shard_indexes_one_shared_pool(self, monkeypatch):
        drawn, real = [], harness.synth_gaussian
        monkeypatch.setattr(harness, "synth_gaussian", lambda *a, **k: drawn.append(real(*a, **k)) or drawn[-1])
        cfg = load_config(EXAMPLE_CONFIG)
        state = initialize_state(cfg)
        pool = state.train_features
        ds = cfg.dataset
        assert pool.shape == (ds.num_labels * ds.per_label_count, ds.input_dim)
        assert np.shares_memory(pool, drawn[0][0])
        assert pool is not state.test_features
        assert {s.role for s in state.shards} == {"clean", "malicious"}
        for shard in state.shards:
            assert not hasattr(shard, "pool")
            assert set(vars(shard)) == {"rows", "labels", "owner", "role", "used_replacement"}
            assert shard.rows.dtype == np.int64 and shard.rows.ndim == 1
            assert shard.rows.min() >= 0 and shard.rows.max() < len(pool)
            assert shard.labels.dtype == np.int64 and shard.labels.shape == shard.rows.shape

    @pytest.mark.parametrize("kind, dtype", [("synth", np.float32), ("mnist", np.float32)])
    def test_every_shard_shares_the_training_pool(self, tmp_path, monkeypatch, kind, dtype):
        # a per-shard cast of the pool would copy it once per client
        loaded = []
        for name in ("synth_gaussian", "load_idx"):
            real = getattr(harness, name)
            monkeypatch.setattr(harness, name, lambda *a, real=real, **k: loaded.append(real(*a, **k)) or loaded[-1])
        raw = base_dict()
        if kind == "mnist":
            rng = np.random.default_rng(4)
            write_mnist_dir(tmp_path, rng.integers(0, 256, size=(120, 2, 2), dtype=np.uint8),
                            np.tile(np.array([0, 1], dtype=np.uint8), 60))
            raw["dataset"] = {"kind": "mnist", "dir": str(tmp_path)}
        state = initialize_state(config_from_dict(raw))
        train = loaded[0][0]
        assert train.dtype == dtype and state.test_features.dtype == dtype
        assert state.train_features.dtype == dtype and state.train_features.shape == train.shape
        assert np.shares_memory(state.train_features, train)
        assert state.malicious.tolist() == [False] * 8 + [True] * 3
        for shard in state.shards:
            assert not hasattr(shard, "pool")

    @pytest.mark.parametrize("per_label, fraction, want",
                             [(100, 0.07, 7), (100, 0.55, 55), (50, 0.14, 7), (60, 0.2, 12), (60, 0.01, 1)])
    def test_test_set_size_has_no_float_artifact(self, per_label, fraction, want):
        # 100 * 0.07 is 7.000000000000001 in floats; the test set keeps 7 rows per label, not 8
        raw = base_dict()
        raw["dataset"] = {**raw["dataset"], "per_label_count": per_label, "test_fraction": fraction}
        state = initialize_state(config_from_dict(raw))
        assert np.array_equal(np.bincount(state.test_labels), [want, want])

    def test_model_spec_inferred_from_data(self):
        state = initialize_state(config_from_dict(base_dict()))
        assert state.model.input_dim == 4
        assert state.model.num_labels == 2
        assert state.test_features.shape[1] == 4

    def test_flip_source_outside_labels(self):
        raw = base_dict()
        raw["attack"]["flip_pairs"] = [[5, 0]]
        with pytest.raises(ConfigError, match="outside"):
            initialize_state(config_from_dict(raw))

    @pytest.mark.parametrize("section, values", [
        pytest.param("attack", {"flip_pairs": [[0, 5]]}, id="flip-target"),
        pytest.param("eval", {"target_label": 99}, id="eval-target"),
        pytest.param("eval", {"target_label": 0, "source_label": 99}, id="eval-source"),
        pytest.param("eval", {"target_label": -1}, id="eval-negative"),
    ])
    def test_labels_outside_dataset_rejected_before_partitioning(self, monkeypatch, section, values):
        monkeypatch.setattr(harness, "partition", lambda *a, **k: pytest.fail("partitioned"))
        raw = base_dict()
        raw.setdefault(section, {}).update(values)
        with pytest.raises(ConfigError, match="outside"):
            initialize_state(config_from_dict(raw))

    def test_mnist_model_checked_after_reading_files(self, tmp_path, monkeypatch):
        # the hyperparameters are checked at load; the dims once the files are read
        write_mnist_dir(tmp_path, np.zeros((6, 2, 2), dtype=np.uint8), np.array([0, 1, 0, 1, 0, 1], dtype=np.uint8))
        raw = base_dict(dataset={"kind": "mnist", "dir": str(tmp_path)})
        raw["model"]["learning_rate"] = -1
        with monkeypatch.context() as patched:
            patched.setattr(harness, "load_idx", lambda *a, **k: pytest.fail("a file was read"))
            with pytest.raises(ConfigError, match="learning_rate"):
                config_from_dict(raw)
        for dim in ("input_dim", "num_labels"):
            cfg = config_from_dict({**raw, "model": {"learning_rate": 0.1, dim: 3}})
            with pytest.raises(ConfigError, match=f"{dim} 3 != the data's"):
                initialize_state(cfg)  # 4 input dims and 2 labels are only in the files

    def test_model_dim_mismatch(self):
        raw = base_dict()
        raw["model"]["input_dim"] = 3
        with pytest.raises(ConfigError, match="input_dim"):
            initialize_state(config_from_dict(raw))

    def test_mnist_needs_dir(self):
        raw = base_dict()
        raw["dataset"] = {"kind": "mnist"}
        with pytest.raises(ConfigError, match="dir"):
            config_from_dict(raw)

    def test_mnist_missing_files(self, tmp_path):
        raw = base_dict()
        raw["dataset"] = {"kind": "mnist", "dir": str(tmp_path)}
        with pytest.raises(FileNotFoundError):
            initialize_state(config_from_dict(raw))


SCORED_DEFENSES = ("lomar", "krum", "foolsgold", "fg_krum")
UNSCORED_DEFENSES = ("none", "median")
DEFENSE_CASES = [pytest.param({"kind": kind}, id=kind) for kind in SCORED_DEFENSES + UNSCORED_DEFENSES]
DEFENSE_CASES.append(pytest.param({"kind": "fg_krum", "fg_krum_order": "fg_first"}, id="fg_krum-fg_first"))


class TestRunExperiment:
    @pytest.mark.parametrize("defense", DEFENSE_CASES)
    def test_each_defense_runs(self, defense):
        kind = defense["kind"]
        raw = base_dict(rounds=1)
        raw["defense"] = defense
        out = run_experiment(config_from_dict(raw))
        assert len(out.records) == 1
        rec = out.records[0]
        assert 0.0 <= rec.overall_acc <= 1.0
        assert np.all(np.isfinite(out.state.joint.values))
        # similarity-weighting may zero everyone out on near-IID shards
        if kind not in ("foolsgold", "fg_krum"):
            assert rec.num_kept >= 1
        if kind in SCORED_DEFENSES:
            assert out.state.last_scores.shape == (11,)
            assert out.summary["auc"] is not None and 0.0 <= out.summary["auc"] <= 1.0
        else:
            assert out.state.last_scores is None
            assert out.summary["auc"] is None
        # only the density defense has a threshold and a bandwidth to report
        assert (rec.epsilon is not None) == (kind == "lomar")
        assert (rec.h is not None) == (kind == "lomar")

    @pytest.mark.parametrize("kind, name", [("lomar", "lomar_run"), ("krum", "krum")])
    def test_defense_rule_looked_up_at_call_time(self, monkeypatch, kind, name):
        # a wrapper installed on harness after import sees every round's call
        calls = []
        rule = getattr(harness, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return rule(*args, **kwargs)

        monkeypatch.setattr(harness, name, counting)
        raw = base_dict(rounds=3)
        raw["defense"] = {"kind": kind}
        run_experiment(config_from_dict(raw))
        assert len(calls) == 3

    def test_summary_schema(self):
        out = run_experiment(config_from_dict(base_dict()))
        assert set(out.summary) == {
            "schema_version", "seed", "rounds", "defense", "attack",
            "num_clean", "num_malicious", "final", "mean_rates", "auc",
            "final_epsilon", "final_h", "floor_hits_total", "replacement_used",
        }
        assert out.summary["seed"] == 7
        assert out.summary["rounds"] == 2
        assert out.summary["defense"] == "lomar"
        assert out.summary["attack"] == "label_flip"
        assert out.summary["num_clean"] == 8
        assert out.summary["num_malicious"] == 3
        assert set(out.summary["final"]) == {"overall_acc", "target_acc", "other_acc"}
        assert out.summary["final_epsilon"] == 1.0
        assert out.summary["final_h"] > 0.0
        assert out.summary["floor_hits_total"] >= 0

    def test_confusion_identities_per_round(self):
        out = run_experiment(config_from_dict(base_dict()))
        for rec in out.records:
            assert rec.n_t + rec.m_f == 8
            assert rec.n_f + rec.m_t == 3
            assert rec.num_kept == rec.n_t + rec.n_f

    def test_mean_rates_sum_to_one(self):
        rates = run_experiment(config_from_dict(base_dict())).summary["mean_rates"]
        assert rates["clean_kept_rate"] + rates["clean_dropped_rate"] == pytest.approx(1.0)
        assert rates["malicious_kept_rate"] + rates["malicious_dropped_rate"] == pytest.approx(1.0)

    def test_mean_rates_are_exact_count_ratios(self):
        out = run_experiment(load_config(EXAMPLE_CONFIG), seed=7)
        summary = out.summary
        clean, malicious = summary["num_clean"], summary["num_malicious"]
        for key, count, population in (("clean_kept_rate", "n_t", clean), ("clean_dropped_rate", "m_f", clean),
                                       ("malicious_kept_rate", "n_f", malicious),
                                       ("malicious_dropped_rate", "m_t", malicious)):
            total = sum(getattr(r, count) for r in out.records)
            assert summary["mean_rates"][key] == float(Fraction(total, summary["rounds"] * population)), key

    def test_no_attack_rates_are_none(self):
        raw = base_dict()
        raw["attack"] = {"kind": "none"}
        out = run_experiment(config_from_dict(raw))
        assert out.summary["num_malicious"] == 0
        assert out.summary["mean_rates"]["malicious_kept_rate"] is None
        assert out.summary["auc"] is None

    def test_output_files(self, tmp_path):
        out_dir = tmp_path / "run"
        out = run_experiment(config_from_dict(base_dict()), out_dir=out_dir)
        for name in OUTPUT_FILES:
            assert (out_dir / name).exists(), name

        with open(out_dir / "rounds.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "overall_acc", "target_acc", "other_acc",
                           "n_t", "n_f", "m_t", "m_f", "num_kept", "epsilon", "h"]
        assert len(rows) == 1 + 2
        assert [r[0] for r in rows[1:]] == ["1", "2"]

        with open(out_dir / "scores.csv", encoding="utf-8", newline="") as fh:
            score_rows = list(csv.DictReader(fh))
        assert len(score_rows) == 11
        assert all(r["kept"] in ("0", "1") for r in score_rows)
        assert all(r["role"] in ("clean", "malicious") for r in score_rows)

        with open(out_dir / "roc_points.csv", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["threshold", "sensitivity", "one_minus_specificity"]

        with open(out_dir / "summary.json", encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["seed"] == out.summary["seed"]
        assert loaded["auc"] == pytest.approx(out.summary["auc"])

        with open(out_dir / "config_resolved.yaml", encoding="utf-8") as fh:
            resolved = yaml.safe_load(fh)
        assert resolved["num_clean"] == 8
        assert resolved["seed"] == 7

    def test_rerun_without_scores_leaves_no_stale_score_files(self, tmp_path):
        out_dir = tmp_path / "run"
        run_experiment(config_from_dict(base_dict()), out_dir=out_dir)
        assert (out_dir / "scores.csv").exists() and (out_dir / "roc_points.csv").exists()
        median = base_dict(defense={"kind": "median"})
        assert run_experiment(config_from_dict(median), out_dir=out_dir).summary["auc"] is None
        assert not (out_dir / "scores.csv").exists()
        assert not (out_dir / "roc_points.csv").exists()

        run_experiment(config_from_dict(base_dict()), out_dir=out_dir)
        # LoMar still scores every client without an attack, but there is no ROC
        no_attack = run_experiment(config_from_dict(base_dict(attack={"kind": "none"})), out_dir=out_dir)
        assert not (out_dir / "roc_points.csv").exists()
        scores, malicious = read_scores(out_dir / "scores.csv")
        assert np.array_equal(scores, no_attack.state.last_scores) and not malicious.any()

    def test_nan_becomes_null_in_summary_json(self, tmp_path):
        # no attack and no eval override: target accuracy is NaN
        raw = base_dict()
        raw["attack"] = {"kind": "none"}
        out_dir = tmp_path / "run"
        out = run_experiment(config_from_dict(raw), out_dir=out_dir)
        assert math.isnan(out.summary["final"]["target_acc"])
        with open(out_dir / "summary.json", encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["final"]["target_acc"] is None

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = config_from_dict(base_dict())
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for name in OUTPUT_FILES:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    @pytest.mark.parametrize("overrides", [
        pytest.param({"partition": {"samples_per_client": 30, "lambda": 0.3}}, id="lomar"),
        pytest.param({"model": {"kind": "mlp", "hidden_dim": 3, "learning_rate": 0.1, "local_epochs": 1,
                                "batch_size": 30},
                      "defense": {"kind": "fg_krum"}}, id="mlp-fg_krum"),
    ])
    def test_resolved_config_reruns_exactly(self, tmp_path, overrides):
        # the seed override is part of the resolved config
        run_experiment(config_from_dict(base_dict(**overrides)), out_dir=tmp_path / "a", seed=11)
        run_experiment(load_config(tmp_path / "a" / "config_resolved.yaml"), out_dir=tmp_path / "b")
        for name in OUTPUT_FILES:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    @pytest.mark.parametrize("kind", ["synth", "mnist"])
    def test_resolved_config_is_the_fitted_config(self, tmp_path, kind):
        raw = base_dict(output_dir=str(tmp_path / "default"))
        dims = (4, 2)
        if kind == "mnist":
            rng = np.random.default_rng(4)
            write_mnist_dir(tmp_path, rng.integers(0, 256, size=(120, 2, 3), dtype=np.uint8),
                            np.tile(np.array([0, 1, 2], dtype=np.uint8), 40))
            raw["dataset"] = {"kind": "mnist", "dir": str(tmp_path)}
            dims = (6, 3)
        cfg = run_experiment(config_from_dict(raw), out_dir=tmp_path / "run", seed=11).state.cfg
        assert (cfg.seed, cfg.model.input_dim, cfg.model.num_labels) == (11, *dims)
        assert cfg.eval == EvalSection(target_label=0, source_label=1)
        assert load_config(tmp_path / "run" / "config_resolved.yaml") == replace(cfg, output_dir=None)
        assert cfg.fit(*dims) is cfg

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = config_from_dict(base_dict())
        run_experiment(cfg, out_dir=tmp_path / "a")
        out_b = run_experiment(cfg, out_dir=tmp_path / "b", seed=11)
        assert out_b.summary["seed"] == 11
        a = (tmp_path / "a" / "scores.csv").read_bytes()
        b = (tmp_path / "b" / "scores.csv").read_bytes()
        assert a != b

    def test_scores_csv_roundtrip(self, tmp_path):
        out_dir = tmp_path / "run"
        out = run_experiment(config_from_dict(base_dict()), out_dir=out_dir)
        scores, malicious = read_scores(out_dir / "scores.csv")
        assert np.array_equal(scores, out.state.last_scores)  # repr round-trips floats exactly
        assert np.array_equal(malicious, out.state.malicious)


class TestModelPoison:
    def test_malicious_rows_are_boosted_deltas(self, monkeypatch):
        raw = base_dict(rounds=1, defense={"kind": "krum"})
        raw["attack"] = {**raw["attack"], "kind": "model_poison", "boost_factor": 3.7}
        state = initialize_state(config_from_dict(raw))
        submitted = []
        rule = harness.DEFENSES["krum"]
        monkeypatch.setitem(harness.DEFENSES, "krum",
                            lambda state, rnd: rule(state, submitted.append(rnd.deltas.copy()) or rnd))
        joint = state.joint
        harness.run_round(state)
        (deltas,) = submitted
        assert state.malicious.tolist() == [False] * 8 + [True] * 3
        for row, shard, malicious in zip(deltas, state.shards, state.malicious):
            seed = np.random.SeedSequence([state.cfg.seed, harness.TAG_TRAIN, 1, shard.owner])
            trained = harness.local_train(joint, state.train_features, [shard], state.cfg.model, [seed])[0]
            assert np.any(trained != 0), shard.owner
            want = trained * 3.7 if malicious else trained
            assert row.tobytes() == want.tobytes(), shard.owner


class TestLomarLogDomain:
    def test_factors_beyond_float64_keep_finite_scores(self):
        # 100 labels of 3 parameters, 60 standard-normal clean rows and 20
        # colluders on the clean mean, at a tight bandwidth: every clean F(i)
        # is past the float64 range, so only its log can be the score
        layout = ParamLayout((3,) * 100)
        clean = np.random.default_rng(0).normal(size=(60, 300))
        rnd = Round(np.arange(80), np.vstack([clean, np.tile(clean.mean(axis=0), (20, 1))]), layout)
        cfg = config_from_dict(base_dict(defense={"kind": "lomar", "bandwidth": 0.05}))
        state = SimpleNamespace(cfg=cfg, joint=ParamVector(np.zeros(layout.size), layout), floor_hits_total=0)
        agg = harness.DEFENSES["lomar"](state, rnd)
        assert np.all(np.isfinite(agg.scores))
        assert agg.scores[:60].min() > math.log(np.finfo(np.float64).max)
        assert np.array_equal(agg.kept, agg.scores >= 0)
        assert agg.kept[:60].all() and not agg.kept[60:].any()


class TestSweep:
    def test_sweep_values_parsing(self):
        assert sweep_values("0.5, 1.0,2") == [0.5, 1.0, 2.0]
        with pytest.raises(ConfigError):
            sweep_values("0.5,zap")
        with pytest.raises(ConfigError):
            sweep_values(" , ")
        for grid in ("0.8,0.80", "1,2,1.0", "0.5,-0.0,0"):
            with pytest.raises(ConfigError, match="repeats"):
                sweep_values(grid)

    def test_apply_sweep_value(self):
        cfg = config_from_dict(base_dict())
        assert apply_sweep_value(cfg, "tau", 0.6).attack.tau == 0.6
        assert apply_sweep_value(cfg, "lambda", 0.4).partition.lam == 0.4
        assert apply_sweep_value(cfg, "epsilon", 2.0).defense.epsilon == 2.0
        with pytest.raises(ConfigError):
            apply_sweep_value(cfg, "spread", 1.0)
        # replace() reruns each section's checks; their ValueError must surface as ConfigError
        for param, value in [("epsilon", 0.0), ("tau", 0.0), ("lambda", 1.0)]:
            with pytest.raises(ConfigError, match=param):
                apply_sweep_value(cfg, param, value)

    def test_run_sweep_checks_every_value_first(self, tmp_path):
        with pytest.raises(ConfigError, match="epsilon"):
            run_sweep(config_from_dict(base_dict(rounds=1)), "epsilon", "1.0,0", tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_run_sweep_outputs(self, tmp_path):
        cfg = config_from_dict(base_dict(rounds=1))
        rows = run_sweep(cfg, "epsilon", "0.5,1.5", tmp_path)
        assert [r["value"] for r in rows] == [0.5, 1.5]
        assert [r["dir"] for r in rows] == ["epsilon_0.5", "epsilon_1.5"]
        for row in rows:
            sub = tmp_path / row["dir"]
            with open(sub / "summary.json", encoding="utf-8") as fh:
                summary = json.load(fh)
            assert summary["final"]["overall_acc"] == pytest.approx(row["final_overall_acc"])
            expect = (row["final_overall_acc"] + row["final_target_acc"]) / 2.0
            assert row["combined_acc"] == pytest.approx(expect)
        with open(tmp_path / "sweep_summary.csv", encoding="utf-8", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["param", "value", "dir", "final_overall_acc",
                           "final_target_acc", "combined_acc", "auc"]
        assert len(table) == 3


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lomarlab", *args],
                          capture_output=True, text=True, timeout=120)


EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "example.yaml"


def bundled_openblas() -> bool:
    """Whether numpy runs the OpenBLAS bundled in its wheel, whose thread count the CLI pins."""
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    return any(hasattr(ctypes.CDLL(str(lib)), "scipy_openblas_set_num_threads64_") for lib in libs)


def cli_dict(**overrides):
    raw = base_dict(num_clean=6, rounds=1)
    raw["attack"]["malicious_count"] = 2
    raw["dataset"]["per_label_count"] = 40
    raw["partition"]["samples_per_client"] = 20
    raw.update(overrides)
    return raw


class TestCli:
    def test_run_writes_outputs(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        out_dir = tmp_path / "run"
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        assert "final overall_acc:" in proc.stdout
        assert f"wrote {out_dir}" in proc.stdout
        assert (out_dir / "summary.json").exists()

    def test_run_unknown_key_exits_2(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict(bogus=1))
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("defense", [
        pytest.param({"kind": "krum", "assumed_malicious": -1}, id="krum-assumed-negative"),
        pytest.param({"kind": "krum", "assumed_malicious": 30}, id="krum-assumed-no-window"),
        pytest.param({"kind": "lomar", "k": 0}, id="lomar-k-0"),
        pytest.param({"kind": "lomar", "k": 28}, id="lomar-k-past-population"),
        pytest.param({"kind": "lomar", "density_floor": 0}, id="lomar-density-floor-0"),
        pytest.param({"kind": "lomar", "neighbor_density_mode": "own_neighborhood"},
                     id="lomar-neighbor-density-mode"),
    ])
    def test_run_bad_defense_on_example_exits_2(self, tmp_path, defense):
        with open(EXAMPLE_CONFIG, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
        raw["defense"] = defense
        cfg_path = write_yaml(tmp_path / "cfg.yaml", raw)
        out_dir = tmp_path / "x"
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(out_dir))
        assert proc.returncode == 2, proc.stderr
        assert "config error" in proc.stderr
        assert proc.stdout == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, values", [
        pytest.param("model", {"learning_rate": -1}, id="learning-rate"),
        pytest.param("partition", {"samples_per_client": 0}, id="samples-per-client"),
        pytest.param("defense", {"k": 2.5}, id="k-float"),
        pytest.param("dataset", {"spread": -1}, id="spread"),
        pytest.param("attack", {"flip_pairs": [[0, 5]]}, id="flip-target"),
        pytest.param("attack", {"flip_pairs": [[0.5, 1]]}, id="flip-fraction"),
        pytest.param("attack", {"flip_pairs": [[True, 0]]}, id="flip-bool"),
        pytest.param("attack", {"flip_pairs": [[1.0, 0]]}, id="flip-integral-float"),
        pytest.param("attack", {"flip_pairs": [[1, 2, 3]]}, id="flip-triple"),
        pytest.param("attack", {"flip_pairs": [7]}, id="flip-bare-label"),
        pytest.param("attack", {"flip_pairs": [["a", 1]]}, id="flip-str"),
        pytest.param("eval", {"target_label": 99}, id="eval-target"),
        pytest.param("eval", {"target_label": 0, "source_label": 99}, id="eval-source"),
        pytest.param("eval", {"source_label": 0}, id="eval-source-without-target"),
        pytest.param("defense", {"epsilon": math.nan}, id="epsilon-nan"),
        pytest.param("defense", {"epsilon": math.inf}, id="epsilon-inf"),
        pytest.param("dataset", {"spread": math.nan}, id="spread-nan"),
        pytest.param("attack", {"kind": "model_poison", "boost_factor": math.nan}, id="boost-factor-nan"),
        pytest.param("defense", {"bandwidth": math.nan}, id="bandwidth-nan"),
        pytest.param("defense", {"density_floor": math.nan}, id="density-floor-nan"),
        pytest.param("model", {"learning_rate": math.nan}, id="learning-rate-nan"),
        pytest.param("dataset", {"radius": math.nan}, id="radius-nan"),
        pytest.param(None, {"renormalize_weights": False}, id="renormalize-weights-removed"),
    ])
    def test_run_bad_value_exits_2_before_training(self, tmp_path, monkeypatch, section, values):
        monkeypatch.setattr(harness, "local_train", lambda *a, **k: pytest.fail("a client trained"))
        raw = cli_dict()
        (raw if section is None else raw.setdefault(section, {})).update(values)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", raw)
        out_dir = tmp_path / "x"
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path), "--out", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert not out_dir.exists()

    @pytest.mark.parametrize("overrides, command, args", [
        pytest.param({"seed": -1}, "run", [], id="yaml-seed-negative"),
        pytest.param({}, "run", ["--seed", "-1"], id="run-seed-negative"),
        pytest.param({}, "sweep", ["--seed", "-1", "--param", "epsilon", "--grid", "1.0"],
                     id="sweep-seed-negative"),
        pytest.param({}, "sweep", ["--param", "epsilon", "--grid", "nan,inf"], id="sweep-grid-non-finite"),
        pytest.param({}, "sweep", ["--param", "epsilon", "--grid", "0.8,0.80"], id="sweep-grid-repeated"),
    ])
    def test_bad_seed_or_grid_exits_2_before_training(self, tmp_path, monkeypatch, overrides, command, args):
        monkeypatch.setattr(harness, "local_train", lambda *a, **k: pytest.fail("a client trained"))
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict(**overrides))
        out_dir = tmp_path / "x"
        result = CliRunner().invoke(cli.main, [command, "--config", str(cfg_path), *args, "--out", str(out_dir)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert not out_dir.exists()

    @pytest.mark.skipif(not bundled_openblas(), reason="numpy's BLAS is not its bundled OpenBLAS")
    def test_run_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # One FedSGD step at batch 600 over 784 dims: unpinned, two OpenBLAS
        # threads change the last bits of the deltas and of Krum's distances.
        raw = {"num_clean": 20, "rounds": 1, "seed": 3,
               "dataset": {"kind": "synth", "num_labels": 10, "input_dim": 784, "per_label_count": 1200},
               "model": {"kind": "logistic", "local_epochs": 1, "batch_size": 600},
               "partition": {"samples_per_client": 600},
               "attack": {"kind": "model_poison", "malicious_count": 8, "flip_pairs": [[7, 1]]},
               "defense": {"kind": "fg_krum"}}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", raw)
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-m", "lomarlab", "run", "--config", str(cfg_path),
                                   "--out", str(tmp_path / threads)], capture_output=True, text=True,
                                  timeout=120, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
        assert sorted(p.name for p in (tmp_path / "1").iterdir()) == sorted(OUTPUT_FILES)
        for name in OUTPUT_FILES:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name

    def test_run_missing_config_exits_2(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "absent.yaml"),
                       "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

    @pytest.mark.parametrize("make, match", [
        (lambda path: path.mkdir(), "unreadable config"),
        (lambda path: path.write_bytes(b"num_clean: 20\nseed: \xff\xfe\n"), "unparseable config"),
    ], ids=["directory", "non-utf8"])
    def test_run_unreadable_config_exits_2(self, tmp_path, make, match):
        make(tmp_path / "cfg.yaml")
        result = CliRunner().invoke(cli.main, ["run", "--config", str(tmp_path / "cfg.yaml"),
                                               "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert f"config error: {match}" in result.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("section, key, value", [
        pytest.param("defense", "density_floor", 1e-300, id="density_floor-1e-300"),
        pytest.param("defense", "neighbor_density_mode", "own_neighborhood",
                     id="neighbor_density_mode-own_neighborhood"),
        pytest.param(None, "renormalize_weights", False, id="renormalize_weights-False"),
    ])
    def test_resolved_config_with_a_removed_key_exits_2(self, tmp_path, section, key, value):
        # a config_resolved.yaml written while the config had these knobs holds each of them
        out_dir = tmp_path / "run"
        run_experiment(config_from_dict(cli_dict()), out_dir=out_dir)
        raw = yaml.safe_load((out_dir / "config_resolved.yaml").read_text(encoding="utf-8"))
        (raw if section is None else raw[section])[key] = value
        cfg_path = write_yaml(tmp_path / "old_resolved.yaml", raw)
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        where = "top level" if section is None else f"section {section!r}"
        assert result.exit_code == 2, result.output
        assert f"config error: unknown key '{key}' in {where}" in result.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("body, match", [
        pytest.param(b"[]\n", "top level must be a mapping", id="list"),
        pytest.param(b"0\n", "top level must be a mapping", id="zero"),
        pytest.param(b"false\n", "top level must be a mapping", id="false"),
        pytest.param(b'""\n', "top level must be a mapping", id="empty-string"),
        pytest.param(b"", "top level needs num_clean", id="empty-file"),
    ])
    def test_run_config_top_level_exits_2(self, tmp_path, body, match):
        (tmp_path / "cfg.yaml").write_bytes(body)
        result = CliRunner().invoke(cli.main, ["run", "--config", str(tmp_path / "cfg.yaml"),
                                               "--out", str(tmp_path / "x")])
        assert result.exit_code == 2, result.output
        assert f"config error: {match}" in result.output
        assert not (tmp_path / "x").exists()

    def test_run_without_out_dir_exits_2(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        proc = run_cli("run", "--config", str(cfg_path))
        assert proc.returncode == 2
        assert "output" in proc.stderr

    def test_run_missing_data_exits_3(self, tmp_path):
        raw = cli_dict()
        raw["dataset"] = {"kind": "mnist", "dir": str(tmp_path / "nowhere")}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", raw)
        proc = run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
        assert proc.returncode == 3
        assert "error" in proc.stderr

    def test_roc_is_no_command(self, tmp_path):
        # every scored run writes roc_points.csv and its AUC itself
        proc = run_cli("roc", "--from", str(tmp_path))
        assert proc.returncode == 2
        assert "No such command 'roc'" in proc.stderr
        listing = CliRunner().invoke(cli.main, ["--help"]).output.split("Commands:")[1]
        assert [line.split()[0] for line in listing.splitlines() if line.strip()] == ["run", "sweep"]

    def test_sweep_writes_summary(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        out_root = tmp_path / "sweep"
        proc = run_cli("sweep", "--config", str(cfg_path), "--param", "epsilon",
                       "--grid", "0.5,1.5", "--out", str(out_root))
        assert proc.returncode == 0, proc.stderr
        assert (out_root / "sweep_summary.csv").exists()
        assert (out_root / "epsilon_0.5" / "summary.json").exists()

    def test_sweep_zero_epsilon_exits_2(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        out_root = tmp_path / "s"
        proc = run_cli("sweep", "--config", str(cfg_path), "--param", "epsilon",
                       "--grid", "0", "--out", str(out_root))
        assert proc.returncode == 2, proc.stderr
        assert "epsilon" in proc.stderr
        assert not (out_root / "epsilon_0.0").exists()

    def test_sweep_bad_param_exits_2(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        proc = run_cli("sweep", "--config", str(cfg_path), "--param", "spread",
                       "--grid", "1,2", "--out", str(tmp_path / "s"))
        assert proc.returncode == 2


# Clients 3 (clean) and 22 (malicious) of configs/example.yaml.
NON_FINITE_CLIENTS = (3, 22)


def non_finite_local_train(value, owners=NON_FINITE_CLIENTS):
    """harness.local_train, except that the given owners' deltas get one `value` entry."""
    train = harness.local_train

    def patched(joint, pool, shards, spec, seeds):
        deltas = train(joint, pool, shards, spec, seeds)
        for delta, shard in zip(deltas, shards):
            if shard.owner in owners:
                delta[0] = value
        return deltas
    return patched


def example_with(kind, rounds=5):
    with open(EXAMPLE_CONFIG, encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    raw["defense"]["kind"] = kind
    raw["rounds"] = rounds
    return config_from_dict(raw)


class TestRocOutputs:
    @pytest.mark.parametrize("value", [None, math.inf], ids=["clean", "non-finite"])
    def test_roc_points_and_auc_are_the_scores_roc(self, tmp_path, monkeypatch, value):
        if value is not None:
            monkeypatch.setattr(harness, "local_train", non_finite_local_train(value))
        out = run_experiment(example_with("lomar", rounds=2), out_dir=tmp_path)
        assert np.isneginf(out.state.last_scores).sum() == (0 if value is None else 2)
        assert_roc_outputs_agree(tmp_path)

    @pytest.mark.parametrize("kind", [k for k in SCORED_DEFENSES if k != "lomar"])
    def test_every_scored_defense_writes_the_scores_roc(self, tmp_path, kind):
        out = run_experiment(example_with(kind, rounds=2), out_dir=tmp_path)
        assert np.all(np.isfinite(out.state.last_scores))
        assert_roc_outputs_agree(tmp_path)


class TestNonFiniteGuard:
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("kind", list(harness.DEFENSES))
    def test_non_finite_client_is_dropped(self, tmp_path, monkeypatch, kind, value):
        monkeypatch.setattr(harness, "local_train", non_finite_local_train(value))
        kept_per_round = []
        counts = harness.confusion_counts

        def recording(kept, malicious):
            kept_per_round.append(kept.copy())
            return counts(kept, malicious)

        monkeypatch.setattr(harness, "confusion_counts", recording)
        out_dir = tmp_path / "run"
        out = run_experiment(example_with(kind), out_dir=out_dir)

        assert np.all(np.isfinite(out.state.joint.values))
        assert len(kept_per_round) == 5
        assert not any(kept[list(NON_FINITE_CLIENTS)].any() for kept in kept_per_round)
        assert all(r.n_t + r.m_f == 20 and r.n_f + r.m_t == 8 for r in out.records)
        if kind in ("none", "median"):
            assert out.state.last_scores is None
            return
        finite = np.ones(28, dtype=bool)
        finite[list(NON_FINITE_CLIENTS)] = False
        assert np.all(out.state.last_scores[~finite] == -math.inf)
        assert np.all(np.isfinite(out.state.last_scores[finite]))
        scores, _ = read_scores(out_dir / "scores.csv")
        assert len(scores) == 28
        assert scores[list(NON_FINITE_CLIENTS)].tolist() == [-math.inf, -math.inf]
        assert_roc_outputs_agree(out_dir)

    @pytest.mark.parametrize("kind", ["krum", "fg_krum"])
    def test_krum_window_shrinks_with_the_finite_rows(self, monkeypatch, kind):
        # 28 clients admit assumed_malicious 25 at load, but only 26 rows reach
        # Krum; it then assumes at most 26 - 3 = 23 of them malicious
        raw = yaml.safe_load(EXAMPLE_CONFIG.read_text())
        raw["defense"] = {"kind": kind, "assumed_malicious": 25}
        raw["rounds"] = 2
        monkeypatch.setattr(harness, "local_train", non_finite_local_train(math.nan))
        state = initialize_state(config_from_dict(raw))
        for _ in range(2):
            record = harness.run_round(state)
            assert not state.last_kept[list(NON_FINITE_CLIENTS)].any()
            if kind == "krum":
                assert record.num_kept == 12  # floor(26 - 0.5 * 23 - 2)
        assert np.all(np.isfinite(state.joint.values))

    def test_krum_with_fewer_than_three_finite_rows_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "local_train", non_finite_local_train(math.nan, owners=range(2, 28)))
        raw = yaml.safe_load(EXAMPLE_CONFIG.read_text())
        raw["defense"] = {"kind": "krum"}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", raw)
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert "krum needs n - assumed_malicious - 2 >= 1, got n=2, assumed=0" in result.output

    def test_lomar_with_no_more_finite_rows_than_k_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "local_train", non_finite_local_train(math.nan, owners=range(5, 28)))
        raw = yaml.safe_load(EXAMPLE_CONFIG.read_text())
        raw["defense"] = {"kind": "lomar", "k": 5}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", raw)
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert result.exit_code == 3, result.output
        assert "k=5 must be in [1, 4]" in result.output

    def test_all_finite_round_is_passed_without_a_copy(self, monkeypatch):
        built, seen = [], []

        class RecordingRound(Round):
            def __post_init__(self):
                super().__post_init__()
                built.append(self)

        rule = harness.DEFENSES["krum"]
        monkeypatch.setattr(harness, "Round", RecordingRound)
        monkeypatch.setitem(harness.DEFENSES, "krum", lambda state, rnd: rule(state, seen.append(rnd) or rnd))
        run_experiment(example_with("krum", rounds=1))
        assert len(built) == len(seen) == 1
        assert seen[0] is built[0]

    def test_no_finite_client_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "local_train", non_finite_local_train(math.nan, owners=range(28)))
        cfg_path = write_yaml(tmp_path / "cfg.yaml", yaml.safe_load(EXAMPLE_CONFIG.read_text()))
        result = CliRunner().invoke(cli.main, ["run", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert result.exit_code == 3
        assert "no client submitted a finite update" in result.output
