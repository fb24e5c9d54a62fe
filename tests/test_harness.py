"""Experiment harness tests: config parsing, runs, outputs, sweeps, CLI."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest
import yaml

from lomarlab import harness
from lomarlab.harness import (
    ConfigError,
    apply_sweep_value,
    config_from_dict,
    initialize_state,
    load_config,
    read_scores_csv,
    run_experiment,
    run_sweep,
    sweep_values,
)


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
        assert cfg.renormalize_weights is False

    def test_missing_num_clean(self):
        with pytest.raises(ConfigError):
            config_from_dict({"rounds": 3})

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict(base_dict(bogus=1))

    def test_unknown_section_key(self):
        raw = base_dict()
        raw["dataset"]["bogus"] = 1
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict(raw)

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            config_from_dict(base_dict(dataset=[1, 2]))

    def test_lambda_alias(self):
        cfg = config_from_dict(base_dict(partition={"samples_per_client": 30,
                                                    "lambda": 0.7}))
        assert cfg.partition.lam == 0.7
        cfg = config_from_dict(base_dict(partition={"samples_per_client": 30,
                                                    "lam": 0.3}))
        assert cfg.partition.lam == 0.3

    def test_flip_pairs_coerced_to_int_tuples(self):
        raw = base_dict()
        raw["attack"]["flip_pairs"] = [[0, 1], [1.0, 0.0]]
        cfg = config_from_dict(raw)
        assert cfg.attack.flip_pairs == ((0, 1), (1, 0))
        assert all(isinstance(v, int) for pair in cfg.attack.flip_pairs for v in pair)

    def test_flip_pairs_must_be_list(self):
        raw = base_dict()
        raw["attack"]["flip_pairs"] = "0,1"
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_bad_section_values(self):
        raw = base_dict()
        raw["dataset"]["kind"] = "bogus"
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        with pytest.raises(ConfigError):
            config_from_dict(base_dict(rounds=0))
        with pytest.raises(ConfigError):
            config_from_dict({"num_clean": 1})

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
        assert cfg.eval_labels() == (1, 0)

    def test_eval_labels_override(self):
        cfg = config_from_dict(base_dict(eval={"target_label": 0, "source_label": 1}))
        assert cfg.eval_labels() == (0, 1)

    def test_eval_labels_without_attack(self):
        cfg = config_from_dict({"num_clean": 4})
        assert cfg.eval_labels() == (None, None)


class TestInitializeState:
    def test_roles_and_shards(self):
        cfg = config_from_dict(base_dict())
        state = initialize_state(cfg)
        assert len(state.shards) == 8 + 3
        assert [s.owner for s in state.shards] == list(range(11))
        assert all(state.roles[i] == "clean" for i in range(8))
        assert all(state.roles[i] == "malicious" for i in range(8, 11))
        assert isinstance(state.replacement_used, bool)

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
            assert set(out.scores) == set(range(11))
            assert out.auc is not None and 0.0 <= out.auc <= 1.0
        else:
            assert out.scores is None
            assert out.auc is None
        # only the density defense has a threshold and a bandwidth to report
        assert (rec.epsilon_used is not None) == (kind == "lomar")
        assert (rec.h_used is not None) == (kind == "lomar")

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
        for name in ("rounds.csv", "summary.json", "config_resolved.yaml",
                     "scores.csv", "roc_points.csv"):
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
        for name in ("rounds.csv", "summary.json", "config_resolved.yaml",
                     "scores.csv", "roc_points.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = config_from_dict(base_dict())
        run_experiment(cfg, out_dir=tmp_path / "a")
        out_b = run_experiment(cfg, out_dir=tmp_path / "b", seed=11)
        assert out_b.summary["seed"] == 11
        a = (tmp_path / "a" / "scores.csv").read_bytes()
        b = (tmp_path / "b" / "scores.csv").read_bytes()
        assert a != b

    def test_read_scores_csv_roundtrip(self, tmp_path):
        out_dir = tmp_path / "run"
        out = run_experiment(config_from_dict(base_dict()), out_dir=out_dir)
        scores, roles = read_scores_csv(out_dir / "scores.csv")
        assert set(scores) == set(out.scores)
        for cid, value in out.scores.items():
            assert scores[cid] == value  # repr round-trips floats exactly
        assert roles == out.state.roles

    def test_read_scores_csv_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("client_id,role\n0,clean\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected columns"):
            read_scores_csv(path)

    def test_read_scores_csv_rejects_empty(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("client_id,role,score\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no score rows"):
            read_scores_csv(path)

    def test_renormalize_changes_partial_aggregate(self):
        # pick a threshold between two observed factors so the filter drops a
        # strict subset, then renormalizing must shift the joint step
        raw = base_dict(rounds=1)
        probe = run_experiment(config_from_dict(raw))
        ordered = sorted(probe.scores.values())
        distinct = [(a, b) for a, b in zip(ordered, ordered[1:]) if a < b]
        assert distinct, "degenerate probe: all factors equal"
        lo, hi = distinct[len(distinct) // 2]
        raw["defense"] = {"kind": "lomar", "epsilon": (lo + hi) / 2.0}
        plain = run_experiment(config_from_dict(raw))
        renorm = run_experiment(config_from_dict(dict(raw, renormalize_weights=True)))
        assert 1 <= plain.records[0].num_kept < 11
        assert not np.allclose(plain.state.joint.values, renorm.state.joint.values)


class TestSweep:
    def test_sweep_values_parsing(self):
        assert sweep_values("0.5, 1.0,2") == [0.5, 1.0, 2.0]
        with pytest.raises(ConfigError):
            sweep_values("0.5,zap")
        with pytest.raises(ConfigError):
            sweep_values(" , ")

    def test_apply_sweep_value(self):
        cfg = config_from_dict(base_dict())
        assert apply_sweep_value(cfg, "tau", 0.6).attack.tau == 0.6
        assert apply_sweep_value(cfg, "lambda", 0.4).partition.lam == 0.4
        assert apply_sweep_value(cfg, "epsilon", 2.0).defense.epsilon == 2.0
        with pytest.raises(ConfigError):
            apply_sweep_value(cfg, "spread", 1.0)

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

    def test_run_missing_config_exits_2(self, tmp_path):
        proc = run_cli("run", "--config", str(tmp_path / "absent.yaml"),
                       "--out", str(tmp_path / "x"))
        assert proc.returncode == 2

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

    def test_roc_recomputes_from_run(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        out_dir = tmp_path / "run"
        assert run_cli("run", "--config", str(cfg_path), "--out", str(out_dir)).returncode == 0
        (out_dir / "roc_points.csv").unlink()
        proc = run_cli("roc", "--from", str(out_dir))
        assert proc.returncode == 0, proc.stderr
        assert "auc:" in proc.stdout
        assert (out_dir / "roc_points.csv").exists()

    def test_roc_without_scores_exits_3(self, tmp_path):
        proc = run_cli("roc", "--from", str(tmp_path))
        assert proc.returncode == 3

    def test_sweep_writes_summary(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        out_root = tmp_path / "sweep"
        proc = run_cli("sweep", "--config", str(cfg_path), "--param", "epsilon",
                       "--grid", "0.5,1.5", "--out", str(out_root))
        assert proc.returncode == 0, proc.stderr
        assert (out_root / "sweep_summary.csv").exists()
        assert (out_root / "epsilon_0.5" / "summary.json").exists()

    def test_sweep_bad_param_exits_2(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cli_dict())
        proc = run_cli("sweep", "--config", str(cfg_path), "--param", "spread",
                       "--grid", "1,2", "--out", str(tmp_path / "s"))
        assert proc.returncode == 2
