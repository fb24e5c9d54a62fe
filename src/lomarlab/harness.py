"""Experiment harness: config schema, the round loop, and deterministic outputs.

A run is fully determined by (config, seed): every random draw comes from a
numpy SeedSequence keyed on the master seed plus a purpose tag (dataset,
partition, attack, or per-round per-client training), so client order and
evaluation order never matter. Outputs are written with repr() float
formatting, POSIX newlines, and sorted keys; no timestamps. Two runs of the
same config and seed produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import types
import typing
from dataclasses import MISSING, asdict, astuple, dataclass, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .attacks import AttackConfig, boost_update, build_malicious_shards
from .baselines import (FG_KRUM_ORDERS, AggregationResult, coordinate_median, fedavg, fg_krum,
                        foolsgold, krum, krum_window, weighted_aggregate)
from .data import (ROLE_MALICIOUS, DataShard, PartitionPlan, check_synth, load_idx, major_count, partition,
                   synth_gaussian)
from .lomar import KdeConfig, lomar_run
from .metrics import RocPoint, RoundRecord, confusion_counts, eval_accuracy, roc_from_scores
from .models import ModelSpec, ParamVector, Round, local_train

# SeedSequence purpose tags; client order never feeds a stream.
TAG_DATA = 0
TAG_PARTITION = 1
TAG_ATTACK = 2
TAG_TRAIN = 3

DATASET_KINDS = ("synth", "mnist")
# Sweep parameter -> (config section, field).
SWEEP_PARAMS = {"tau": ("attack", "tau"), "lambda": ("partition", "lam"), "epsilon": ("defense", "epsilon")}
# Config section -> {YAML key: field} for keys that are not the field's name.
SECTION_ALIASES = {"partition": {"lambda": "lam"}}

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetConfig:
    kind: str = "synth"
    # synth knobs
    num_labels: int = 2
    input_dim: int = 8
    per_label_count: int = 1000
    spread: float = 1.0
    radius: float = 3.0
    test_fraction: float = 0.2
    # mnist knob
    dir: str | None = None

    def __post_init__(self):
        if self.kind not in DATASET_KINDS:
            raise ConfigError(f"unknown dataset kind {self.kind!r}")
        if self.kind == "mnist" and not self.dir:
            raise ConfigError("dataset kind 'mnist' needs dir")
        if self.kind == "synth":
            check_synth(self.num_labels, self.input_dim, self.per_label_count, self.spread)
            if not 0.0 < self.test_fraction < 1.0:
                raise ConfigError("test_fraction must be in (0, 1)")


def _assumed_malicious(cfg: ExperimentConfig) -> int:
    assumed = cfg.defense.assumed_malicious
    return cfg.attack.malicious_count if assumed is None else assumed


def _krum_assumed(state: ExperimentState, rnd: Round) -> int:
    # The non-finite guard can hand Krum fewer rows than the config was checked
    # for. n - 3 leaves a window of one peer; under 3 rows Krum's check fails.
    return max(0, min(_assumed_malicious(state.cfg), len(rnd.ids) - 3))


def _lomar_defense(state: ExperimentState, rnd: Round) -> AggregationResult:
    result = lomar_run(rnd, state.cfg.defense)
    state.floor_hits_total += result.floor_hits
    agg = weighted_aggregate(state.joint, rnd, result.kept)
    return replace(agg, scores=result.log_factors, epsilon_used=result.epsilon_used, h_used=result.h_used)


# Defense kind -> (state, round) -> AggregationResult. Each entry looks its
# rule up in this module's globals at call time, so a wrapper installed on
# harness (a tracer, a test double) sees every call.
DEFENSES = {
    "none": lambda state, rnd: fedavg(state.joint, rnd),
    "lomar": _lomar_defense,
    "krum": lambda state, rnd: krum(state.joint, rnd, _krum_assumed(state, rnd)),
    "median": lambda state, rnd: coordinate_median(state.joint, rnd),
    "foolsgold": lambda state, rnd: foolsgold(state.joint, rnd),
    "fg_krum": lambda state, rnd: fg_krum(state.joint, rnd, _krum_assumed(state, rnd),
                                          order=state.cfg.defense.fg_krum_order),
}


@dataclass(frozen=True)
class DefenseConfig(KdeConfig):
    """LoMar's knobs (KdeConfig) plus the defense kind and the Krum settings."""

    kind: str = "lomar"
    assumed_malicious: int | None = None
    fg_krum_order: str = "krum_first"

    def __post_init__(self):
        if self.kind not in DEFENSES:
            raise ConfigError(f"unknown defense kind {self.kind!r}")
        if self.fg_krum_order not in FG_KRUM_ORDERS:
            raise ConfigError(f"unknown fg_krum_order {self.fg_krum_order!r}")
        super().__post_init__()


@dataclass(frozen=True)
class EvalSection:
    target_label: int | None = None
    source_label: int | None = None

    def __post_init__(self):
        if self.source_label is not None and self.target_label is None:
            raise ConfigError("eval.source_label needs eval.target_label")


@dataclass(frozen=True)
class ExperimentConfig:
    num_clean: int
    dataset: DatasetConfig = DatasetConfig()
    model: ModelSpec = ModelSpec()
    partition: PartitionPlan = PartitionPlan()
    attack: AttackConfig = AttackConfig()
    defense: DefenseConfig = DefenseConfig()
    eval: EvalSection = EvalSection()
    rounds: int = 200
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        if self.num_clean < 2:
            raise ConfigError("need num_clean >= 2")
        if self.rounds < 1:
            raise ConfigError("need rounds >= 1")
        if self.seed < 0:
            raise ConfigError("need seed >= 0")
        self.attack.check_budget(self.num_clean)
        assumed = _assumed_malicious(self)
        if assumed < 0:
            raise ConfigError("assumed_malicious must be >= 0")
        # fg_first clamps assumed to the FoolsGold survivors instead.
        d, population = self.defense, self.num_clean + self.attack.malicious_count
        if d.kind == "krum" or (d.kind == "fg_krum" and d.fg_krum_order == "krum_first"):
            krum_window(population, assumed)
        if d.kind == "lomar" and d.k is not None and d.k > population - 1:
            raise ConfigError(f"lomar needs k <= population - 1, got k={d.k}, population={population}")
        # An IDX dataset's dims are known only once its files are read.
        if self.dataset.kind == "synth":
            self.fit(self.dataset.input_dim, self.dataset.num_labels)

    def fit(self, input_dim: int, num_labels: int) -> ExperimentConfig:
        """The run's config at the data's dims: the model fitted and, unless
        eval.target_label is set, an active attack's first flip pair as the eval
        labels (the flip suppresses its source label's accuracy). A ConfigError
        if an eval or flip label lies outside [0, num_labels) or the model sets
        a dim the data lacks."""
        labels = [self.eval.target_label, self.eval.source_label]
        if self.attack.kind != "none":
            labels += [label for pair in self.attack.flip_pairs for label in pair]
        outside = sorted({label for label in labels if label is not None and not 0 <= label < num_labels})
        if outside:
            raise ConfigError(f"labels {outside} outside the dataset's {num_labels} labels")
        try:
            model = self.model.fit(input_dim, num_labels)
        except ValueError as exc:
            raise ConfigError(f"section 'model': {exc}") from exc
        flipped = self.eval.target_label is None and self.attack.kind != "none"
        evaluation = EvalSection(*self.attack.flip_pairs[0]) if flipped else self.eval
        # A fitted config fits to itself, which ends __post_init__'s call to fit.
        if (model, evaluation) == (self.model, self.eval):
            return self
        return replace(self, model=model, eval=evaluation)


def _typed(hint, value, what: str):
    """value checked against the type `hint`, else a ConfigError naming `what`.
    An int passes for a float, a float only if finite, a bool only for a bool,
    and a list for a declared tuple, checked item by item and returned as a tuple."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        for member in args:
            with contextlib.suppress(ConfigError):
                return _typed(member, value, what)
    elif typing.get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            items = args[:1] * len(value) if args[1:] == (...,) else args
            if len(items) == len(value):
                return tuple(_typed(item, v, what) for item, v in zip(items, value))
    elif (isinstance(value, (int, float) if hint is float else hint)
          and (hint is bool or not isinstance(value, bool))
          and (not isinstance(value, float) or math.isfinite(value))):
        return value
    raise ConfigError(f"{what} must be {hint.__name__ if isinstance(hint, type) else hint}, got {value!r}")


def _build(cls, raw, section: str | None = None):
    """cls from a YAML mapping, the config root being section None. A field
    whose default is a dataclass is a section, built from its own mapping."""
    where = "top level" if section is None else f"section {section!r}"
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be a mapping")
    aliases = SECTION_ALIASES.get(section, {})
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in raw.items():
        name = aliases.get(key, key)
        if name not in hints:
            raise ConfigError(f"unknown key {key!r} in {where}")
        if name in kwargs:
            first = next(k for k in raw if aliases.get(k, k) == name)
            raise ConfigError(f"keys {first!r} and {key!r} in {where} both set {name}")
        kwargs[name] = value
    for f in fields(cls):
        if is_dataclass(f.default):
            kwargs[f.name] = _build(hints[f.name], kwargs.get(f.name), f.name)
        elif f.name in kwargs:
            kwargs[f.name] = _typed(hints[f.name], kwargs[f.name], f"{where}: {f.name}")
        elif f.default is MISSING:
            raise ConfigError(f"{where} needs {f.name}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, raw)


def load_config(path) -> ExperimentConfig:
    """The config in a YAML file; a ConfigError if it is missing, unreadable, undecodable or malformed."""
    try:
        with open(path, "rb") as fh:  # PyYAML's reader then reports undecodable bytes as a YAMLError
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"unreadable config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparseable config {path}: {exc}") from exc
    return config_from_dict(raw)


@dataclass
class ExperimentState:
    cfg: ExperimentConfig  # fitted to the data
    train_features: np.ndarray  # the float32 pool every shard's rows index
    shards: list[DataShard]
    malicious: np.ndarray  # (n,) bool in shard order
    test_features: np.ndarray
    test_labels: np.ndarray
    joint: ParamVector
    round_index: int = 0
    # The last round's defense output over every shard; None before round 1,
    # and last_scores stays None for a defense that scores no one.
    last_scores: np.ndarray | None = None
    last_kept: np.ndarray | None = None
    floor_hits_total: int = 0

    @property
    def model(self) -> ModelSpec:
        # perfbench/run.py reads state.model outside its try, so the name stays.
        return self.cfg.model


def _load_mnist_dir(directory: str):
    base = Path(directory)
    paths = {key: base / name for key, name in MNIST_FILES.items()}
    missing = [str(p) for p in paths.values() if not p.exists()]
    if missing:
        raise FileNotFoundError("missing IDX files: " + ", ".join(missing))
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    return train, test


def initialize_state(cfg: ExperimentConfig, seed: int | None = None) -> ExperimentState:
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    ds = cfg.dataset
    if ds.kind == "synth":
        train_x, train_y = synth_gaussian(ds.num_labels, ds.input_dim, ds.per_label_count,
                                          ds.spread, np.random.SeedSequence([cfg.seed, TAG_DATA, 0]),
                                          radius=ds.radius)
        test_count = max(1, major_count(ds.test_fraction, ds.per_label_count))
        test_x, test_y = synth_gaussian(ds.num_labels, ds.input_dim, test_count,
                                        ds.spread, np.random.SeedSequence([cfg.seed, TAG_DATA, 1]),
                                        radius=ds.radius)
    else:
        (train_x, train_y), (test_x, test_y) = _load_mnist_dir(ds.dir)
    cfg = cfg.fit(train_x.shape[1], int(max(train_y.max(), test_y.max())) + 1)
    shards = partition(train_y, cfg.num_clean, cfg.partition, np.random.SeedSequence([cfg.seed, TAG_PARTITION]))
    shards += build_malicious_shards(cfg.attack, train_y, cfg.partition.samples_per_client,
                                     np.random.SeedSequence([cfg.seed, TAG_ATTACK]), first_owner=cfg.num_clean)

    return ExperimentState(
        cfg=cfg,
        train_features=train_x,
        shards=shards,
        malicious=np.array([s.role == ROLE_MALICIOUS for s in shards]),
        test_features=test_x,
        test_labels=test_y,
        joint=cfg.model.init_params(),
    )


def run_round(state: ExperimentState) -> RoundRecord:
    """Advance state one round in place: train every client, defend, aggregate, evaluate.

    A delta holding a NaN or inf counts as not submitted: the defense never
    sees it, and where the defense scores clients its owner scores -inf.
    """
    cfg = state.cfg
    t = state.round_index + 1
    # entropy lists: default_rng builds the same SeedSequence from one, and a client that never shuffles builds none
    seeds = [[cfg.seed, TAG_TRAIN, t, shard.owner] for shard in state.shards]
    deltas = local_train(state.joint, state.train_features, state.shards, cfg.model, seeds)
    for row, shard in zip(deltas, state.shards):
        if cfg.attack.kind == "model_poison" and shard.role == ROLE_MALICIOUS:
            row[:] = boost_update(row, cfg.attack.boost_factor)
    rnd = Round([s.owner for s in state.shards], deltas, state.joint.layout)

    finite = np.isfinite(deltas).all(axis=1)
    if not finite.any():
        raise ValueError(f"round {t}: no client submitted a finite update")
    agg = DEFENSES[cfg.defense.kind](state, rnd if finite.all() else rnd.select(np.flatnonzero(finite)))
    state.joint = agg.new_joint
    state.round_index = t
    state.last_kept = np.zeros(len(finite), dtype=bool)
    state.last_kept[finite] = agg.kept
    state.last_scores = None
    if agg.scores is not None:
        state.last_scores = np.full(len(finite), -math.inf)
        state.last_scores[finite] = agg.scores

    overall, target, other = eval_accuracy(state.joint, state.test_features, state.test_labels,
                                           cfg.model, cfg.eval.target_label, cfg.eval.source_label)
    n_t, n_f, m_t, m_f = confusion_counts(state.last_kept, state.malicious)
    return RoundRecord(
        round=t,
        overall_acc=overall,
        target_acc=target,
        other_acc=other,
        n_t=n_t, n_f=n_f, m_t=m_t, m_f=m_f,
        num_kept=n_t + n_f,
        epsilon=agg.epsilon_used,
        h=agg.h_used,
    )


@dataclass
class RunOutput:
    records: list[RoundRecord]
    summary: dict
    state: ExperimentState


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt_cell(v) for v in row] for row in rows)


def run_experiment(cfg: ExperimentConfig, out_dir=None, seed: int | None = None) -> RunOutput:
    """Run all rounds; write rounds.csv, summary.json, scores.csv, roc_points.csv.

    out_dir=None skips file output. seed overrides cfg.seed.
    """
    state = initialize_state(cfg, seed=seed)
    cfg = state.cfg
    records = [run_round(state) for _ in range(cfg.rounds)]

    num_clean, num_malicious = cfg.num_clean, cfg.attack.malicious_count
    clean_slots, malicious_slots = cfg.rounds * num_clean, cfg.rounds * num_malicious
    rates = {
        "clean_kept_rate": sum(r.n_t for r in records) / clean_slots,
        "clean_dropped_rate": sum(r.m_f for r in records) / clean_slots,
        "malicious_kept_rate": sum(r.n_f for r in records) / malicious_slots if num_malicious else None,
        "malicious_dropped_rate": sum(r.m_t for r in records) / malicious_slots if num_malicious else None,
    }

    scored = state.last_scores is not None and num_malicious > 0
    points, auc = roc_from_scores(state.last_scores, state.malicious) if scored else (None, None)

    final = records[-1]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "defense": cfg.defense.kind,
        "attack": cfg.attack.kind,
        "num_clean": num_clean,
        "num_malicious": num_malicious,
        "final": {
            "overall_acc": final.overall_acc,
            "target_acc": final.target_acc,
            "other_acc": final.other_acc,
        },
        "mean_rates": rates,
        "auc": auc,
        "final_epsilon": final.epsilon,
        "final_h": final.h,
        "floor_hits_total": state.floor_hits_total,
        "replacement_used": any(s.used_replacement for s in state.shards),
    }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "rounds.csv", [f.name for f in fields(RoundRecord)], map(astuple, records))
        with open(out / "summary.json", "w", encoding="utf-8", newline="") as fh:
            json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "config_resolved.yaml", "w", encoding="utf-8", newline="") as fh:
            yaml.safe_dump({k: v for k, v in asdict(cfg).items() if k != "output_dir"}, fh, sort_keys=True)
        for name in ("scores.csv", "roc_points.csv"):  # an earlier run's, if this run writes none
            (out / name).unlink(missing_ok=True)
        if state.last_scores is not None:
            _write_csv(out / "scores.csv", ["client_id", "role", "score", "kept"],
                       ([s.owner, s.role, score, int(kept)] for s, score, kept
                        in zip(state.shards, state.last_scores.tolist(), state.last_kept)))
        if points is not None:
            _write_csv(out / "roc_points.csv", [f.name for f in fields(RocPoint)], map(astuple, points))

    return RunOutput(records=records, summary=summary, state=state)


def _jsonable(obj):
    """The summary, which holds only dicts and Python scalars, with NaN as null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def sweep_values(grid: str) -> list[float]:
    try:
        values = [float(v) for v in grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad grid {grid!r}: {exc}") from exc
    if not values:
        raise ConfigError("empty sweep grid")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"bad grid {grid!r}: values must be finite")
    if len(set(values)) < len(values):
        raise ConfigError(f"bad grid {grid!r}: a value repeats, and each value has one output directory")
    return values


def apply_sweep_value(cfg: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    """cfg with one swept knob set to value; an out-of-range value is a ConfigError."""
    if param not in SWEEP_PARAMS:
        raise ConfigError(f"unknown sweep param {param!r} (choose from {tuple(SWEEP_PARAMS)})")
    section, name = SWEEP_PARAMS[param]
    try:
        return replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})
    except ValueError as exc:
        raise ConfigError(f"bad {param} value {value!r}: {exc}") from exc


def run_sweep(cfg: ExperimentConfig, param: str, grid: str, out_root, seed: int | None = None):
    """One run per grid value; returns rows of (value, dir, final accs, auc)."""
    # The seed and every grid value are checked before the output root is made.
    cfg = cfg if seed is None else replace(cfg, seed=seed)
    configs = [(value, apply_sweep_value(cfg, param, value)) for value in sweep_values(grid)]
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, value_cfg in configs:
        sub = out_root / f"{param}_{value!r}"
        output = run_experiment(value_cfg, out_dir=sub)
        final = output.records[-1]
        combined = (final.overall_acc + final.target_acc) / 2.0 if not math.isnan(final.target_acc) else final.overall_acc
        rows.append({
            "param": param,
            "value": value,
            "dir": sub.name,
            "final_overall_acc": final.overall_acc,
            "final_target_acc": final.target_acc,
            "combined_acc": combined,
            "auc": output.summary["auc"],
        })
    _write_csv(out_root / "sweep_summary.csv", list(rows[0]), (row.values() for row in rows))
    return rows
