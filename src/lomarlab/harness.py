"""Experiment harness: config schema, the round loop, and deterministic outputs.

A run is fully determined by (config, seed): every random draw comes from a
numpy SeedSequence keyed on the master seed plus a purpose tag (dataset,
partition, attack, or per-round per-client training), so client order and
evaluation order never matter. Outputs are written with repr() float
formatting, POSIX newlines, and sorted keys; no timestamps. Two runs of the
same config and seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .attacks import AttackConfig, boost_update, build_malicious_shards
from .baselines import (FG_KRUM_ORDERS, AggregationResult, coordinate_median, fedavg, fg_krum,
                        foolsgold, krum, weighted_aggregate)
from .data import DataShard, PartitionPlan, check_synth, load_idx, partition, synth_gaussian
from .lomar import KdeConfig, lomar_run
from .metrics import RoundRecord, confusion_counts, eval_accuracy, roc_from_scores
from .models import ROLE_CLEAN, ROLE_MALICIOUS, ModelSpec, Round, local_train
from .params import ParamVector

# SeedSequence purpose tags; client order never feeds a stream.
TAG_DATA = 0
TAG_PARTITION = 1
TAG_ATTACK = 2
TAG_TRAIN = 3

DATASET_KINDS = ("synth", "mnist")
# Sweep parameter -> (config section, field).
SWEEP_PARAMS = {"tau": ("attack", "tau"), "lambda": ("partition", "lam"), "epsilon": ("defense", "epsilon")}

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


@dataclass(frozen=True)
class ModelSection:
    kind: str = "logistic"
    hidden_dim: int | None = None
    learning_rate: float = 0.05
    local_epochs: int = 5
    batch_size: int = 20
    input_dim: int | None = None
    num_labels: int | None = None

    def to_spec(self, input_dim: int, num_labels: int) -> ModelSpec:
        if self.input_dim is not None and self.input_dim != input_dim:
            raise ConfigError(f"model input_dim {self.input_dim} != dataset input dim {input_dim}")
        if self.num_labels is not None and self.num_labels != num_labels:
            raise ConfigError(f"model num_labels {self.num_labels} != dataset label count {num_labels}")
        try:
            return ModelSpec(kind=self.kind, input_dim=input_dim, num_labels=num_labels,
                             hidden_dim=self.hidden_dim, learning_rate=self.learning_rate,
                             local_epochs=self.local_epochs, batch_size=self.batch_size)
        except ValueError as exc:
            raise ConfigError(f"bad section 'model': {exc}") from exc


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
    agg = weighted_aggregate(state.joint, rnd, result.kept, renormalize=state.cfg.renormalize_weights)
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
class PartitionSection:
    samples_per_client: int = 600
    lam: float = 0.0
    allow_replacement: bool = True


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
    model: ModelSection = ModelSection()
    partition: PartitionSection = PartitionSection()
    attack: AttackConfig = AttackConfig()
    defense: DefenseConfig = DefenseConfig()
    eval: EvalSection = EvalSection()
    rounds: int = 200
    seed: int = 0
    renormalize_weights: bool = False
    output_dir: str | None = None

    def __post_init__(self):
        if self.num_clean < 2:
            raise ConfigError("need num_clean >= 2")
        if self.rounds < 1:
            raise ConfigError("need rounds >= 1")
        self.attack.check_budget(self.num_clean)
        assumed = _assumed_malicious(self)
        if assumed < 0:
            raise ConfigError("assumed_malicious must be >= 0")
        # Krum scores each client over its n - assumed - 2 nearest peers;
        # fg_first instead clamps assumed to the FoolsGold survivors.
        d = self.defense
        if d.kind == "krum" or (d.kind == "fg_krum" and d.fg_krum_order == "krum_first"):
            clients = self.num_clean + self.attack.malicious_count
            if clients - assumed - 2 < 1:
                raise ConfigError(f"krum needs clients - assumed_malicious - 2 >= 1, "
                                  f"got {clients} clients and assumed_malicious {assumed}")
        self.partition_plan()
        # An IDX dataset's dims are known only once its files are read.
        if self.dataset.kind == "synth":
            self.model.to_spec(self.dataset.input_dim, self.dataset.num_labels)

    def partition_plan(self) -> PartitionPlan:
        return PartitionPlan(num_clients=self.num_clean, **asdict(self.partition))

    def eval_labels(self) -> tuple[int | None, int | None]:
        """Evaluation labels: the attack's victim class and its impersonated class.

        The flip rewrites source-label samples to the target label, so the
        class whose accuracy the attack suppresses is the flip source; we
        report that as target-label accuracy unless overridden.
        """
        if self.eval.target_label is not None:
            return self.eval.target_label, self.eval.source_label
        if self.attack.kind != "none" and self.attack.flip_pairs:
            src, tgt = self.attack.flip_pairs[0]
            return src, tgt
        return None, None


def _build_section(cls, raw: dict, section: str, aliases: dict[str, str] | None = None):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {section!r} must be a mapping")
    aliases = aliases or {}
    known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
    kwargs = {}
    for key, value in raw.items():
        name = aliases.get(key, key)
        if name not in known:
            raise ConfigError(f"unknown key {key!r} in section {section!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad section {section!r}: {exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    known_top = {"num_clean", "rounds", "seed", "renormalize_weights", "output_dir",
                 "dataset", "model", "partition", "attack", "defense", "eval"}
    unknown = set(raw) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    if "num_clean" not in raw:
        raise ConfigError("config needs num_clean")

    attack_raw = dict(raw.get("attack") or {})
    if "flip_pairs" in attack_raw:
        pairs = attack_raw["flip_pairs"]
        if not isinstance(pairs, (list, tuple)):
            raise ConfigError("flip_pairs must be a list of [source, target] pairs")
        attack_raw["flip_pairs"] = tuple((int(s), int(t)) for s, t in pairs)

    try:
        return ExperimentConfig(
            num_clean=int(raw["num_clean"]),
            rounds=int(raw.get("rounds", 200)),
            seed=int(raw.get("seed", 0)),
            renormalize_weights=bool(raw.get("renormalize_weights", False)),
            output_dir=raw.get("output_dir"),
            dataset=_build_section(DatasetConfig, raw.get("dataset"), "dataset"),
            model=_build_section(ModelSection, raw.get("model"), "model"),
            partition=_build_section(PartitionSection, raw.get("partition"), "partition",
                                     aliases={"lambda": "lam"}),
            attack=_build_section(AttackConfig, attack_raw, "attack"),
            defense=_build_section(DefenseConfig, raw.get("defense"), "defense"),
            eval=_build_section(EvalSection, raw.get("eval"), "eval"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparseable config {path}: {exc}") from exc
    return config_from_dict(raw or {})


def resolved_config_dict(cfg: ExperimentConfig, model: ModelSpec) -> dict:
    out = {
        "num_clean": cfg.num_clean,
        "rounds": cfg.rounds,
        "seed": cfg.seed,
        "renormalize_weights": cfg.renormalize_weights,
        "dataset": asdict(cfg.dataset),
        "model": asdict(model),
        "partition": asdict(cfg.partition),
        "attack": {**asdict(cfg.attack), "flip_pairs": [list(p) for p in cfg.attack.flip_pairs]},
        "defense": asdict(cfg.defense),
        "eval": {"target_label": cfg.eval_labels()[0], "source_label": cfg.eval_labels()[1]},
    }
    return out


@dataclass
class ExperimentState:
    cfg: ExperimentConfig
    model: ModelSpec
    shards: list[DataShard]
    malicious: np.ndarray  # (n,) bool in shard order
    test_features: np.ndarray
    test_labels: np.ndarray
    eval_target: int | None
    eval_source: int | None
    joint: ParamVector
    round_index: int = 0
    # The last round's defense output over every shard; None before round 1,
    # and last_scores stays None for a defense that scores no one.
    last_scores: np.ndarray | None = None
    last_kept: np.ndarray | None = None
    floor_hits_total: int = 0
    replacement_used: bool = False


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
        test_count = max(1, int(math.ceil(ds.per_label_count * ds.test_fraction)))
        test_x, test_y = synth_gaussian(ds.num_labels, ds.input_dim, test_count,
                                        ds.spread, np.random.SeedSequence([cfg.seed, TAG_DATA, 1]),
                                        radius=ds.radius)
    else:
        (train_x, train_y), (test_x, test_y) = _load_mnist_dir(ds.dir)
    input_dim = train_x.shape[1]
    num_labels = int(max(train_y.max(), test_y.max())) + 1
    model = cfg.model.to_spec(input_dim, num_labels)

    labels = [cfg.eval.target_label, cfg.eval.source_label]
    if cfg.attack.kind != "none":
        labels += [label for pair in cfg.attack.flip_pairs for label in pair]
    outside = sorted({label for label in labels if label is not None and not 0 <= label < num_labels})
    if outside:
        raise ConfigError(f"labels {outside} outside the dataset's {num_labels} labels")
    shards = partition(train_x, train_y, cfg.partition_plan(),
                       np.random.SeedSequence([cfg.seed, TAG_PARTITION]))
    shards += build_malicious_shards(cfg.attack, train_x, train_y,
                                     cfg.partition.samples_per_client,
                                     np.random.SeedSequence([cfg.seed, TAG_ATTACK]),
                                     first_owner=cfg.num_clean)

    eval_target, eval_source = cfg.eval_labels()
    return ExperimentState(
        cfg=cfg,
        model=model,
        shards=shards,
        malicious=np.array([s.role == ROLE_MALICIOUS for s in shards]),
        test_features=test_x,
        test_labels=test_y,
        eval_target=eval_target,
        eval_source=eval_source,
        joint=model.init_params(),
        replacement_used=any(s.used_replacement for s in shards),
    )


def run_round(state: ExperimentState) -> tuple[ExperimentState, RoundRecord]:
    """Train every client from the current joint, defend, aggregate, evaluate.

    A delta holding a NaN or inf counts as not submitted: the defense never
    sees it, and where the defense scores clients its owner scores -inf.
    """
    cfg = state.cfg
    t = state.round_index + 1
    deltas = np.empty((len(state.shards), state.joint.values.size))
    for row, shard in zip(deltas, state.shards):
        seed = np.random.SeedSequence([cfg.seed, TAG_TRAIN, t, shard.owner])
        row[:] = local_train(state.joint, shard, state.model, seed)
        if cfg.attack.kind == "model_poison" and shard.role == ROLE_MALICIOUS:
            row[:] = boost_update(row, cfg.attack.boost_factor)
    rnd = Round([s.owner for s in state.shards], [len(s) for s in state.shards], deltas, state.joint.layout)

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
                                           state.model, state.eval_target, state.eval_source)
    n_t, n_f, m_t, m_f = confusion_counts(state.last_kept, state.malicious)
    record = RoundRecord(
        round_index=t,
        overall_acc=overall,
        target_acc=target,
        other_acc=other,
        n_t=n_t, n_f=n_f, m_t=m_t, m_f=m_f,
        num_kept=n_t + n_f,
        epsilon_used=agg.epsilon_used,
        h_used=agg.h_used,
    )
    return state, record


@dataclass
class RunOutput:
    records: list[RoundRecord]
    summary: dict
    scores: np.ndarray | None
    auc: float | None
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


def _write_roc_csv(path: Path, points):
    _write_csv(path, ["threshold", "sensitivity", "one_minus_specificity"],
               ([p.threshold, p.sensitivity, p.one_minus_specificity] for p in points))


def run_experiment(cfg: ExperimentConfig, out_dir=None, seed: int | None = None) -> RunOutput:
    """Run all rounds; write rounds.csv, summary.json, scores.csv, roc_points.csv.

    out_dir=None skips file output. seed overrides cfg.seed.
    """
    state = initialize_state(cfg, seed=seed)
    cfg = state.cfg
    records = []
    for _ in range(cfg.rounds):
        state, record = run_round(state)
        records.append(record)

    num_clean = cfg.num_clean
    num_malicious = cfg.attack.malicious_count
    mean = lambda xs: float(np.mean(xs)) if xs else None
    rates = {
        "clean_kept_rate": mean([r.n_t / num_clean for r in records]),
        "clean_dropped_rate": mean([r.m_f / num_clean for r in records]),
        "malicious_kept_rate": mean([r.n_f / num_malicious for r in records]) if num_malicious else None,
        "malicious_dropped_rate": mean([r.m_t / num_malicious for r in records]) if num_malicious else None,
    }

    auc = None
    points = None
    if state.last_scores is not None and num_malicious > 0:
        points, auc = roc_from_scores(state.last_scores, state.malicious)

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
        "final_epsilon": final.epsilon_used,
        "final_h": final.h_used,
        "floor_hits_total": state.floor_hits_total,
        "replacement_used": state.replacement_used,
    }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "rounds.csv",
                   ["round", "overall_acc", "target_acc", "other_acc",
                    "n_t", "n_f", "m_t", "m_f", "num_kept", "epsilon", "h"],
                   ([r.round_index, r.overall_acc, r.target_acc, r.other_acc,
                     r.n_t, r.n_f, r.m_t, r.m_f, r.num_kept, r.epsilon_used, r.h_used]
                    for r in records))
        with open(out / "summary.json", "w", encoding="utf-8", newline="") as fh:
            json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "config_resolved.yaml", "w", encoding="utf-8", newline="") as fh:
            yaml.safe_dump(resolved_config_dict(cfg, state.model), fh, sort_keys=True)
        if state.last_scores is not None:
            _write_csv(out / "scores.csv", ["client_id", "role", "score", "kept"],
                       ([s.owner, s.role, score, int(kept)] for s, score, kept
                        in zip(state.shards, state.last_scores.tolist(), state.last_kept)))
        if points is not None:
            _write_roc_csv(out / "roc_points.csv", points)

    return RunOutput(records=records, summary=summary, scores=state.last_scores, auc=auc, state=state)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def read_scores_csv(path):
    """Load a scores.csv back into aligned (scores, malicious) arrays in file order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"role", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(required)}")
        rows = [(float(row["score"]), row["role"]) for row in reader]
    if not rows:
        raise ValueError(f"{path}: no score rows")
    unknown = sorted({role for _, role in rows} - {ROLE_CLEAN, ROLE_MALICIOUS})
    if unknown:
        raise ValueError(f"{path}: unknown roles {unknown}")
    return np.array([score for score, _ in rows]), np.array([role == ROLE_MALICIOUS for _, role in rows])


def sweep_values(grid: str) -> list[float]:
    try:
        values = [float(v) for v in grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad grid {grid!r}: {exc}") from exc
    if not values:
        raise ConfigError("empty sweep grid")
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
    # Every grid value is checked before the first run starts.
    configs = [(value, apply_sweep_value(cfg, param, value)) for value in sweep_values(grid)]
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, value_cfg in configs:
        sub = out_root / f"{param}_{value!r}"
        output = run_experiment(value_cfg, out_dir=sub, seed=seed)
        final = output.records[-1]
        combined = (final.overall_acc + final.target_acc) / 2.0 if not math.isnan(final.target_acc) else final.overall_acc
        rows.append({
            "param": param,
            "value": value,
            "dir": sub.name,
            "final_overall_acc": final.overall_acc,
            "final_target_acc": final.target_acc,
            "combined_acc": combined,
            "auc": output.auc,
        })
    header = ["param", "value", "dir", "final_overall_acc", "final_target_acc", "combined_acc", "auc"]
    _write_csv(out_root / "sweep_summary.csv", header, ([row[k] for k in header] for row in rows))
    return rows
