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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from .attacks import AttackConfig, boost_update, build_malicious_shards
from .baselines import (FG_KRUM_ORDERS, AggregationResult, coordinate_median, fedavg, fg_krum,
                        foolsgold, krum, weighted_aggregate)
from .data import DataShard, PartitionPlan, load_idx, partition, synth_gaussian
from .lomar import KERNELS, NEIGHBOR_DENSITY_MODES, KdeConfig, lomar_run
from .metrics import RoundRecord, confusion_counts, eval_accuracy, roc_from_scores
from .models import ROLE_MALICIOUS, ClientUpdate, ModelSpec, local_train
from .params import ParamVector

# SeedSequence purpose tags; client order never feeds a stream.
TAG_DATA = 0
TAG_PARTITION = 1
TAG_ATTACK = 2
TAG_TRAIN = 3

DATASET_KINDS = ("synth", "mnist")
SWEEP_PARAMS = ("tau", "lambda", "epsilon")

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}

SCHEMA_VERSION = 1


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
        if self.kind == "synth" and not 0.0 < self.test_fraction < 1.0:
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
        return ModelSpec(kind=self.kind, input_dim=input_dim, num_labels=num_labels,
                         hidden_dim=self.hidden_dim, learning_rate=self.learning_rate,
                         local_epochs=self.local_epochs, batch_size=self.batch_size)


def _assumed_malicious(cfg: ExperimentConfig) -> int:
    assumed = cfg.defense.assumed_malicious
    return cfg.attack.malicious_count if assumed is None else assumed


def _lomar_defense(state: ExperimentState, updates: list[ClientUpdate]) -> AggregationResult:
    result = lomar_run(updates, state.cfg.defense.to_kde())
    state.floor_hits_total += result.floor_hits
    agg = weighted_aggregate(state.joint, updates, result.kept_ids(),
                             renormalize=state.cfg.renormalize_weights)
    return replace(agg, scores=result.factors_by_id(), epsilon_used=result.epsilon_used,
                   h_used=result.h_used)


# Defense kind -> (state, updates) -> AggregationResult. Each entry looks its
# rule up in this module's globals at call time, so a wrapper installed on
# harness (a tracer, a test double) sees every call.
DEFENSES = {
    "none": lambda state, updates: fedavg(state.joint, updates),
    "lomar": _lomar_defense,
    "krum": lambda state, updates: krum(state.joint, updates, _assumed_malicious(state.cfg)),
    "median": lambda state, updates: coordinate_median(state.joint, updates),
    "foolsgold": lambda state, updates: foolsgold(state.joint, updates),
    "fg_krum": lambda state, updates: fg_krum(state.joint, updates, _assumed_malicious(state.cfg),
                                              order=state.cfg.defense.fg_krum_order),
}


@dataclass(frozen=True)
class DefenseConfig:
    kind: str = "lomar"
    epsilon: float = 1.0
    k: int | None = None
    bandwidth: float | None = None
    kernel: str = "exp"
    neighbor_density_mode: str = "own_neighborhood"
    density_floor: float = 1e-300
    assumed_malicious: int | None = None
    fg_krum_order: str = "krum_first"

    def __post_init__(self):
        if self.kind not in DEFENSES:
            raise ConfigError(f"unknown defense kind {self.kind!r}")
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.neighbor_density_mode not in NEIGHBOR_DENSITY_MODES:
            raise ConfigError(f"unknown neighbor_density_mode {self.neighbor_density_mode!r}")
        if self.fg_krum_order not in FG_KRUM_ORDERS:
            raise ConfigError(f"unknown fg_krum_order {self.fg_krum_order!r}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")

    def to_kde(self) -> KdeConfig:
        return KdeConfig(k=self.k, bandwidth=self.bandwidth, kernel=self.kernel,
                         neighbor_density_mode=self.neighbor_density_mode,
                         epsilon=self.epsilon, density_floor=self.density_floor)


@dataclass(frozen=True)
class PartitionSection:
    samples_per_client: int = 600
    lam: float = 0.0
    allow_replacement: bool = True


@dataclass(frozen=True)
class EvalSection:
    target_label: int | None = None
    source_label: int | None = None


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
    roles: dict[int, str]
    test_features: np.ndarray
    test_labels: np.ndarray
    eval_target: int | None
    eval_source: int | None
    joint: ParamVector
    round_index: int = 0
    last_scores: dict[int, float] | None = None
    last_kept: set[int] = field(default_factory=set)
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

    plan = PartitionPlan(num_clients=cfg.num_clean,
                         samples_per_client=cfg.partition.samples_per_client,
                         lam=cfg.partition.lam,
                         allow_replacement=cfg.partition.allow_replacement)
    for src, _ in cfg.attack.flip_pairs:
        if cfg.attack.kind != "none" and src >= num_labels:
            raise ConfigError(f"flip source label {src} outside the dataset's {num_labels} labels")
    shards = partition(train_x, train_y, plan, np.random.SeedSequence([cfg.seed, TAG_PARTITION]))
    shards += build_malicious_shards(cfg.attack, train_x, train_y,
                                     cfg.partition.samples_per_client,
                                     np.random.SeedSequence([cfg.seed, TAG_ATTACK]),
                                     first_owner=cfg.num_clean)

    eval_target, eval_source = cfg.eval_labels()
    return ExperimentState(
        cfg=cfg,
        model=model,
        shards=shards,
        roles={s.owner: s.role for s in shards},
        test_features=test_x,
        test_labels=test_y,
        eval_target=eval_target,
        eval_source=eval_source,
        joint=model.init_params(),
        replacement_used=any(s.used_replacement for s in shards),
    )


def run_round(state: ExperimentState) -> tuple[ExperimentState, RoundRecord]:
    """Train every client from the current joint, defend, aggregate, evaluate."""
    cfg = state.cfg
    t = state.round_index + 1
    updates = []
    for shard in state.shards:
        seed = np.random.SeedSequence([cfg.seed, TAG_TRAIN, t, shard.owner])
        update = local_train(state.joint, shard, state.model, seed)
        if cfg.attack.kind == "model_poison" and shard.role == ROLE_MALICIOUS:
            update = boost_update(update, cfg.attack.boost_factor)
        updates.append(update)

    agg = DEFENSES[cfg.defense.kind](state, updates)
    state.joint = agg.new_joint
    state.round_index = t
    state.last_scores = agg.scores
    state.last_kept = set(agg.kept_clients)

    overall, target, other = eval_accuracy(state.joint, state.test_features, state.test_labels,
                                           state.model, state.eval_target, state.eval_source)
    n_t, n_f, m_t, m_f = confusion_counts(agg.kept_clients, state.roles)
    record = RoundRecord(
        round_index=t,
        overall_acc=overall,
        target_acc=target,
        other_acc=other,
        n_t=n_t, n_f=n_f, m_t=m_t, m_f=m_f,
        num_kept=len(agg.kept_clients),
        epsilon_used=agg.epsilon_used,
        h_used=agg.h_used,
    )
    return state, record


@dataclass
class RunOutput:
    records: list[RoundRecord]
    summary: dict
    scores: dict[int, float] | None
    auc: float | None
    state: ExperimentState


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rounds_csv(path: Path, records: list[RoundRecord]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "overall_acc", "target_acc", "other_acc",
                         "n_t", "n_f", "m_t", "m_f", "num_kept", "epsilon", "h"])
        for r in records:
            writer.writerow([_fmt_cell(v) for v in (
                r.round_index, r.overall_acc, r.target_acc, r.other_acc,
                r.n_t, r.n_f, r.m_t, r.m_f, r.num_kept, r.epsilon_used, r.h_used)])


def _write_scores_csv(path: Path, scores: dict[int, float], roles: dict[int, str], kept: set[int]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["client_id", "role", "score", "kept"])
        for client_id in sorted(scores):
            writer.writerow([client_id, roles[client_id], _fmt_cell(float(scores[client_id])),
                             int(client_id in kept)])


def _write_roc_csv(path: Path, points):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["threshold", "sensitivity", "one_minus_specificity"])
        for p in points:
            writer.writerow([_fmt_cell(p.threshold), _fmt_cell(p.sensitivity),
                             _fmt_cell(p.one_minus_specificity)])


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
        points, auc = roc_from_scores(state.last_scores, state.roles)

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
        _write_rounds_csv(out / "rounds.csv", records)
        with open(out / "summary.json", "w", encoding="utf-8", newline="") as fh:
            json.dump(_jsonable(summary), fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(out / "config_resolved.yaml", "w", encoding="utf-8", newline="") as fh:
            yaml.safe_dump(resolved_config_dict(cfg, state.model), fh, sort_keys=True)
        if state.last_scores is not None:
            _write_scores_csv(out / "scores.csv", state.last_scores, state.roles, state.last_kept)
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
    """Load a scores.csv back into (scores, roles) keyed by client id."""
    scores, roles = {}, {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"client_id", "role", "score"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(required)}")
        for row in reader:
            client_id = int(row["client_id"])
            scores[client_id] = float(row["score"])
            roles[client_id] = row["role"]
    if not scores:
        raise ValueError(f"{path}: no score rows")
    return scores, roles


def sweep_values(grid: str) -> list[float]:
    try:
        values = [float(v) for v in grid.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad grid {grid!r}: {exc}") from exc
    if not values:
        raise ConfigError("empty sweep grid")
    return values


def apply_sweep_value(cfg: ExperimentConfig, param: str, value: float) -> ExperimentConfig:
    if param == "tau":
        return replace(cfg, attack=replace(cfg.attack, tau=value))
    if param == "lambda":
        return replace(cfg, partition=replace(cfg.partition, lam=value))
    if param == "epsilon":
        return replace(cfg, defense=replace(cfg.defense, epsilon=value))
    raise ConfigError(f"unknown sweep param {param!r} (choose from {SWEEP_PARAMS})")


def run_sweep(cfg: ExperimentConfig, param: str, grid: str, out_root, seed: int | None = None):
    """One run per grid value; returns rows of (value, dir, final accs, auc)."""
    values = sweep_values(grid)
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in values:
        sub = out_root / f"{param}_{value!r}"
        output = run_experiment(apply_sweep_value(cfg, param, value), out_dir=sub, seed=seed)
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
    with open(out_root / "sweep_summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value", "dir", "final_overall_acc", "final_target_acc",
                         "combined_acc", "auc"])
        for row in rows:
            writer.writerow([_fmt_cell(row[k]) for k in
                             ("param", "value", "dir", "final_overall_acc", "final_target_acc",
                              "combined_acc", "auc")])
    return rows
