#!/usr/bin/env python3
"""lomarlab benchmark: set-up time, round time and defense quality.

Run from the repository root:

    python3 perfbench/run.py --workload small --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --list

One run repeats whole experiments (``harness.run_experiment`` with an output
directory) for about ``--seconds`` seconds, drawing experiment seeds from
``--seed``. The first seed runs twice so that every run checks that reruns
are byte-identical. Every time is CPU time (see ``tracer.cpu_seconds``);
wall times go only to the result file. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced experiments on
the same seeds and reports the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Everything the run writes goes under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import check_outputs, hash_outputs  # noqa: E402
from tracer import ENTRY_POINTS, LAYER_FUNCTIONS, Tracer, live_children  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    config: str          # harness config, relative to the repository root
    quality_seeds: int   # distinct seeds whose outputs give the quality metrics
    floors: dict         # lowest acceptable per-experiment quality, set from the seed code


WORKLOADS = {
    "small": Workload("configs/example.yaml", 48,
                      {"malicious_dropped_rate": 0.9, "clean_kept_rate": 0.2, "auc": 0.6}),
    "paper_lomar": Workload("perfbench/workloads/paper_lomar.yaml", 2,
                            {"malicious_dropped_rate": 0.9, "clean_kept_rate": 0.45, "auc": 0.9}),
    "paper_fgkrum": Workload("perfbench/workloads/paper_fgkrum.yaml", 3,
                             {"malicious_dropped_rate": 0.9, "clean_kept_rate": 0.9, "auc": 0.9}),
}


@dataclass
class Experiment:
    seed: int
    traced: bool
    run_s: float | None = None
    wall_s: float | None = None
    setup_s: float | None = None
    round_s: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    tracer: Tracer | None = None
    absent: list = field(default_factory=list)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true", help="print every metric and workload, then exit")
    args = p.parse_args(argv)
    if not args.list and args.workload is None:
        p.error("--workload is required")
    return args


def limit_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy loads. Returns nproc.

    OpenBLAS threads spin while they wait. With two of them on a two-core
    box, a paper_fgkrum round measured 1.45 s alone but 2.55 s while another
    process held one core; with one thread it was 1.7 s either way.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def blas_threads(np) -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, or None for another BLAS."""
    import ctypes
    import glob
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return int(lib.scipy_openblas_get_num_threads64_())
    return None


def machine_info(np, nproc: int, load_at_start) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        "loadavg_at_start": list(load_at_start),
        "platform": platform.platform(),
    }


def schedule(seed: int, traced: bool, quality_seeds: int):
    """Yield (experiment seed, traced) and return how many entries must run.

    Untraced: the first seed twice (rerun check), then fresh seeds; the
    quality seeds always run. Traced: each seed untraced then traced, so the
    two can be compared byte for byte.
    """
    rng = random.Random(seed)
    seeds = iter(lambda: rng.randrange(2 ** 31), None)
    first = next(seeds)
    if traced:
        plan = [(first, False), (first, True)]
        required = 2
    else:
        plan = [(first, False), (first, False)]
        required = quality_seeds + 1

    def gen():
        yield from plan
        for s in seeds:
            yield from ([(s, False), (s, True)] if traced else [(s, False)])
    return gen(), required


def run_one(harness, cfg, seed: int, traced: bool, out_dir: Path, floors: dict) -> Experiment:
    exp = Experiment(seed=seed, traced=traced)
    tracer = Tracer()
    table = {**ENTRY_POINTS, **(LAYER_FUNCTIONS if traced else {})}
    shutil.rmtree(out_dir, ignore_errors=True)
    began = time.perf_counter()
    try:
        with tracer.patched(harness, table) as absent:
            with tracer.span("harness.run_experiment"):
                output = harness.run_experiment(cfg, out_dir=out_dir, seed=seed)
    except Exception:  # a failing experiment is counted and reported, the run goes on
        exp.problems.append("raised:\n" + traceback.format_exc())
        return exp
    exp.wall_s = time.perf_counter() - began
    left = live_children()
    if left:
        exp.problems.append(f"child processes {left} outlived run_experiment; "
                            "their CPU time would go uncounted")
    if set(absent) & set(ENTRY_POINTS):
        exp.problems.append(f"harness lacks entry points {absent}")
        return exp

    kids = tracer.children()
    top = kids[0]
    exp.run_s = tracer.duration(0)
    exp.setup_s = sum(tracer.duration(k) for k in top if tracer.spans[k][0] == "harness.initialize_state")
    exp.round_s = [tracer.duration(k) for k in top if tracer.spans[k][0] == "harness.run_round"]
    if len(exp.round_s) != cfg.rounds:
        exp.problems.append(f"timed {len(exp.round_s)} rounds, config has {cfg.rounds}")

    summary = output.summary
    exp.quality = {
        "final_overall_acc": summary["final"]["overall_acc"],
        "final_target_acc": summary["final"]["target_acc"],
        "malicious_dropped_rate": summary["mean_rates"]["malicious_dropped_rate"],
        "clean_kept_rate": summary["mean_rates"]["clean_kept_rate"],
        "auc": summary["auc"],
    }
    for key, floor in floors.items():
        if exp.quality[key] is None or exp.quality[key] < floor:
            exp.problems.append(f"{key} {exp.quality[key]} below the floor {floor}")
    exp.hashes = hash_outputs(out_dir)
    exp.problems += check_outputs(out_dir, cfg.rounds, seed)

    if traced:
        exp.tracer = tracer
        exp.counts = work_counts(tracer, kids, output.state, cfg)
        exp.absent = absent
    return exp


def work_counts(tracer: Tracer, kids, state, cfg) -> dict:
    """Per-round call and work counts of a traced experiment."""
    first_round = next(k for k in kids[0] if tracer.spans[k][0] == "harness.run_round")
    calls: dict[str, int] = {}
    for k in kids[first_round]:
        calls[tracer.spans[k][0]] = calls.get(tracer.spans[k][0], 0) + 1
    n = len(state.shards)
    params = state.joint.values.size
    train_calls = calls.get("models.local_train", 0)
    lomar_calls = calls.get("lomar.lomar_run", 0)
    return {
        "models.local_train_calls": train_calls,
        "models.sgd_steps": train_calls * state.model.local_epochs
        * math.ceil(cfg.partition.samples_per_client / state.model.batch_size),
        "models.update_matrix_bytes": n * params * 8,
        "lomar.lomar_run_calls": lomar_calls,
        "lomar.pair_distances": lomar_calls * n * (n - 1) // 2 * (state.model.num_labels + 1),
        "lomar.floor_hits": tracer.floor_hits / cfg.rounds,
        "attacks.boost_update_calls": calls.get("attacks.boost_update", 0),
        "baselines.fg_krum_calls": calls.get("baselines.fg_krum", 0),
    }


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MiB (Linux KiB units)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(exps: list[Experiment], quality_seeds: int) -> dict:
    done = [e for e in exps if e.run_s is not None]
    rounds = [t for e in done for t in e.round_s]
    quality_exps, seen = [], set()
    for e in done:
        if e.seed not in seen and len(seen) < quality_seeds:
            seen.add(e.seed)
            quality_exps.append(e)
    metrics = {
        "setup_s": statistics.median(e.setup_s for e in done),
        "round_s.p50": statistics.median(rounds),
        "run_s": statistics.median(e.run_s for e in done),
        "peak_rss_mb": peak_rss_mb(),
    }
    for key in quality_exps[0].quality:
        metrics[key] = statistics.fmean(e.quality[key] for e in quality_exps)
    metrics["pass_ratio"] = sum(not e.problems for e in exps) / len(exps)
    return metrics


def _median_low_by(items, key):
    return sorted(items, key=key)[(len(items) - 1) // 2]


def per_layer(exps: list[Experiment]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced experiments, plus the breakdowns behind them.

    Round-level metrics come from the traced round whose time is the lower
    median, and run-level metrics from the traced experiment whose run_s is
    the lower median, so each set adds up exactly to its total.
    """
    traced = [e for e in exps if e.traced and e.tracer is not None]
    untraced = [e.run_s for e in exps if not e.traced and e.run_s is not None]
    rounds, calls = [], []
    for e in traced:
        t = e.tracer
        kids = t.children()
        for k in kids[0]:
            if t.spans[k][0] == "harness.run_round":
                rounds.append((t.duration(k), t.breakdown(k, kids)))
        calls += [t.duration(i) for i, s in enumerate(t.spans) if s[0] == "models.local_train"]
    round_total, rnd = _median_low_by(rounds, key=lambda r: r[0])

    exp = _median_low_by(traced, key=lambda e: e.run_s)
    t = exp.tracer
    kids = t.children()
    run = {"harness.write_outputs": t.self_time(0, kids), "rounds_total": 0.0}
    for k in kids[0]:
        name = t.spans[k][0]
        if name == "harness.run_round":
            run["rounds_total"] += t.duration(k)
        elif name == "harness.initialize_state":
            for sub, v in t.breakdown(k, kids).items():
                run["harness.setup_self" if sub == "self" else sub] = v
        else:
            run[name] = run.get(name, 0.0) + t.self_time(k, kids)

    def in_round(*modules):
        return sum(v for n, v in rnd.items() if n.split(".")[0] in modules)

    metrics = {
        "data.synth_gaussian_s": run.get("data.synth_gaussian", 0.0),
        "data.partition_s": run.get("data.partition", 0.0),
        "attacks.build_malicious_shards_s": run.get("attacks.build_malicious_shards", 0.0),
        "harness.setup_self_s": run["harness.setup_self"],
        "clients.update_s": in_round("models", "attacks"),
        "models.local_train_s": rnd.get("models.local_train", 0.0),
        "models.local_train_call_s.p50": percentile(calls, 0.5) if calls else 0.0,
        "models.local_train_call_s.p99": percentile(calls, 0.99) if calls else 0.0,
        "defense.round_s": in_round("lomar", "baselines"),
        "metrics.eval_accuracy_s": rnd.get("metrics.eval_accuracy", 0.0),
        "metrics.confusion_counts_s": rnd.get("metrics.confusion_counts", 0.0),
        "metrics.roc_from_scores_s": run.get("metrics.roc_from_scores", 0.0),
        "harness.round_self_s": rnd["self"],
        "harness.write_outputs_s": run["harness.write_outputs"],
        "trace.round_s.p50": round_total,
        "trace.rounds_total_s": run["rounds_total"],
        "trace.run_s": exp.run_s,
        "trace.overhead_ratio": statistics.median(e.run_s for e in traced) / statistics.median(untraced),
    }
    metrics.update(traced[0].counts)
    return metrics, {"round": rnd, "round_total": round_total, "run": run, "run_total": exp.run_s,
                     "absent": traced[0].absent}


def add_up_problems(m: dict) -> list[str]:
    """The per-layer parts must sum to the traced round and run times."""
    round_parts = ("clients.update_s", "defense.round_s", "metrics.eval_accuracy_s",
                   "metrics.confusion_counts_s", "harness.round_self_s")
    run_parts = ("data.synth_gaussian_s", "data.partition_s", "attacks.build_malicious_shards_s",
                 "harness.setup_self_s", "trace.rounds_total_s", "metrics.roc_from_scores_s",
                 "harness.write_outputs_s")
    problems = []
    for total, parts in (("trace.round_s.p50", round_parts), ("trace.run_s", run_parts)):
        gap = m[total] - sum(m[p] for p in parts)
        if abs(gap) > 1e-9 * max(1.0, m[total]):
            problems.append(f"per-layer parts miss {total} by {gap!r} s")
    return problems


def check_reruns(exps: list[Experiment]):
    """Every experiment of one seed, traced or not, must write identical files."""
    first: dict[int, Experiment] = {}
    for e in exps:
        if e.run_s is None:
            continue
        ref = first.setdefault(e.seed, e)
        if e is not ref and e.hashes != ref.hashes:
            differ = sorted(n for n in set(e.hashes) | set(ref.hashes) if e.hashes.get(n) != ref.hashes.get(n))
            e.problems.append(f"seed {e.seed}: outputs differ from the first run: {differ}")


def share_table(detail: dict) -> list[str]:
    lines = [f"{'round part (median traced round)':40s} {'self_s':>12s} {'share':>7s}"]
    total = detail["round_total"]
    for name, v in sorted(detail["round"].items(), key=lambda kv: -kv[1]):
        label = "harness.round_self" if name == "self" else name
        lines.append(f"{label:40s} {v:12.6f} {v / total:7.1%}")
    lines.append(f"{'round total':40s} {total:12.6f}")
    lines.append(f"{'run part (median traced run)':40s} {'self_s':>12s} {'share':>7s}")
    total = detail["run_total"]
    for name, v in sorted(detail["run"].items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:40s} {v:12.6f} {v / total:7.1%}")
    lines.append(f"{'run total':40s} {total:12.6f}")
    if detail["absent"]:
        lines.append(f"absent layer functions: {', '.join(detail['absent'])}")
    return lines


def print_list(bench: dict):
    for group in ("end_to_end", "per_layer"):
        print(f"{group} metrics:")
        for m in bench[group]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:36s} {m['unit']:8s} {m['better']} is better{bound}")
    print("workloads:")
    for w in bench["workloads"]:
        print(f"  {w['name']:14s} {WORKLOADS[w['name']].config}: {w['why']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.list:
        print_list(bench)
        return 0

    load_at_start = os.getloadavg()
    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        from lomarlab import harness
    except ImportError as exc:
        print(f"perfbench: cannot import lomarlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(harness.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: lomarlab was imported from {harness.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        cfg = harness.load_config(ROOT / workload.config)
    except harness.ConfigError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    machine = machine_info(np, nproc, load_at_start)
    print("machine " + json.dumps(machine, sort_keys=True), flush=True)

    out = OUT_ROOT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    plan, required = schedule(args.seed, bool(args.trace), workload.quality_seeds)
    exps: list[Experiment] = []
    start = time.perf_counter()
    longest = 0.0
    for i, (seed, traced) in enumerate(plan):
        if i >= required and time.perf_counter() - start + longest > args.seconds:
            break
        began = time.perf_counter()
        exps.append(run_one(harness, cfg, seed, traced, out / "experiment", workload.floors))
        longest = max(longest, time.perf_counter() - began)

    check_reruns(exps)
    problems = []
    done = [e for e in exps if e.run_s is not None]
    if not done or (args.trace and len({e.traced for e in done}) < 2):
        for e in exps:
            print("\n".join(e.problems), file=sys.stderr)
        print("perfbench: too few experiments completed to report metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics, detail = per_layer(exps)
        problems += add_up_problems(metrics)
        # Every count but floor_hits follows from the config alone.
        counts = [{k: v for k, v in e.counts.items() if k != "lomar.floor_hits"} for e in done if e.traced]
        if any(c != counts[0] for c in counts):
            problems.append(f"work counts differ between experiments: {counts}")
        with open(out / f"spans-seed{args.seed}.csv", "w", encoding="utf-8") as fh:
            fh.write("experiment,span,parent,name,start_cpu_s,end_cpu_s\n")
            for i, e in enumerate(exps):
                if e.tracer is not None:
                    e.tracer.write_csv(fh, i)
        print("\n".join(share_table(detail)))
    else:
        metrics = end_to_end(exps, workload.quality_seeds)
    problems += [p for e in exps for p in e.problems]

    declared = bench["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        print(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    rounds = [t for e in done for t in e.round_s]
    round_p90 = percentile(rounds, 0.9)
    failed = sum(bool(e.problems) for e in exps)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(exps)} experiments, "
          f"{len({e.seed for e in exps})} seeds, fail_ratio {failed / len(exps)}, {len(rounds)} timed rounds "
          f"with p90 {round_p90!r} s; median wall run_s {statistics.median(e.wall_s for e in done)!r} s")
    for m in declared:
        print(f"  {m['name']:36s} {metrics[m['name']]!r:>24s} {m['unit']}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine,
              "metrics": metrics, "problems": problems, "rounds_timed": len(rounds), "round_s_p90": round_p90,
              "experiments": [{"seed": e.seed, "traced": e.traced, "run_s": e.run_s, "wall_s": e.wall_s,
                               "setup_s": e.setup_s,
                               "round_s": e.round_s, "hashes": e.hashes, "quality": e.quality,
                               "counts": e.counts, "problems": e.problems} for e in exps]}
    with open(out / f"result-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not problems, "attempted": len(exps), "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
