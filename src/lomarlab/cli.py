"""Command-line entry points.

Exit codes: 0 on success, 2 for configuration problems (unknown keys, bad
values, malformed files, bad usage), 3 for runtime failures (missing data
files, infeasible runs).
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import click
import numpy as np

from . import harness
from .harness import ConfigError, SWEEP_PARAMS


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            raise SystemExit(2)
        except Exception as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)
    return wrapper


def _pin_blas_thread():
    """One thread for numpy's bundled OpenBLAS, whose sums split by thread
    count; any other BLAS is left alone."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            lib.scipy_openblas_set_num_threads64_(1)


@click.group()
def main():
    """Federated-learning poisoning lab: attacks, defenses, experiments."""
    _pin_blas_thread()


def _resolve_out(cfg, out):
    if out is not None:
        return Path(out)
    if cfg.output_dir:
        return Path(cfg.output_dir)
    raise ConfigError("no output directory: set output_dir in the config or pass --out")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="YAML config file.")
@click.option("--seed", type=int, default=None, help="Override the config's seed.")
@click.option("--out", type=click.Path(), default=None, help="Output directory (overrides output_dir).")
@_guarded
def run(config_path, seed, out):
    """Run one experiment and write its outputs."""
    cfg = harness.load_config(config_path)
    out_dir = _resolve_out(cfg, out)
    output = harness.run_experiment(cfg, out_dir=out_dir, seed=seed)
    final = output.records[-1]
    click.echo(f"rounds: {len(output.records)}")
    click.echo(f"final overall_acc: {final.overall_acc!r}")
    click.echo(f"final target_acc: {final.target_acc!r}")
    click.echo(f"final other_acc: {final.other_acc!r}")
    if output.summary["auc"] is not None:
        click.echo(f"auc: {output.summary['auc']!r}")
    click.echo(f"wrote {out_dir}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(), help="YAML config file.")
@click.option("--param", required=True, type=click.Choice(SWEEP_PARAMS), help="Knob to sweep.")
@click.option("--grid", required=True, help="Comma-separated values, e.g. 0.6,0.8,1.0.")
@click.option("--seed", type=int, default=None, help="Override the config's seed.")
@click.option("--out", type=click.Path(), default=None, help="Root output directory.")
@_guarded
def sweep(config_path, param, grid, seed, out):
    """Run the config once per grid value of one parameter."""
    cfg = harness.load_config(config_path)
    out_root = _resolve_out(cfg, out)
    rows = harness.run_sweep(cfg, param, grid, out_root, seed=seed)
    for row in rows:
        click.echo(f"{param}={row['value']!r}: overall={row['final_overall_acc']!r} "
                   f"target={row['final_target_acc']!r} combined={row['combined_acc']!r}")
    click.echo(f"wrote {out_root}")
