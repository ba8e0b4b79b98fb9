"""Command-line surface: synth, graph, train, report, sweep.

Every command is deterministic given its input files, flags, seed, and BLAS
thread count. Exit codes: 0 success, 1 usage error, 2 data error, 3
numerical failure.

Before any compute, `main` sets numpy's OpenBLAS to one thread unless one of
`blas.THREAD_VARS` is set (`blas.apply_policy`). `train` spreads its folds
over `evaluation.pool_size(usable CPUs, threads, folds)` processes, itself
included; the output bytes are those of a serial run at the same count.

Settings are the fields of a flat dataclass (`SynthSpec`'s for synth,
`TrainConfig`'s for graph, train and sweep), renamed by `_ALIASES`, plus the
CLI-only `folds`, `k_grid` and `c_grid`. A flat key=value config file
(# comments allowed) sets them by key, and the flag `--<key>` overrides it;
sweep's `--k` and `--c` set `k_grid` and `c_grid`. graph takes only `k` and
`m`. A value that a dataclass's own checks reject is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import blas
from . import evaluation as ev
from . import training as tr
from .dataset import (read_cohort_csv, read_factor_table, write_cohort_csv, write_csv,
                      write_groups_csv)
from .errors import DataError, NumericalError
from .factor_graph import basis_from_factors
from .runio import jsonify, load_run, save_run, write_json
from .synth import SynthSpec, describe, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        raise _UsageError(message)


def _read_config_file(path) -> dict[str, str]:
    """The key=value pairs of a config file; a key given twice is a DataError."""
    out, line_of = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise DataError(f"{path}:{lineno}: key {key!r} is already set on line {line_of[key]}")
        out[key], line_of[key] = value, lineno
    return out


def _parse_m(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"m must be an integer or 'auto', got {text!r}") from None


def _parse_grid(text: str, cast):
    try:
        return tuple(cast(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list, got {text!r}") from None


# Config keys (and flags) that differ from the dataclass field they set.
_ALIASES = {"batch_size": "batch", "k_neighbors": "k", "centering_c": "c", "m_basis": "m"}
# A field's cast follows from its annotation; fields of any other type
# (SynthSpec.factors) are not settings.
_CASTS = {int: int, float: float, str: str, int | str: _parse_m}
_FLAGS = {"k_grid": "--k", "c_grid": "--c"}
# Lower bounds of integer settings that no dataclass checks (m may also be
# "auto"); each value of the k_grid tuple must meet its bound.
_MINIMUM = {"folds": 2, "m": 0, "k": 1, "k_grid": 1, "seed": 0}


def _flag(key: str) -> str:
    return _FLAGS.get(key, "--" + key.replace("_", "-"))


def _settings(cls) -> dict:
    """Config key -> (default, cast) for each settable field of dataclass
    `cls`, in field order."""
    default = cls()
    return {_ALIASES.get(name, name): (getattr(default, name), _CASTS[hint])
            for name, hint in get_type_hints(cls).items() if hint in _CASTS}


def _build(cls, cfg: dict):
    """Dataclass `cls` with each field whose config key is in `cfg` set from
    it; the other fields keep their defaults. A ValueError from the
    dataclass's own checks is a usage error."""
    keys = {name: _ALIASES.get(name, name) for name in get_type_hints(cls)}
    try:
        return cls(**{name: cfg[key] for name, key in keys.items() if key in cfg})
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _effective(args, settings: dict) -> dict:
    """Merge defaults, config file values, and explicit CLI flags; a setting
    below its `_MINIMUM` is a usage error before any input is read."""
    merged = {key: default for key, (default, _) in settings.items()}
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in settings:
                owner = next((k for k in settings if _flag(k) == _flag(key)), None)
                hint = f" (the config key for {_flag(key)} is {owner})" if owner else ""
                raise DataError(f"unknown config key {key!r}{hint}")
            try:
                merged[key] = settings[key][1](raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise DataError(f"config key {key}: {exc}") from None
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    for key, low in _MINIMUM.items():
        value = merged.get(key, low)
        for v in value if isinstance(value, tuple) else (value,):
            if v != "auto" and v < low:
                raise _UsageError(f"{key} must be >= {low}, got {v}")
    return merged


def _add_settings(parser, settings: dict, helps=None):
    parser.add_argument("--config", help="key=value settings file")
    for key, (_, cast) in settings.items():
        parser.add_argument(_flag(key), dest=key, type=cast, help=(helps or {}).get(key),
                            choices=tr.SCHEMES if key == "scheme" else None)


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands

def _train_settings() -> dict:
    """TrainConfig's settings plus the CLI-only fold count, which follows
    batch, where run_summary.json's config has always listed it."""
    items = list(_settings(tr.TrainConfig).items())
    at = [key for key, _ in items].index("batch") + 1
    return dict(items[:at] + [("folds", (ev.DEFAULT_FOLDS, int))] + items[at:])


_SYNTH = _settings(SynthSpec)
_TRAIN = _train_settings()
_GRAPH = {key: _TRAIN[key] for key in ("k", "m")}
_SWEEP = {"k_grid": (ev.DEFAULT_K_GRID, lambda text: _parse_grid(text, int)),
          "c_grid": (ev.DEFAULT_C_GRID, lambda text: _parse_grid(text, float)),
          **{key: _TRAIN[key] for key in ("epochs", "lr_model", "lr_a", "batch", "folds",
                                          "m", "seed")}}


def cmd_synth(args) -> int:
    data, factors, groups = generate(_build(SynthSpec, _effective(args, _SYNTH)))
    out = _out_dir(args.out)
    write_cohort_csv(out / "cohort.csv", data, factors)
    write_groups_csv(out / "groups.csv", data.subject_ids, groups)
    summary = describe(data, factors)
    summary["low_noise_fraction"] = float(np.mean(groups == "low"))
    write_json(out / "synth_summary.json", summary)
    print(json.dumps(jsonify(summary), indent=2))
    return EXIT_OK


def cmd_graph(args) -> int:
    cfg = _effective(args, _GRAPH)
    subject_ids, factors = read_factor_table(args.cohort)
    # Without --dump-graph no eigenvector is written, so none is computed.
    basis, info = basis_from_factors(factors, cfg["k"], cfg["m"], vectors=args.dump_graph)
    out = _out_dir(args.out)

    write_csv(out / "eigenspectrum.csv", ["rank", "eigenvalue"],
              enumerate(info["eigenvalues"].tolist()))
    summary = {
        "n_samples": factors.n_samples,
        "k_neighbors": cfg["k"],
        "m_requested": cfg["m"],
        "m_used": info["m_used"],
        "n_null_eigenvalues": info["n_null"],
        "n_components": info["n_components"],
        "basis_eigenvalues": list(info["basis_eigenvalues"]),
    }
    write_json(out / "graph_summary.json", summary)
    n_comp, n_null = info["n_components"], info["n_null"]
    if max(n_comp, n_null) > 1 or n_comp != n_null:
        mismatch = "" if n_comp == n_null else f" but {n_null} null Laplacian eigenvalues"
        print(f"warning: factor graph has {n_comp} connected components{mismatch}",
              file=sys.stderr)
    if args.dump_graph:  # csv writes each Python float as repr(float)
        header = [f"c{j}" for j in range(factors.n_samples)]
        write_csv(out / "adjacency.csv", header, info["graph"].adjacency.tolist())
        write_csv(out / "laplacian.csv", header, info["laplacian"].tolist())
        write_csv(out / "basis.csv", ["subject_id"] + [f"e{j}" for j in range(basis.m_count)],
                  [[sid] + row for sid, row in zip(subject_ids, basis.basis.tolist())])
    print(json.dumps(jsonify(summary), indent=2))
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _effective(args, _TRAIN)
    train_cfg = _build(tr.TrainConfig, cfg)
    data, factors = read_cohort_csv(args.cohort)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = ev.pool_size(cpus, blas.threads(), cfg["folds"])
    run = ev.cross_validate(data, factors, train_cfg, n_folds=cfg["folds"], jobs=jobs)
    bacc, f1 = save_run(_out_dir(args.out), run, data.subject_ids, factors, cfg, args.cohort)
    print(f"scheme={run.scheme} BACC {ev.format_mean_std(bacc)} "
          f"F1 {ev.format_mean_std(f1)}")
    return EXIT_OK


def cmd_report(args) -> int:
    run, _, factor_names, factor_values, _ = load_run(args.run)
    rows, folds, y, prob, w = run.pooled_test()
    bacc, f1, gap, tables = ev.pooled_analysis(folds, y, prob, w, factor_values[rows],
                                               factor_names, run.n_folds)

    out = _out_dir(args.out or args.run)
    for table in tables:
        write_csv(out / f"subcohorts_{table.factor}.csv", ["group", "n", "mean_weight", "bacc"],
                  [[g.label, g.n, g.mean_weight, "" if g.bacc is None else g.bacc]
                   for g in table.groups])
    subcohorts = {t.factor: {"groups": [asdict(g) for g in t.groups],
                             "pairwise": [asdict(p) for p in t.pairwise]} for t in tables}

    report = {
        "scheme": run.scheme,
        "seed": run.seed,
        "n_folds": run.n_folds,
        "overall": {
            "bacc_mean": float(bacc.mean()), "bacc_std": float(bacc.std()),
            "f1_mean": float(f1.mean()), "f1_std": float(f1.std()),
            "bacc_formatted": ev.format_mean_std(bacc),
            "f1_formatted": ev.format_mean_std(f1),
            "per_fold": [{"fold": fold, "bacc": b, "f1": f}
                         for fold, (b, f) in enumerate(zip(bacc, f1))],
        },
        "median_split": asdict(gap),
        "subcohorts": subcohorts,
    }
    write_json(out / "report.json", report)
    print(json.dumps(jsonify(report["overall"]), indent=2))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _effective(args, _SWEEP)
    base_cfg = _build(tr.TrainConfig, cfg)
    k_values, c_values = cfg["k_grid"], cfg["c_grid"]
    if not k_values or not c_values:
        raise _UsageError("k and c grids must be non-empty")
    for c in c_values:  # TrainConfig checks each centering value before the cohort is read
        _build(tr.TrainConfig, {**cfg, "c": c})
    data, factors = read_cohort_csv(args.cohort)
    cells = ev.sweep(data, factors, base_cfg, k_values, c_values, n_folds=cfg["folds"])
    out = _out_dir(args.out)
    write_csv(out / "sweep_grid.csv",
              ["k", "c", "seed", "gap_points", "gap_percent",
               "bacc_high", "bacc_low", "overall_bacc", "degenerate"],
              [[cell.k, cell.c, cell.seed, cell.gap_points, cell.gap_percent,
                "" if math.isnan(cell.bacc_high) else cell.bacc_high,
                "" if math.isnan(cell.bacc_low) else cell.bacc_low,
                cell.overall_bacc, int(cell.degenerate)] for cell in cells])
    print(f"wrote {len(cells)} sweep cells to {out / 'sweep_grid.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="specweight",
                     description="Spectral graph sample weighting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic cohort CSV")
    p_synth.add_argument("--out", required=True)
    _add_settings(p_synth, _SYNTH)

    p_graph = sub.add_parser("graph", help="build the factor graph and its basis")
    p_graph.add_argument("--cohort", required=True)
    p_graph.add_argument("--out", required=True)
    _add_settings(p_graph, _GRAPH)
    p_graph.add_argument("--dump-graph", action="store_true")

    p_train = sub.add_parser("train", help="cross-validated weighted training")
    p_train.add_argument("--cohort", required=True)
    p_train.add_argument("--out", required=True)
    _add_settings(p_train, _TRAIN)

    p_report = sub.add_parser("report", help="summarize a training run directory")
    p_report.add_argument("--run", required=True)
    p_report.add_argument("--out")

    p_sweep = sub.add_parser("sweep", help="neighbor/centering grid of gap metrics")
    p_sweep.add_argument("--cohort", required=True)
    p_sweep.add_argument("--out", required=True)
    _add_settings(p_sweep, _SWEEP, {"k_grid": "comma-separated K values (config key k_grid)",
                                    "c_grid": "comma-separated c values (config key c_grid)"})

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    blas.apply_policy()
    try:
        args = _parser().parse_args(argv)
        # Looked up at call time, so a replaced module attribute cmd_<name> runs.
        return globals()["cmd_" + args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"data error: out of memory: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
