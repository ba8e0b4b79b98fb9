"""Command-line surface: synth, graph, train, report, sweep.

Every command is deterministic given its input files, flags, seed, and BLAS
thread count. Exit codes: 0 success, 1 usage error, 2 data error, 3
numerical failure.

Config files are flat key=value text (# comments allowed); any key can be
overridden by the CLI flag of the same name.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import training as tr
from .dataset import read_cohort_csv, write_cohort_csv, write_groups_csv
from .errors import DataError, NumericalError
from .factor_graph import basis_from_factors
from .predictor import RecurrentClassifier, save_checkpoint
from .synth import NoiseRule, SynthSpec, describe, generate

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
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _effective(args, defaults: dict, casts: dict) -> dict:
    """Merge builtin defaults, config file values, and explicit CLI flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        for key, raw in _read_config_file(args.config).items():
            if key not in defaults:
                raise DataError(f"unknown config key {key!r}")
            try:
                merged[key] = casts[key](raw)
            except ValueError as exc:
                raise DataError(f"config key {key}: {exc}") from None
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _parse_m(text: str):
    if text == "auto":
        return "auto"
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"m must be an integer or 'auto', got {text!r}") from None


def _parse_grid(text: str, cast):
    try:
        return tuple(cast(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"expected a comma-separated list, got {text!r}") from None


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _write_json(path, obj):
    Path(path).write_text(json.dumps(_jsonify(obj), indent=2) + "\n", encoding="utf-8")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    return repr(float(x))


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands

_SYNTH_DEFAULTS = {
    "n_subjects": 400, "feature_width": 20, "min_visits": 1, "max_visits": 5,
    "signal_strength": 1.0, "drift_scale": 0.05, "noise_factor": "group",
    "noise_threshold": 0.0, "flip_above": 0.05, "flip_at_or_below": 0.40, "seed": 0,
}
_SYNTH_CASTS = {
    "n_subjects": int, "feature_width": int, "min_visits": int, "max_visits": int,
    "signal_strength": float, "drift_scale": float, "noise_factor": str,
    "noise_threshold": float, "flip_above": float, "flip_at_or_below": float, "seed": int,
}


def cmd_synth(args) -> int:
    cfg = _effective(args, _SYNTH_DEFAULTS, _SYNTH_CASTS)
    spec = SynthSpec(
        n_subjects=cfg["n_subjects"], feature_width=cfg["feature_width"],
        min_visits=cfg["min_visits"], max_visits=cfg["max_visits"],
        noise=NoiseRule(cfg["noise_factor"], cfg["noise_threshold"],
                        cfg["flip_above"], cfg["flip_at_or_below"]),
        signal_strength=cfg["signal_strength"], drift_scale=cfg["drift_scale"],
        seed=cfg["seed"],
    )
    data, factors, groups = generate(spec)
    out = _out_dir(args.out)
    write_cohort_csv(out / "cohort.csv", data, factors)
    write_groups_csv(out / "groups.csv", data.subject_ids, groups)
    summary = describe(data, factors)
    summary["low_noise_fraction"] = float(np.mean(groups == "low"))
    _write_json(out / "synth_summary.json", summary)
    print(json.dumps(_jsonify(summary), indent=2))
    return EXIT_OK


_GRAPH_DEFAULTS = {"k": 50, "m": "auto", "seed": 0}
_GRAPH_CASTS = {"k": int, "m": _parse_m, "seed": int}


def cmd_graph(args) -> int:
    cfg = _effective(args, _GRAPH_DEFAULTS, _GRAPH_CASTS)
    data, factors = read_cohort_csv(args.cohort)
    m = cfg["m"]
    basis, info = basis_from_factors(factors, cfg["k"], m)
    out = _out_dir(args.out)

    _write_csv(out / "eigenspectrum.csv", ["rank", "eigenvalue"],
               [[i, _fmt(v)] for i, v in enumerate(info["eigenvalues"])])
    summary = {
        "n_samples": data.n_samples,
        "k_neighbors": cfg["k"],
        "m_requested": m,
        "m_used": info["m_used"],
        "n_null_eigenvalues": info["n_null"],
        "n_components": info["n_components"],
        "basis_eigenvalues": list(basis.eigenvalues),
    }
    _write_json(out / "graph_summary.json", summary)
    n_comp, n_null = info["n_components"], info["n_null"]
    if max(n_comp, n_null) > 1 or n_comp != n_null:
        mismatch = "" if n_comp == n_null else f" but {n_null} null Laplacian eigenvalues"
        print(f"warning: factor graph has {n_comp} connected components{mismatch}",
              file=sys.stderr)
    if args.dump_graph:
        n = data.n_samples
        _write_csv(out / "adjacency.csv", [f"c{j}" for j in range(n)],
                   [[_fmt(v) for v in row] for row in info["graph"].adjacency])
        _write_csv(out / "laplacian.csv", [f"c{j}" for j in range(n)],
                   [[_fmt(v) for v in row] for row in info["laplacian"]])
        _write_csv(out / "basis.csv",
                   ["subject_id"] + [f"e{j}" for j in range(basis.m_count)],
                   [[sid] + [_fmt(v) for v in basis.basis[i]]
                    for i, sid in enumerate(data.subject_ids)])
    print(json.dumps(_jsonify(summary), indent=2))
    return EXIT_OK


_TRAIN_DEFAULTS = {
    "scheme": "spectral", "epochs": 100, "lr_model": 1e-4, "lr_a": 1e-5,
    "batch": 32, "folds": 5, "k": 50, "c": 0.65, "m": "auto",
    "jtt_lambda": 2.0, "seed": 0,
}
_TRAIN_CASTS = {
    "scheme": str, "epochs": int, "lr_model": float, "lr_a": float,
    "batch": int, "folds": int, "k": int, "c": float, "m": _parse_m,
    "jtt_lambda": float, "seed": int,
}


def _train_config(cfg: dict) -> tr.TrainConfig:
    try:
        return tr.TrainConfig(
            scheme=cfg["scheme"], epochs=cfg["epochs"], lr_model=cfg["lr_model"],
            lr_a=cfg["lr_a"], batch_size=cfg["batch"], k_neighbors=cfg["k"],
            centering_c=cfg["c"], m_basis=cfg["m"], jtt_lambda=cfg["jtt_lambda"],
            seed=cfg["seed"],
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _write_run_files(out: Path, run: ev.CVRun, subject_ids, factors, cfg: dict, cohort: str):
    weight_rows, pred_rows = [], []
    for fr in run.fold_results:
        for i, sid in enumerate(subject_ids):
            split = "test" if fr.test_mask[i] else "train"
            if math.isfinite(fr.weights[i]):
                weight_rows.append([sid, fr.fold, split, _fmt(fr.weights[i])])
            pred_rows.append([sid, fr.fold, split, int(fr.y[i]), _fmt(fr.prob[i])])
    _write_csv(out / "weights.csv", ["subject_id", "fold", "split", "weight"], weight_rows)
    _write_csv(out / "predictions.csv",
               ["subject_id", "fold", "split", "y_true", "prob"], pred_rows)
    _write_csv(out / "factors.csv",
               ["subject_id"] + [f"f_{n}" for n in factors.factor_names],
               [[sid] + [_fmt(v) for v in factors.values[i]]
                for i, sid in enumerate(subject_ids)])
    for manifest in run.manifests:
        _write_json(out / f"manifest_fold{manifest['fold']}.json", manifest)
    _write_json(out / "run_summary.json", {
        "scheme": run.scheme,
        "seed": run.seed,
        "n_folds": run.n_folds,
        "cohort": str(cohort),
        "config": cfg,
        "fold_bacc": list(run.fold_bacc),
        "fold_f1": list(run.fold_f1),
    })


def cmd_train(args) -> int:
    cfg = _effective(args, _TRAIN_DEFAULTS, _TRAIN_CASTS)
    train_cfg = _train_config(cfg)
    data, factors = read_cohort_csv(args.cohort)
    run = ev.cross_validate(data, factors, train_cfg, n_folds=cfg["folds"])
    out = _out_dir(args.out)
    _write_run_files(out, run, data.subject_ids, factors, cfg, args.cohort)
    for fold, model in enumerate(run.models):
        if isinstance(model, RecurrentClassifier):
            save_checkpoint(model, out / f"model_fold{fold}.bin")
    print(f"scheme={run.scheme} BACC {ev.format_mean_std(run.fold_bacc)} "
          f"F1 {ev.format_mean_std(run.fold_f1)}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    try:
        summary = json.loads((run_dir / "run_summary.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"not a run directory: {exc}") from None

    preds = _read_table(run_dir / "predictions.csv",
                        ["subject_id", "fold", "split", "y_true", "prob"],
                        [str, int, str, int, float])
    weights = _read_table(run_dir / "weights.csv",
                          ["subject_id", "fold", "split", "weight"], [str, int, str, float])
    factor_names, factors_by_id = _read_factors(run_dir / "factors.csv")

    weight_by_key = {(r[0], r[1]): r[3] for r in weights}
    n_folds = int(summary["n_folds"])

    per_fold, pooled = [], []
    for fold in range(n_folds):
        test = [r for r in preds if r[1] == fold and r[2] == "test"]
        y = np.array([r[3] for r in test])
        p = np.array([r[4] for r in test])
        try:
            per_fold.append({
                "fold": fold,
                "bacc": ev.balanced_accuracy(y, p),
                "f1": ev.f1_score(y, p),
            })
        except ValueError as exc:
            where = run_dir / "predictions.csv"
            raise DataError(f"{where}: fold {fold} test rows: {exc}") from None
        for r in test:
            pooled.append((r[0], fold, r[3], r[4], weight_by_key.get((r[0], fold), float("nan"))))

    bacc = np.array([f["bacc"] for f in per_fold])
    f1 = np.array([f["f1"] for f in per_fold])
    ids = [r[0] for r in pooled]
    y = np.array([r[2] for r in pooled])
    prob = np.array([r[3] for r in pooled])
    w = np.array([r[4] for r in pooled])

    gap = asdict(ev.median_split_from_arrays(y, prob, w))
    missing = next((i for i in ids if i not in factors_by_id), None)
    if missing is not None:
        raise DataError(f"{run_dir / 'factors.csv'}: no row for subject {missing!r}")
    factor_values = np.array([factors_by_id[i] for i in ids])
    subcohorts = {}
    out = _out_dir(args.out) if args.out else run_dir
    for k, name in enumerate(factor_names):
        table = ev.factor_subcohort_table(w, y, prob, factor_values[:, k], name)
        subcohorts[name] = {
            "groups": [asdict(g) for g in table.groups],
            "pairwise": [asdict(p) for p in table.pairwise],
        }
        _write_csv(out / f"subcohorts_{name}.csv",
                   ["group", "n", "mean_weight", "bacc"],
                   [[g.label, g.n, _fmt(g.mean_weight),
                     "" if g.bacc is None else _fmt(g.bacc)] for g in table.groups])

    report = {
        "scheme": summary["scheme"],
        "seed": summary["seed"],
        "n_folds": n_folds,
        "overall": {
            "bacc_mean": float(bacc.mean()), "bacc_std": float(bacc.std()),
            "f1_mean": float(f1.mean()), "f1_std": float(f1.std()),
            "bacc_formatted": ev.format_mean_std(bacc),
            "f1_formatted": ev.format_mean_std(f1),
            "per_fold": per_fold,
        },
        "median_split": gap,
        "subcohorts": subcohorts,
    }
    _write_json(out / "report.json", report)
    print(json.dumps(_jsonify(report["overall"]), indent=2))
    return EXIT_OK


def _read_table(path, expected_header, casts):
    """Rows of a run CSV, each field converted by the cast of its column; a
    row that does not convert is a DataError naming its line."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != expected_header:
                raise DataError(f"{path}: expected header {','.join(expected_header)}")
            rows = []
            for row in reader:
                if len(row) != len(casts):
                    raise DataError(f"{path}:{reader.line_num}: expected {len(casts)} fields, "
                                    f"got {len(row)}")
                try:
                    rows.append([cast(v) for cast, v in zip(casts, row)])
                except ValueError as exc:
                    raise DataError(f"{path}:{reader.line_num}: {exc}") from None
            return rows
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _read_factors(path):
    """(factor names, finite factor values by subject id) from a run's
    factors.csv; a malformed header, a duplicated subject or a bad row is a
    DataError naming the file and, for a row, its line."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    names = [c[2:] for c in (header or [])[1:]]
    if (not header or header[0] != "subject_id" or len(set(names)) != len(names)
            or not all(c.startswith("f_") and c[2:] for c in header[1:])):
        raise DataError(f"{path}: expected header subject_id,f_<factor>...")
    by_id = {}
    for line, (sid, *values) in enumerate(
            _read_table(path, header, [str] + [float] * len(names)), start=2):
        if sid in by_id:
            raise DataError(f"{path}:{line}: duplicate subject {sid!r}")
        if not all(math.isfinite(v) for v in values):
            raise DataError(f"{path}:{line}: non-finite factor value")
        by_id[sid] = values
    return names, by_id


_SWEEP_DEFAULTS = dict(_TRAIN_DEFAULTS, k_grid="10,30,50,75,100",
                       c_grid="0.5,0.65,0.7,0.75,1.0")
_SWEEP_CASTS = dict(_TRAIN_CASTS, k_grid=str, c_grid=str)


def cmd_sweep(args) -> int:
    cfg = _effective(args, _SWEEP_DEFAULTS, _SWEEP_CASTS)
    base_cfg = _train_config(dict(cfg, scheme="spectral"))
    k_values = _parse_grid(cfg["k_grid"], int)
    c_values = _parse_grid(cfg["c_grid"], float)
    if not k_values or not c_values:
        raise _UsageError("k and c grids must be non-empty")
    data, factors = read_cohort_csv(args.cohort)
    cells = ev.sweep(data, factors, base_cfg, k_values, c_values, n_folds=cfg["folds"])
    out = _out_dir(args.out)
    _write_csv(out / "sweep_grid.csv",
               ["k", "c", "seed", "gap_points", "gap_percent",
                "bacc_high", "bacc_low", "overall_bacc", "degenerate"],
               [[cell.k, _fmt(cell.c), cell.seed, _fmt(cell.gap_points),
                 _fmt(cell.gap_percent),
                 "" if math.isnan(cell.bacc_high) else _fmt(cell.bacc_high),
                 "" if math.isnan(cell.bacc_low) else _fmt(cell.bacc_low),
                 _fmt(cell.overall_bacc), int(cell.degenerate)] for cell in cells])
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
    p_synth.add_argument("--config", help="key=value spec file")
    p_synth.add_argument("--seed", type=int)
    for key in ("n_subjects", "feature_width", "min_visits", "max_visits"):
        p_synth.add_argument(f"--{key.replace('_', '-')}", dest=key, type=int)
    for key in ("signal_strength", "drift_scale", "flip_above", "flip_at_or_below",
                "noise_threshold"):
        p_synth.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float)
    p_synth.add_argument("--noise-factor", dest="noise_factor")
    p_synth.set_defaults(func=cmd_synth)

    p_graph = sub.add_parser("graph", help="build the factor graph and its basis")
    p_graph.add_argument("--cohort", required=True)
    p_graph.add_argument("--out", required=True)
    p_graph.add_argument("--config")
    p_graph.add_argument("--k", type=int)
    p_graph.add_argument("--m")
    p_graph.add_argument("--seed", type=int)
    p_graph.add_argument("--dump-graph", action="store_true")
    p_graph.set_defaults(func=cmd_graph)

    p_train = sub.add_parser("train", help="cross-validated weighted training")
    p_train.add_argument("--cohort", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--config")
    p_train.add_argument("--scheme", choices=tr.SCHEMES)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr-model", dest="lr_model", type=float)
    p_train.add_argument("--lr-a", dest="lr_a", type=float)
    p_train.add_argument("--batch", type=int)
    p_train.add_argument("--folds", type=int)
    p_train.add_argument("--k", type=int)
    p_train.add_argument("--c", type=float)
    p_train.add_argument("--m")
    p_train.add_argument("--jtt-lambda", dest="jtt_lambda", type=float)
    p_train.add_argument("--seed", type=int)
    p_train.set_defaults(func=cmd_train)

    p_report = sub.add_parser("report", help="summarize a training run directory")
    p_report.add_argument("--run", required=True)
    p_report.add_argument("--out")
    p_report.set_defaults(func=cmd_report)

    p_sweep = sub.add_parser("sweep", help="neighbor/centering grid of gap metrics")
    p_sweep.add_argument("--cohort", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--k", dest="k_grid")
    p_sweep.add_argument("--c", dest="c_grid")
    p_sweep.add_argument("--epochs", type=int)
    p_sweep.add_argument("--lr-model", dest="lr_model", type=float)
    p_sweep.add_argument("--lr-a", dest="lr_a", type=float)
    p_sweep.add_argument("--batch", type=int)
    p_sweep.add_argument("--folds", type=int)
    p_sweep.add_argument("--m")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "m", None) is not None and isinstance(args.m, str):
            try:
                args.m = _parse_m(args.m)
            except ValueError as exc:
                raise _UsageError(str(exc)) from None
        return args.func(args)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
