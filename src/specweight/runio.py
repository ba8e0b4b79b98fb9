"""The run directory: `save_run` writes a `CVRun` and `load_run` reads it
back. csv writes each Python float as `repr(float)`, so a round trip keeps
every bit. The README's "Run directory layout" describes the files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .dataset import by_subject, fixed_header, read_table, write_csv
from .errors import DataError
from .evaluation import CVRun
from .predictor import RecurrentClassifier, save_checkpoint

PREDICTIONS = ["subject_id", "fold", "split", "y_true", "prob"]
WEIGHTS = ["subject_id", "fold", "split", "weight"]


def jsonify(obj):
    """`obj` for json.dumps: numpy arrays and scalars unwrapped, NaN as None."""
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def write_json(path, obj):
    Path(path).write_text(json.dumps(jsonify(obj), indent=2) + "\n", encoding="utf-8")


def _label(text: str) -> int:
    if text not in ("0", "1"):
        raise ValueError(f"y_true must be 0 or 1, got {text!r}")
    return int(text)


def _split(text: str) -> str:
    if text not in ("train", "test"):
        raise ValueError(f"split must be train or test, got {text!r}")
    return text


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def save_run(out: Path, run: CVRun, subject_ids, factors, cfg: dict, cohort):
    """Write `run` (with its checkpoints) to the directory `out`, and return
    the per-fold (BACC, F1) that run_summary.json records."""
    bacc, f1 = run.scores()
    weight_rows, pred_rows = [], []
    labels, probs, weights = run.labels.tolist(), run.probs.tolist(), run.weights.tolist()
    for fold in range(run.n_folds):
        for i, sid in enumerate(subject_ids):
            split = "test" if run.folds[i] == fold else "train"
            if math.isfinite(weights[fold][i]):
                weight_rows.append([sid, fold, split, weights[fold][i]])
            pred_rows.append([sid, fold, split, labels[i], probs[fold][i]])
    write_csv(out / "weights.csv", WEIGHTS, weight_rows)
    write_csv(out / "predictions.csv", PREDICTIONS, pred_rows)
    write_csv(out / "factors.csv", ["subject_id"] + [f"f_{n}" for n in factors.factor_names],
              [[sid] + row for sid, row in zip(subject_ids, factors.values.tolist())])
    for manifest in run.manifests:
        write_json(out / f"manifest_fold{manifest['fold']}.json", manifest)
    write_json(out / "run_summary.json", {
        "scheme": run.scheme,
        "seed": run.seed,
        "n_folds": run.n_folds,
        "cohort": str(cohort),
        "config": cfg,
        "fold_bacc": list(bacc),
        "fold_f1": list(f1),
    })
    for fold, model in enumerate(run.models):
        if isinstance(model, RecurrentClassifier):
            save_checkpoint(model, out / f"model_fold{fold}.bin")
    return bacc, f1


def load_run(run_dir):
    """(CVRun, subject ids, factor names, factor values, summary) of a run
    directory, with one factor row per subject. A subject's index is its
    first appearance in predictions.csv, where it needs exactly one test row,
    and each fold needs test rows of both classes. Each file holds at most one
    row per (fold, subject), whose split is train or test, and a weights.csv
    row's split agrees with predictions.csv. Each (fold, subject) entry the
    files do not hold is NaN. A file that breaks the format is a DataError
    naming it. Manifests and checkpoints are not read.
    """
    run_dir = Path(run_dir)
    summary = _read_run_summary(run_dir / "run_summary.json")
    _, preds = read_table(run_dir / "predictions.csv",
                          fixed_header(PREDICTIONS, [str, int, _split, _label, float]),
                          key=_subject_fold)
    _, weights = read_table(run_dir / "weights.csv",
                            fixed_header(WEIGHTS, [str, int, _split, _finite]), key=_subject_fold)
    header, factor_columns = read_table(run_dir / "factors.csv", _factor_casts, key=by_subject)
    factor_names = [c[2:] for c in header[1:]]
    factors_by_id = {sid: values for sid, *values in zip(*factor_columns)}
    n_folds = summary["n_folds"]
    for name, columns in (("predictions.csv", preds), ("weights.csv", weights)):
        bad = next((f for f in columns[1] if not 0 <= f < n_folds), None)
        if bad is not None:
            raise DataError(f"{run_dir / name}: fold {bad} is outside 0..{n_folds - 1} "
                            f"(run_summary.json has n_folds {n_folds})")

    sids, fold, split, y, prob = preds
    index = {sid: i for i, sid in enumerate(dict.fromkeys(sids))}
    subject_ids, row = list(index), np.array([index[sid] for sid in sids], dtype=np.int64)
    fold, test = np.array(fold, dtype=np.int64), np.array(split, dtype=str) == "test"
    n_test = np.bincount(row[test], minlength=len(index))
    if np.any(n_test != 1):
        i = int(np.argmax(n_test != 1))
        raise DataError(f"{run_dir / 'predictions.csv'}: subject {subject_ids[i]!r} has "
                        f"{n_test[i]} test rows, expected exactly one")
    unknown = next((sid for sid in weights[0] if sid not in index), None)
    if unknown is not None:
        raise DataError(f"{run_dir / 'weights.csv'}: subject {unknown!r} has no row in "
                        "predictions.csv")

    folds, labels = np.empty((2, len(index)), dtype=np.int64)
    folds[row[test]], labels[row[test]] = fold[test], np.array(y)[test]
    by_class = np.bincount(2 * folds + labels, minlength=2 * n_folds).reshape(n_folds, 2)
    f = int(np.argmin(by_class.min(axis=1)))
    if by_class[f].min() == 0:
        raise DataError(f"{run_dir / 'predictions.csv'}: fold {f} has {by_class[f, 0]} class-0 "
                        f"and {by_class[f, 1]} class-1 test rows; it needs both classes")
    weight_row = np.array([index[sid] for sid in weights[0]], dtype=np.int64)
    wrong = np.flatnonzero((folds[weight_row] == weights[1])
                           != (np.array(weights[2], dtype=str) == "test"))
    if wrong.size:
        i = wrong[0]
        raise DataError(f"{run_dir / 'weights.csv'}: subject {weights[0][i]!r} in fold "
                        f"{weights[1][i]} is split {weights[2][i]!r}, but predictions.csv "
                        f"tests it in fold {folds[weight_row[i]]}")
    probs, weight = np.full((2, n_folds, len(index)), np.nan)
    probs[fold, row] = prob
    weight[weights[1], weight_row] = weights[3]
    run = CVRun(summary["scheme"], summary["seed"], folds, labels, probs, weight)

    order, test_fold, _, _, test_weight = run.pooled_test()
    missing = next((subject_ids[i] for i in order if subject_ids[i] not in factors_by_id), None)
    if missing is not None:
        raise DataError(f"{run_dir / 'factors.csv'}: no row for subject {missing!r}")
    unweighted = np.flatnonzero(np.isnan(test_weight))
    if unweighted.size and run.scheme != "jtt":  # jtt defines no test weights
        i = unweighted[0]
        raise DataError(f"{run_dir / 'weights.csv'}: no weight for test subject "
                        f"{subject_ids[order[i]]!r} in fold {test_fold[i]}")
    factor_values = np.array([factors_by_id[sid] for sid in subject_ids], dtype=np.float64)
    return run, subject_ids, factor_names, factor_values, summary


def _subject_fold(row) -> str:
    return f"{by_subject(row)} in fold {row[1]}"


def _read_run_summary(path) -> dict:
    """The run's summary; anything but a JSON object with scheme, seed and an
    integer n_folds >= 2 is a DataError naming the file."""
    try:
        summary = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"not a run directory: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not (isinstance(summary, dict) and "scheme" in summary and "seed" in summary
            and type(summary.get("n_folds")) is int and summary["n_folds"] >= 2):
        raise DataError(f"{path}: expected a JSON object with scheme, seed and an "
                        "integer n_folds >= 2")
    return summary


def _factor_casts(header):
    """read_table's casts for a run's factors.csv: a subject id, then one
    finite value per factor, each named once in the header."""
    names = [c[2:] for c in (header or [])[1:]]
    if (not header or header[0] != "subject_id" or len(set(names)) != len(names)
            or not all(c.startswith("f_") and c[2:] for c in header[1:])):
        raise ValueError("expected header subject_id,f_<factor>...")
    return [str] + [_finite] * len(names)
