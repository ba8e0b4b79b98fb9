import builtins
import csv
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import logistic_factory
from specweight.cli import main
from specweight.errors import DataError
from specweight.evaluation import cross_validate
from specweight.runio import load_run, save_run
from specweight.training import TrainConfig


@pytest.fixture(scope="module", params=["spectral", "jtt"])
def saved_run(request, tiny_cohort, tmp_path_factory):
    """(in-memory run, its directory, cohort) for a 3-fold LogisticFallback run."""
    data, factors, _ = tiny_cohort
    cfg = TrainConfig(scheme=request.param, epochs=1, lr_model=5e-2, lr_a=1e-3, batch_size=16,
                      k_neighbors=8, m_basis=4, seed=12)
    run = cross_validate(data, factors, cfg, n_folds=3, model_factory=logistic_factory)
    out = tmp_path_factory.mktemp(f"run_{request.param}")
    save_run(out, run, data.subject_ids, factors, asdict(cfg), "cohort.csv")
    return run, out, tiny_cohort


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def copy_run(src, dst, edits):
    """Copy of the run directory `src` at `dst`, with `edits[name](rows)`
    replacing the rows (header included) of the CSV file `name`."""
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    for name, edit in edits.items():
        write_rows(dst / name, edit(read_rows(dst / name)))
    return dst


def test_round_trip_is_bit_identical(saved_run):
    run, out, (data, factors, _) = saved_run
    got, subject_ids, names, values, summary = load_run(out)
    for name in ("probs", "weights", "folds", "labels"):
        want, have = getattr(run, name), getattr(got, name)
        assert have.dtype == want.dtype and have.shape == want.shape, name
        assert have.tobytes() == want.tobytes(), name
    assert np.array_equal(np.isnan(got.weights), np.isnan(run.weights))
    assert (run.scheme == "jtt") == bool(np.isnan(run.weights).any())
    assert subject_ids == data.subject_ids
    assert names == list(factors.factor_names)
    assert values.tobytes() == factors.values.tobytes()
    assert (got.scheme, got.seed, summary["n_folds"]) == (run.scheme, run.seed, 3)
    for want, have in zip(run.pooled_test(), got.pooled_test(), strict=True):
        assert have.tobytes() == want.tobytes()


def test_test_only_directory_reports_like_the_full_one(saved_run, tmp_path):
    """A directory that holds only the test rows reads with NaN train
    entries, and `report` writes the same bytes as for the full directory."""
    run, out, (data, _, _) = saved_run
    keep_test = {name: lambda rows: rows[:1] + [r for r in rows[1:] if r[2] == "test"]
                 for name in ("predictions.csv", "weights.csv")}
    test_only = copy_run(out, tmp_path / "test_only", keep_test)
    got, subject_ids = load_run(test_only)[:2]
    # Subjects are indexed by first appearance: here fold by fold.
    cols = [data.subject_ids.index(sid) for sid in subject_ids]
    assert np.array_equal(subject_ids, np.array(data.subject_ids)[run.pooled_test()[0]])
    assert got.folds.tobytes() == run.folds[cols].tobytes()
    test = got.folds[None, :] == np.arange(3)[:, None]
    assert np.all(np.isnan(got.probs[~test])) and np.all(np.isnan(got.weights[~test]))
    assert got.probs[test].tobytes() == run.probs[:, cols][test].tobytes()
    assert np.array_equal(got.weights[test], run.weights[:, cols][test], equal_nan=True)

    assert main(["report", "--run", str(out), "--out", str(tmp_path / "full")]) == 0
    assert main(["report", "--run", str(test_only), "--out", str(tmp_path / "part")]) == 0
    for path in sorted((tmp_path / "full").iterdir()):
        assert (tmp_path / "part" / path.name).read_bytes() == path.read_bytes(), path.name


def first_test_row(rows):
    return rows[next(i for i, r in enumerate(rows) if r[2] == "test")]


def first_train_row(rows):
    return rows[next(i for i, r in enumerate(rows) if r[2] == "train")]


def one_class_fold_1(rows):
    """Every test row of fold 1 relabelled as class 1."""
    return [r[:3] + ["1"] + r[4:] if r[1:3] == ["1", "test"] else r for r in rows]


def fold_2_tested_in_fold_0(rows):
    """Every test row of fold 2 moved to fold 0, in place of its subject's
    fold-0 train row, which leaves fold 2 none."""
    moved = {r[0] for r in rows if r[1:3] == ["2", "test"]}
    return [r[:1] + ["0"] + r[2:] if r[1:3] == ["2", "test"] else r for r in rows
            if not (r[0] in moved and r[1:3] == ["0", "train"])]


def with_split(pick, split):
    """An edit that sets the split of the row `pick(rows)` to `split`."""
    def edit(rows):
        picked = pick(rows)
        return [r[:2] + [split] + r[3:] if r is picked else r for r in rows]
    return edit


def train_row_in_own_test_fold(rows):
    """A train row for the first test row's subject in its own test fold."""
    r = first_test_row(rows)
    return rows + [r[:2] + ["train", r[3], "0.123"]]


@pytest.mark.parametrize("name, edit, message", [
    ("predictions.csv", with_split(first_train_row, "test"),
     r"predictions.csv: subject 'S\d+' has 2 test rows, expected exactly one"),
    ("predictions.csv", lambda rows: [r for r in rows if r is not first_test_row(rows)],
     r"predictions.csv: subject 'S\d+' has 0 test rows, expected exactly one"),
    ("weights.csv", lambda rows: rows + [["X999", "0", "train", "1.0"]],
     "weights.csv: subject 'X999' has no row in predictions.csv"),
    ("weights.csv", lambda rows: rows[:1] + [rows[1][:3] + ["nan"]] + rows[2:],
     "weights.csv:2: non-finite value 'nan'"),
    ("predictions.csv", lambda rows: rows[:1] + [rows[1][:3] + ["9" * 24, "0.5"]] + rows[2:],
     "predictions.csv:2: y_true must be 0 or 1"),
    ("weights.csv", lambda rows: rows + [rows[1][:3] + ["123.0"]],
     r"weights.csv:\d+: duplicate subject 'S\d+' in fold 0"),
    ("predictions.csv", lambda rows: rows + [first_train_row(rows)],
     r"predictions.csv:\d+: duplicate subject 'S\d+' in fold \d"),
    ("predictions.csv", one_class_fold_1,
     r"predictions.csv: fold 1 has 0 class-0 and \d+ class-1 test rows; it needs both classes"),
    ("predictions.csv", fold_2_tested_in_fold_0,
     "predictions.csv: fold 2 has 0 class-0 and 0 class-1 test rows; it needs both classes"),
    ("predictions.csv", lambda rows: rows + [first_test_row(rows)],
     r"predictions.csv:\d+: duplicate subject 'S\d+' in fold \d"),
    ("predictions.csv", train_row_in_own_test_fold,
     r"predictions.csv:\d+: duplicate subject 'S\d+' in fold \d"),
    ("predictions.csv", with_split(first_train_row, "trian"),
     r"predictions.csv:\d+: split must be train or test, got 'trian'"),
    ("weights.csv", with_split(first_train_row, "banana"),
     r"weights.csv:\d+: split must be train or test, got 'banana'"),
    ("weights.csv", with_split(first_train_row, "test"),
     r"weights.csv: subject 'S\d+' in fold (\d) is split 'test', but predictions.csv tests it "
     r"in fold (?!\1)\d"),
], ids=["second-test-row", "no-test-row", "unknown-weight-subject", "nan-weight", "huge-label",
        "repeated-weight-row", "repeated-train-row", "one-class-fold", "fold-without-test-rows",
        "repeated-test-row", "train-row-in-own-test-fold", "misspelt-split", "unknown-weight-split",
        "weight-split-disagrees"])
def test_broken_format_is_data_error_naming_the_file(saved_run, tmp_path, capsys, name, edit,
                                                     message):
    _, out, _ = saved_run
    broken = copy_run(out, tmp_path / "broken", {name: edit})
    with pytest.raises(DataError, match=message):
        load_run(broken)
    assert main(["report", "--run", str(broken)]) == 2
    assert capsys.readouterr().err.startswith(f"data error: {broken / name}")


def test_report_reads_no_manifest(saved_run, tmp_path):
    run, out, _ = saved_run
    copy = copy_run(out, tmp_path / "copy", {})
    for path in copy.glob("manifest_fold*.json"):
        path.write_text("not json")
    assert main(["report", "--run", str(copy)]) == 0
    assert json.loads((copy / "report.json").read_text())["n_folds"] == run.n_folds


def test_load_run_opens_factors_once(saved_run, monkeypatch):
    """factors.csv is read in one pass: its header and rows share one open."""
    _, out, _ = saved_run
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(Path(file).name)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    load_run(out)
    assert opened.count("factors.csv") == 1
