"""The three benchmark workloads, each driven through the specweight CLI.

A workload has a set-up (cohort generation), a primary operation that is
timed in a closed loop (one `train` command, or one pass of `graph` commands
over the K grid), optionally a cheap secondary operation (`report`), and
checks on every output those commands write.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from pathlib import Path

import numpy as np

K_GRID = (10, 30, 50, 75, 100)
SPECTRUM_RTOL = 1e-9   # of the largest eigenvalue; Jacobi and LAPACK agree to ~1e-13
PAPER_FLAGS = ["--k", "50", "--c", "0.65", "--m", "auto", "--batch", "32", "--folds", "5"]


class CheckFailed(Exception):
    """An output of a command that exited 0 is wrong."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def run_cli(sw, *argv) -> tuple[float, float]:
    """Run one specweight command in this process; return its (start, end)
    on the perf_counter clock.

    Output is captured so the benchmark's own stdout stays parseable; a
    non-zero exit raises CheckFailed with the command's stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = sw.cli.main([str(a) for a in argv])
        t1 = time.perf_counter()
    check(code == 0, f"specweight {argv[0]} exited {code}: {err.getvalue().strip()}")
    return t0, t1


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


class Workload:
    name = ""
    synth_flags: list[str] = []
    has_reports = False
    min_primary_ops = 1
    # Layers the traced run must see, and layers it must never see.
    uses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()

    def synth(self, sw, out: Path, seed: int) -> dict:
        return {"spans": [run_cli(sw, "synth", "--out", out, "--seed", seed, *self.synth_flags)]}

    def prepare(self, sw, cohort: Path) -> None:
        """Untimed work the checks need, done before any timed operation."""

    def primary(self, sw, cohort: Path, out: Path) -> dict:
        raise NotImplementedError

    def check_primary(self, out: Path, first: Path | None) -> None:
        raise NotImplementedError


class TrainWorkload(Workload):
    has_reports = True
    min_primary_ops = 2   # run bytes are compared between operations

    def __init__(self, name, synth_flags, scheme, epochs, mean_weight, degenerate_split,
                 uses, bypasses):
        self.name = name
        self.synth_flags = synth_flags
        self.scheme = scheme
        self.epochs = epochs
        self.mean_weight = mean_weight
        self.degenerate_split = degenerate_split
        self.uses = uses
        self.bypasses = bypasses

    def primary(self, sw, cohort, out):
        span = run_cli(sw, "train", "--cohort", cohort, "--out", out, "--scheme", self.scheme,
                       "--epochs", self.epochs, *PAPER_FLAGS)
        with open(out / "predictions.csv", newline="", encoding="utf-8") as fh:
            train_rows = sum(1 for r in csv.DictReader(fh) if r["split"] == "train")
        return {"spans": [span], "fit_subjects": train_rows * self.epochs}

    def check_primary(self, out, first):
        preds = _rows(out / "predictions.csv")
        test_rows: dict[str, int] = {}
        for r in preds:
            p = float(r["prob"])
            check(math.isfinite(p) and 0.0 <= p <= 1.0, f"probability {p} outside [0, 1]")
            if r["split"] == "test":
                test_rows[r["subject_id"]] = test_rows.get(r["subject_id"], 0) + 1
        subjects = {r["subject_id"] for r in preds}
        check(all(test_rows.get(s) == 1 for s in subjects),
              "some subject does not have exactly one test row")
        by_fold: dict[str, list[float]] = {}
        for r in _rows(out / "weights.csv"):
            by_fold.setdefault(r["fold"], []).append(float(r["weight"]))
        for fold, w in by_fold.items():
            check(len(w) == len(subjects), f"fold {fold} has {len(w)} weights")
            check(abs(sum(w) / len(w) - self.mean_weight) <= 1e-9,
                  f"fold {fold} mean weight {sum(w) / len(w)!r} != {self.mean_weight}")
        if first is not None:
            check(dir_bytes(out) == dir_bytes(first), f"{out.name} bytes differ from {first.name}")

    def report(self, sw, run_dir, out):
        return {"spans": [run_cli(sw, "report", "--run", run_dir, "--out", out)]}

    def check_report(self, run_dir, out, first_report: bytes | None) -> dict:
        text = (out / "report.json").read_bytes()
        report = json.loads(text)
        split = report["median_split"]
        check(split["degenerate"] == self.degenerate_split,
              f"median split degenerate={split['degenerate']}")
        fold_bacc = json.loads((run_dir / "run_summary.json").read_text())["fold_bacc"]
        bacc = report["overall"]["bacc_mean"]
        check(abs(bacc - sum(fold_bacc) / len(fold_bacc)) <= 1e-12,
              "report bacc differs from the training run's fold mean")
        if first_report is not None:
            check(text == first_report, "report bytes differ between operations")
        return {"cv_bacc": bacc, "gap_points": split["gap_points"], "bytes": text}


class GraphWorkload(Workload):
    name = "graph_kgrid"
    uses = ("cli", "synth", "dataset", "factor_graph", "linalg")
    bypasses = ("predictor", "training", "weight_field", "evaluation")

    def __init__(self):
        self.trace_l: dict[int, float] = {}
        self.spectrum: dict[int, np.ndarray] = {}
        self.m_used: dict[int, int] = {}

    def prepare(self, sw, cohort):
        """Reference results per K, from numpy's LAPACK eigensolver on the
        Laplacian that `factor_graph` builds from the same factors, so that
        every pass, the first one included, is checked against them."""
        fg = sw.factor_graph
        _, factors = sw.dataset.read_cohort_csv(cohort)
        z = fg.standardize(factors)
        for k in K_GRID:
            graph = fg.build_graph(z, k)
            # trace(Deg - A) is the sum of all edge weights.
            self.trace_l[k] = float(graph.adjacency.sum())
            lam = np.linalg.eigvalsh(fg.laplacian(graph))
            self.spectrum[k] = lam
            self.m_used[k] = fg.select_m_changepoint(lam[lam > fg.NULL_SPACE_TOL])

    def primary(self, sw, cohort, out):
        spans = [run_cli(sw, "graph", "--cohort", cohort, "--out", out / f"k{k}",
                         "--k", k, "--m", "auto") for k in K_GRID]
        return {"spans": spans}

    def check_primary(self, out, first):
        for k in K_GRID:
            d = out / f"k{k}"
            lam = np.array([float(r["eigenvalue"]) for r in _rows(d / "eigenspectrum.csv")])
            ref = self.spectrum[k]
            check(lam.shape == ref.shape, f"K={k}: {lam.size} eigenvalues, expected {ref.size}")
            check(bool(np.all(np.diff(lam) >= 0.0)), f"K={k}: spectrum not ascending")
            check(abs(lam.sum() - self.trace_l[k]) <= 1e-9 * self.trace_l[k],
                  f"K={k}: eigenvalue sum {lam.sum()!r} != trace(L) {self.trace_l[k]!r}")
            err = float(np.max(np.abs(lam - ref)))
            check(err <= SPECTRUM_RTOL * float(np.max(np.abs(ref))),
                  f"K={k}: spectrum differs from numpy's eigvalsh by {err!r}")
            m_used = json.loads((d / "graph_summary.json").read_text())["m_used"]
            check(m_used == self.m_used[k],
                  f"K={k}: m_used {m_used} != {self.m_used[k]} from the reference spectrum")
            if first is not None:
                check(dir_bytes(d) == dir_bytes(first / f"k{k}"), f"K={k}: bytes differ")


def make(name: str) -> Workload:
    if name == "cv_spectral":
        return TrainWorkload(
            name, [], "spectral", 20, 0.65, degenerate_split=False,
            uses=("cli", "synth", "dataset", "factor_graph", "linalg", "predictor",
                  "training", "weight_field", "evaluation"),
            bypasses=())
    if name == "longseq_none":
        return TrainWorkload(
            name, ["--max-visits", "24"], "none", 1, 1.0, degenerate_split=True,
            uses=("cli", "synth", "dataset", "predictor", "training", "evaluation"),
            bypasses=("linalg", "factor_graph", "weight_field"))
    if name == "graph_kgrid":
        return GraphWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cv_spectral", "graph_kgrid", "longseq_none")
