import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specweight
from conftest import FailsIn, assert_no_child_process
from specweight import blas
from specweight import evaluation as ev
from specweight.cli import build_parser, main
from specweight.dataset import read_cohort_csv
from specweight.errors import DataError, NumericalError
from specweight.factor_graph import basis_from_factors
from specweight.predictor import load_checkpoint
from specweight.synth import SynthSpec
from specweight.training import TrainConfig


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


SRC = str(Path(specweight.__file__).resolve().parents[1])


def run_at_threads(args, threads, out):
    """Run the CLI in a subprocess with every BLAS thread variable set to
    `threads`; return the bytes of each file it wrote to `out`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    subprocess.run(
        [sys.executable, "-c", "import sys; from specweight.cli import main; sys.exit(main())",
         *args, "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=120)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def run_cli(*args):
    """Run the CLI entry point in a subprocess; return the completed process."""
    return subprocess.run(
        [sys.executable, "-c", "from specweight.cli import entrypoint; entrypoint()",
         *[str(a) for a in args]],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)


def edit_csv_rows(path, edit):
    """Rewrite the CSV file `path` after `edit(rows)` changes its rows in
    place (header excluded)."""
    rows = read_csv(path)
    body = rows[1:]
    edit(body)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows[:1] + body)


def set_field(row, column, value):
    """An `edit_csv_rows` edit that sets one field of one row."""
    def edit(rows):
        rows[row][column] = value
    return edit


def assert_data_error(proc):
    assert proc.returncode == 2
    assert proc.stderr.startswith("data error:")
    assert "Traceback" not in proc.stderr


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    rc = main(["synth", "--out", str(out), "--n-subjects", "60",
               "--feature-width", "6", "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def graph_thread_runs(tmp_path_factory):
    """Files of `graph --k 30` on a 400-subject cohort, keyed by (dump_graph,
    BLAS threads, repeat); 400 subjects are enough for threaded LAPACK to
    change the last bits."""
    tmp = tmp_path_factory.mktemp("graph_threads")
    assert main(["synth", "--out", str(tmp / "cohort"), "--n-subjects", "400",
                 "--feature-width", "4", "--seed", "3"]) == 0
    args = ["graph", "--cohort", str(tmp / "cohort" / "cohort.csv"), "--k", "30"]
    return {(dump, t, rep): run_at_threads(args + ["--dump-graph"] * dump, t,
                                           tmp / f"d{int(dump)}_t{t}_{rep}")
            for dump in (True, False) for t in (1, 2) for rep in (0, 1)}


def spectrum(files):
    """The eigenvalues of an `eigenspectrum.csv` among `files` (name -> bytes)."""
    rows = list(csv.reader(files["eigenspectrum.csv"].decode().splitlines()))
    return np.array([float(r[1]) for r in rows[1:]])


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, cohort_dir):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--cohort", str(cohort_dir / "cohort.csv"), "--out", str(out),
               "--scheme", "spectral", "--epochs", "2", "--k", "8", "--m", "4",
               "--batch", "16", "--seed", "4"])
    assert rc == 0
    return out


class TestSynth:
    def test_default_spec_writes_full_cohort(self, tmp_path):
        rc = main(["synth", "--out", str(tmp_path), "--seed", "1"])
        assert rc == 0
        rows = read_csv(tmp_path / "cohort.csv")
        ids = {r[0] for r in rows[1:]}
        assert len(ids) == 400
        assert rows[0][:3] == ["subject_id", "visit", "y"]

    def test_seed_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(a), "--n-subjects", "30",
                     "--feature-width", "5", "--seed", "3"]) == 0
        assert main(["synth", "--out", str(b), "--n-subjects", "30",
                     "--feature-width", "5", "--seed", "3"]) == 0
        assert (a / "cohort.csv").read_bytes() == (b / "cohort.csv").read_bytes()
        assert (a / "groups.csv").read_bytes() == (b / "groups.csv").read_bytes()

    @pytest.mark.parametrize("module", ["specweight", "specweight.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        flags = ["synth", "--n-subjects", "30", "--seed", "3", "--out"]
        assert main(flags + [str(tmp_path / "direct")]) == 0
        subprocess.run([sys.executable, "-m", module, *flags, str(tmp_path / "m")],
                       env=dict(os.environ, PYTHONPATH=SRC), check=True, capture_output=True,
                       timeout=120)
        for name in ("cohort.csv", "groups.csv", "synth_summary.json"):
            direct = (tmp_path / "direct" / name).read_bytes()
            assert (tmp_path / "m" / name).read_bytes() == direct

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--flip-above", "0.9"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("values, message", [
        ({"flip_above": "0.9"}, "flip probabilities must lie in [0, 0.5), got 0.9"),
        ({"flip_at_or_below": "-0.1"}, "flip probabilities must lie in [0, 0.5), got -0.1"),
        ({"n_subjects": "1", "flip_above": "0.5"},
         "flip probabilities must lie in [0, 0.5), got 0.5"),
        ({"n_subjects": "1"}, "n_subjects must be >= 2"),
        ({"feature_width": "1"}, "feature_width must be >= 2"),
        ({"min_visits": "0"}, "visit range must satisfy 1 <= min <= max"),
        ({"min_visits": "3", "max_visits": "2"}, "visit range must satisfy 1 <= min <= max"),
        ({"noise_factor": "nope"}, "noise factor 'nope' is not a declared factor"),
        ({"signal_strength": "-1"}, "signal_strength and drift_scale must be >= 0"),
        ({"drift_scale": "-0.5"}, "signal_strength and drift_scale must be >= 0"),
        ({"signal_strength": "nan"}, "signal_strength must be finite, got nan"),
        ({"drift_scale": "inf"}, "drift_scale must be finite, got inf"),
        ({"noise_threshold": "nan"}, "noise_threshold must be finite, got nan"),
        ({"signal_strength": "-inf"}, "signal_strength must be finite, got -inf"),
    ], ids=["flip-above", "flip-at-or-below", "flip-checked-first", "n-subjects",
            "feature-width", "min-visits", "visit-order", "noise-factor", "signal-strength",
            "drift-scale", "signal-strength-nan", "drift-scale-inf", "noise-threshold-nan",
            "signal-strength-minus-inf"])
    def test_each_spec_check_is_usage_error(self, tmp_path, capsys, source, values, message):
        """Every SynthSpec check a setting can reach exits 1 with its own
        message and writes nothing. (`factors` is not a setting, so its two
        checks are test_synth's.)"""
        if source == "flag":
            flags = [f"--{key.replace('_', '-')}={value}" for key, value in values.items()]
        else:
            (tmp_path / "spec.cfg").write_text("".join(f"{k}={v}\n" for k, v in values.items()))
            flags = ["--config", str(tmp_path / "spec.cfg")]
        assert main(["synth", "--out", str(tmp_path / "out"), *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "spec.cfg"
        cfgfile.write_text("n_subjects=25\nfeature_width=4\nseed=5\n# comment\n")
        out = tmp_path / "out"
        assert main(["synth", "--out", str(out), "--config", str(cfgfile),
                     "--n-subjects", "30"]) == 0
        rows = read_csv(out / "cohort.csv")
        assert len({r[0] for r in rows[1:]}) == 30  # flag beats config

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "spec.cfg"
        cfgfile.write_text("bogus=1\n")
        assert main(["synth", "--out", str(tmp_path / "o"), "--config", str(cfgfile)]) == 2


class TestGraph:
    def test_auto_m_and_spectrum(self, cohort_dir, tmp_path):
        rc = main(["graph", "--cohort", str(cohort_dir / "cohort.csv"),
                   "--out", str(tmp_path), "--k", "8"])
        assert rc == 0
        summary = json.loads((tmp_path / "graph_summary.json").read_text())
        assert summary["m_requested"] == "auto"
        assert 2 <= summary["m_used"] <= 50
        spectrum = read_csv(tmp_path / "eigenspectrum.csv")
        assert spectrum[0] == ["rank", "eigenvalue"]
        assert len(spectrum) - 1 == summary["n_samples"]

    def test_dump_graph_artifacts(self, cohort_dir, tmp_path):
        rc = main(["graph", "--cohort", str(cohort_dir / "cohort.csv"),
                   "--out", str(tmp_path), "--k", "8", "--m", "3", "--dump-graph"])
        assert rc == 0
        for name in ("adjacency.csv", "laplacian.csv", "basis.csv"):
            assert (tmp_path / name).exists()
        basis_rows = read_csv(tmp_path / "basis.csv")
        assert basis_rows[0] == ["subject_id", "e0", "e1", "e2"]

    def test_disconnected_warning(self, tmp_path, capsys):
        # two factor clusters so far apart that k=1 leaves two components
        lines = ["subject_id,visit,y,f_g,x_0"]
        for i in range(4):
            g = 0.0 if i < 2 else 500.0
            lines.append(f"S{i},0,{i % 2},{g + i},{0.1 * i}")
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("\n".join(lines) + "\n")
        rc = main(["graph", "--cohort", str(cohort), "--out", str(tmp_path / "g"),
                   "--k", "1", "--m", "1"])
        assert rc == 0
        assert "has 2 connected components\n" in capsys.readouterr().err
        summary = json.loads((tmp_path / "g" / "graph_summary.json").read_text())
        assert summary["n_components"] == 2
        assert summary["n_null_eigenvalues"] == 2

    def test_component_and_null_count_mismatch_warns(self, cohort_dir, tmp_path, capsys,
                                                     monkeypatch):
        import specweight.cli as cli

        def one_extra_null(*args, **kwargs):
            basis, info = basis_from_factors(*args, **kwargs)
            return basis, dict(info, n_null=info["n_components"] + 1)

        monkeypatch.setattr(cli, "basis_from_factors", one_extra_null)
        rc = main(["graph", "--cohort", str(cohort_dir / "cohort.csv"),
                   "--out", str(tmp_path), "--k", "8", "--m", "2"])
        assert rc == 0
        assert "1 connected components but 2 null Laplacian eigenvalues" in capsys.readouterr().err
        summary = json.loads((tmp_path / "graph_summary.json").read_text())
        assert (summary["n_components"], summary["n_null_eigenvalues"]) == (1, 2)

    def test_auto_m_on_too_small_graph_is_data_error(self, tmp_path, capsys):
        # 2 subjects, k=1: one edge, so a single non-null eigenvalue
        assert main(["synth", "--out", str(tmp_path), "--n-subjects", "2", "--seed", "1"]) == 0
        rc = main(["graph", "--cohort", str(tmp_path / "cohort.csv"),
                   "--out", str(tmp_path / "g"), "--k", "1"])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("position, bad_row", [(3, ""), (None, ""), (3, "S_short,0")],
                             ids=["blank", "trailing-blank", "short"])
    def test_blank_or_short_row_is_data_error(self, cohort_dir, tmp_path, position, bad_row):
        lines = (cohort_dir / "cohort.csv").read_text().splitlines()
        lines.insert(len(lines) if position is None else position, bad_row)
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("\n".join(lines) + "\n")
        assert_data_error(run_cli("graph", "--cohort", cohort, "--out", tmp_path / "g",
                                  "--k", "8"))

    def test_thread_count_determinism_scope(self, graph_thread_runs):
        """Byte-identical at a fixed BLAS thread count; equal to rounding across
        counts; for the eigenvector solve (--dump-graph) and the values-only one."""
        for dump in (True, False):
            runs = {key[1:]: files for key, files in graph_thread_runs.items()
                    if key[0] == dump}
            for t in (1, 2):
                assert runs[(t, 0)] == runs[(t, 1)]
            lam1, lam2 = spectrum(runs[(1, 0)]), spectrum(runs[(2, 0)])
            assert np.max(np.abs(lam1 - lam2)) <= 1e-12 * np.max(lam1)
            m_used = [json.loads(runs[(t, 0)]["graph_summary.json"])["m_used"] for t in (1, 2)]
            assert m_used[0] == m_used[1]

    def test_values_only_solve_matches_dump_graph(self, graph_thread_runs):
        """Plain graph (eigenvalues only) reports the counts of graph
        --dump-graph (eigenpairs), with the spectrum equal to rounding."""
        for t in (1, 2):
            plain, dump = graph_thread_runs[(False, t, 0)], graph_thread_runs[(True, t, 0)]
            assert sorted(plain) == ["eigenspectrum.csv", "graph_summary.json"]
            s_plain, s_dump = (json.loads(r["graph_summary.json"]) for r in (plain, dump))
            for key in ("m_used", "n_null_eigenvalues", "n_components", "n_samples"):
                assert s_plain[key] == s_dump[key], key
            lam_plain, lam_dump = spectrum(plain), spectrum(dump)
            assert np.max(np.abs(lam_plain - lam_dump)) <= 1e-12 * np.max(lam_dump)
            basis_plain = np.array(s_plain["basis_eigenvalues"])
            basis_dump = np.array(s_dump["basis_eigenvalues"])
            assert basis_plain.shape == (s_dump["m_used"],)
            assert np.max(np.abs(basis_plain - basis_dump)) <= 1e-12 * np.max(lam_dump)

    @pytest.mark.parametrize("argv", [["graph"], ["train", "--folds", "2", "--epochs", "1"]],
                             ids=["graph", "train"])
    def test_overflowing_factor_is_data_error(self, tmp_path, argv):
        # f_g's variance overflows float64: z-scoring would map it to zeros
        lines = ["subject_id,visit,y,f_g,f_h,x_0"]
        for i, g in enumerate(["1e308", "-1e308", "1e308", "0"]):
            lines.append(f"S{i},0,{i % 2},{g},{i},{0.1 * i}")
        cohort = tmp_path / "cohort.csv"
        cohort.write_text("\n".join(lines) + "\n")
        proc = run_cli(*argv, "--cohort", cohort, "--out", tmp_path / "out", "--k", "1",
                       "--m", "1")
        assert_data_error(proc)
        assert "factor 'g': its mean or variance overflows float64" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_takes_no_seed(self, tmp_path, capsys):
        """graph draws no random numbers, so it takes no seed: the flag is a
        usage error, the config key an unknown one. Both are reported before
        the cohort, which does not exist, is read."""
        cohort = str(tmp_path / "absent.csv")
        assert main(["graph", "--cohort", cohort, "--out", str(tmp_path / "out"),
                     "--seed", "1"]) == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed 1\n"
        (tmp_path / "graph.cfg").write_text("k=5\nseed=1\n")
        assert main(["graph", "--cohort", cohort, "--out", str(tmp_path / "out"),
                     "--config", str(tmp_path / "graph.cfg")]) == 2
        assert capsys.readouterr().err == "data error: unknown config key 'seed'\n"
        assert not (tmp_path / "out").exists()

    def test_missing_cohort_is_data_error(self, tmp_path):
        assert main(["graph", "--cohort", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    def test_factor_reader_writes_the_full_readers_bytes(self, cohort_dir, tmp_path,
                                                         monkeypatch):
        """graph reads only the factor columns; every file it writes equals
        the file built from read_cohort_csv's factors in the same process."""
        import specweight.cli as cli

        def full_reader(path):
            data, factors = read_cohort_csv(path)
            return data.subject_ids, factors

        args = ["graph", "--cohort", str(cohort_dir / "cohort.csv"), "--k", "8", "--dump-graph"]
        assert main(args + ["--out", str(tmp_path / "factors_only")]) == 0
        monkeypatch.setattr(cli, "read_factor_table", full_reader)
        assert main(args + ["--out", str(tmp_path / "full")]) == 0
        files = sorted(p.name for p in (tmp_path / "full").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "factors_only").iterdir())
        assert len(files) == 5
        for name in files:
            assert ((tmp_path / "factors_only" / name).read_bytes()
                    == (tmp_path / "full" / name).read_bytes())

    def test_feature_cells_are_not_validated(self, cohort_dir, tmp_path):
        """Documented scope: graph never reads feature cells, train does."""
        cohort = tmp_path / "cohort.csv"
        shutil.copy(cohort_dir / "cohort.csv", cohort)
        column = read_csv(cohort)[0].index("x_3")
        edit_csv_rows(cohort, set_field(4, column, "oops"))
        graph = run_cli("graph", "--cohort", cohort, "--out", tmp_path / "g", "--k", "8")
        assert graph.returncode == 0, graph.stderr
        train = run_cli("train", "--cohort", cohort, "--out", tmp_path / "t", "--epochs", "1")
        assert_data_error(train)
        assert "could not convert string to float: 'oops'" in train.stderr


class TestTrain:
    def test_run_directory_contents(self, run_dir):
        for name in ("weights.csv", "predictions.csv", "factors.csv",
                     "run_summary.json"):
            assert (run_dir / name).exists()
        for fold in range(5):
            assert (run_dir / f"manifest_fold{fold}.json").exists()
            assert (run_dir / f"model_fold{fold}.bin").exists()

    def test_checkpoints_load(self, run_dir):
        model = load_checkpoint(run_dir / "model_fold0.bin")
        assert model.feature_width == 6

    def test_weights_csv_schema(self, run_dir):
        rows = read_csv(run_dir / "weights.csv")
        assert rows[0] == ["subject_id", "fold", "split", "weight"]
        assert len(rows) - 1 == 60 * 5
        assert {r[2] for r in rows[1:]} == {"train", "test"}

    def test_manifest_echoes_config(self, run_dir):
        manifest = json.loads((run_dir / "manifest_fold0.json").read_text())
        assert manifest["scheme"] == "spectral"
        assert manifest["config"]["epochs"] == 2
        assert len(manifest["epoch_losses"]) == 2
        assert np.isfinite(manifest["final_objective"])
        assert set(manifest["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_jtt_weights_binary(self, cohort_dir, tmp_path):
        rc = main(["train", "--cohort", str(cohort_dir / "cohort.csv"),
                   "--out", str(tmp_path), "--scheme", "jtt", "--epochs", "1",
                   "--batch", "16", "--seed", "2"])
        assert rc == 0
        rows = read_csv(tmp_path / "weights.csv")
        assert {r[2] for r in rows[1:]} == {"train"}  # no test weights for jtt
        assert {float(r[3]) for r in rows[1:]} <= {1.0, 2.0}

    def test_thread_count_determinism_scope(self, tmp_path):
        """Byte-identical at a fixed BLAS thread count; equal to rounding across counts."""
        cohort = tmp_path / "cohort"
        assert main(["synth", "--out", str(cohort), "--n-subjects", "400",
                     "--feature-width", "4", "--seed", "3"]) == 0
        args = ["train", "--cohort", str(cohort / "cohort.csv"), "--k", "30",
                "--epochs", "3", "--seed", "5"]
        runs = {(t, rep): run_at_threads(args, t, tmp_path / f"t{t}_{rep}")
                for t in (1, 2) for rep in (0, 1)}
        for t in (1, 2):
            assert runs[(t, 0)] == runs[(t, 1)]

        for name in ("predictions.csv", "weights.csv"):
            one, two = (list(csv.reader(runs[(t, 0)][name].decode().splitlines()))
                        for t in (1, 2))
            assert [r[:-1] for r in one] == [r[:-1] for r in two]
            values = [np.array([float(r[-1]) for r in rows[1:]]) for rows in (one, two)]
            assert np.max(np.abs(values[0] - values[1])) <= 1e-12

    def test_unknown_scheme_is_usage_error(self, cohort_dir, tmp_path, capsys):
        rc = main(["train", "--cohort", str(cohort_dir / "cohort.csv"),
                   "--out", str(tmp_path), "--scheme", "bogus"])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_deterministic_outputs(self, cohort_dir, tmp_path):
        args = ["--cohort", str(cohort_dir / "cohort.csv"), "--scheme", "only_graph",
                "--epochs", "1", "--k", "8", "--m", "3", "--batch", "16", "--seed", "6"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--out", str(a)] + args) == 0
        assert main(["train", "--out", str(b)] + args) == 0
        for name in ("weights.csv", "predictions.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("scheme", ["spectral", "jtt"])
    def test_pool_writes_the_serial_bytes(self, cohort_dir, tmp_path, monkeypatch, scheme):
        args = ["--cohort", str(cohort_dir / "cohort.csv"), "--scheme", scheme, "--epochs", "1",
                "--k", "8", "--m", "3", "--batch", "16", "--seed", "6"]
        runs = []
        for jobs in (1, 2):
            monkeypatch.setattr(ev, "pool_size", lambda *_, jobs=jobs: jobs)
            assert main(["train", "--out", str(tmp_path / str(jobs))] + args) == 0
            assert_no_child_process()
            runs.append({p.name: p.read_bytes() for p in sorted((tmp_path / str(jobs)).iterdir())})
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("error, code, prefix", [
        (DataError("subject S1: bad"), 2, "data error"),
        (NumericalError("objective diverged"), 3, "numerical failure")])
    def test_a_worker_error_exits_as_a_serial_one(self, cohort_dir, tmp_path, monkeypatch,
                                                  capsys, error, code, prefix):
        """The same error raised in the caller of a serial run and in the
        worker of a pool gives the same exit code and message."""
        cross_validate = ev.cross_validate
        for where, jobs in (("caller", 1), ("worker", 2)):
            monkeypatch.setattr(ev, "cross_validate", lambda *a, where=where, jobs=jobs, **kw:
                                cross_validate(*a, **{**kw, "jobs": jobs,
                                                      "model_factory": FailsIn(where, error)}))
            assert main(["train", "--cohort", str(cohort_dir / "cohort.csv"), "--out",
                         str(tmp_path / where), "--scheme", "none", "--epochs", "1"]) == code
            assert capsys.readouterr().err == f"{prefix}: {error}\n"
            assert_no_child_process()


class TestThreadPolicy:
    """`cli.main` leaves numpy's OpenBLAS at one thread unless a thread
    variable is set."""

    @pytest.fixture
    def count(self, monkeypatch):
        """A thread count above 1 where there are CPUs for it, with every
        thread variable unset; the count in effect is restored afterwards."""
        before = blas.threads()
        if before is None:
            pytest.skip("numpy's BLAS is not scipy-openblas")
        for name in blas.THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        yield min(2, os.cpu_count())
        blas.set_threads(before)

    def test_no_variable_means_one_thread(self, count, tmp_path):
        blas.set_threads(count)
        assert blas.threads() == count
        assert main(["synth", "--out", str(tmp_path), "--n-subjects", "6"]) == 0
        assert blas.threads() == 1

    @pytest.mark.parametrize("name", blas.THREAD_VARS)
    def test_a_set_variable_wins(self, count, tmp_path, monkeypatch, name):
        monkeypatch.setenv(name, str(count))
        blas.set_threads(count)
        assert main(["synth", "--out", str(tmp_path), "--n-subjects", "6"]) == 0
        assert blas.threads() == count


class TestReport:
    def test_report_outputs(self, run_dir):
        assert main(["report", "--run", str(run_dir)]) == 0
        report = json.loads((run_dir / "report.json").read_text())
        assert report["scheme"] == "spectral"
        assert "bacc_formatted" in report["overall"]
        assert "±" in report["overall"]["bacc_formatted"]
        assert len(report["overall"]["per_fold"]) == 5
        assert "median_split" in report
        for factor in ("group", "score_a", "score_b"):
            assert factor in report["subcohorts"]
            assert (run_dir / f"subcohorts_{factor}.csv").exists()

    def test_report_roundtrip_and_determinism(self, run_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", "--run", str(run_dir), "--out", str(out1)]) == 0
        assert main(["report", "--run", str(run_dir), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        parsed = json.loads((out1 / "report.json").read_text())
        assert json.loads(json.dumps(parsed)) == parsed

    def test_report_matches_recomputation(self, run_dir):
        report = json.loads((run_dir / "report.json").read_text())
        summary = json.loads((run_dir / "run_summary.json").read_text())
        assert report["overall"]["per_fold"][0]["bacc"] == summary["fold_bacc"][0]

    def test_report_matches_in_memory_analysis(self, cohort_dir, run_dir, tmp_path):
        """report.json from the run CSVs equals `pooled_analysis` over the
        in-memory CV run of the same config and seed."""
        assert main(["report", "--run", str(run_dir), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        data, factors = read_cohort_csv(cohort_dir / "cohort.csv")
        cfg = TrainConfig(epochs=2, batch_size=16, k_neighbors=8, m_basis=4, seed=4)
        run = ev.cross_validate(data, factors, cfg, n_folds=5)
        rows, folds, y, prob, w = run.pooled_test()
        bacc, f1, gap, tables = ev.pooled_analysis(
            folds, y, prob, w, factors.values[rows], factors.factor_names, run.n_folds)

        assert report["overall"]["per_fold"] == [
            {"fold": fold, "bacc": b, "f1": f} for fold, (b, f) in enumerate(zip(bacc, f1))]
        assert not gap.degenerate  # no NaN, which report.json stores as null
        assert report["median_split"] == asdict(gap)
        assert report["subcohorts"] == {
            t.factor: {"groups": [asdict(g) for g in t.groups],
                       "pairwise": [asdict(p) for p in t.pairwise]} for t in tables}

    def test_not_a_run_dir(self, tmp_path):
        assert main(["report", "--run", str(tmp_path)]) == 2

    @pytest.mark.parametrize("damage", [
        lambda s: {k: v for k, v in s.items() if k != "n_folds"},
        lambda s: {k: v for k, v in s.items() if k != "scheme"},
        lambda s: {k: v for k, v in s.items() if k != "seed"},
        lambda s: dict(s, n_folds=0),
        lambda s: dict(s, n_folds="five"),
        lambda s: [s],
        None,
    ], ids=["no-n_folds", "no-scheme", "no-seed", "zero-folds", "text-n_folds", "list",
            "invalid-json"])
    def test_damaged_run_summary_is_data_error(self, run_dir, tmp_path, capsys, damage):
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        path = copy / "run_summary.json"
        text = path.read_text()
        path.write_text(text[:-3] if damage is None else json.dumps(damage(json.loads(text))))
        assert main(["report", "--run", str(copy)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "run_summary.json" in err

    @staticmethod
    def edited_run(run_dir, tmp_path, edit, name="predictions.csv"):
        """Copy of the run directory with `edit(rows)` applied to the rows of
        the CSV file `name` (header excluded)."""
        copy = tmp_path / "run"
        shutil.copytree(run_dir, copy)
        edit_csv_rows(copy / name, edit)
        return copy

    @pytest.mark.parametrize("name, edit, fold", [
        ("run_summary.json", None, 3),
        ("predictions.csv", set_field(0, 1, "-1"), -1),
        ("weights.csv", set_field(4, 1, "7"), 7),
    ], ids=["summary-says-3-folds", "negative-prediction-fold", "weights-fold-7"])
    def test_out_of_range_fold_is_data_error(self, run_dir, tmp_path, name, edit, fold):
        if edit is None:  # the 5-fold run's summary claims 3 folds
            copy = tmp_path / "run"
            shutil.copytree(run_dir, copy)
            summary = json.loads((copy / name).read_text())
            (copy / name).write_text(json.dumps(dict(summary, n_folds=3)))
            name = "predictions.csv"
        else:
            copy = self.edited_run(run_dir, tmp_path, edit, name)
        proc = run_cli("report", "--run", copy)
        assert_data_error(proc)
        assert f"{name}: fold {fold} is outside 0.." in proc.stderr

    def test_missing_test_weight_is_data_error(self, run_dir, tmp_path):
        removed = []

        def drop_a_test_row(rows):
            at = next(i for i, row in enumerate(rows) if row[2] == "test" and row[1] == "3")
            removed.append(rows.pop(at))

        proc = run_cli("report", "--run",
                       self.edited_run(run_dir, tmp_path, drop_a_test_row, "weights.csv"))
        assert_data_error(proc)
        sid, fold = removed[0][:2]
        assert (f"weights.csv: no weight for test subject {sid!r} in fold {fold}"
                in proc.stderr)

    def test_jtt_run_without_test_weights_reports(self, cohort_dir, tmp_path):
        """jtt defines no test weights: report runs and the split is degenerate."""
        assert main(["train", "--cohort", str(cohort_dir / "cohort.csv"), "--out",
                     str(tmp_path), "--scheme", "jtt", "--epochs", "1", "--batch", "16"]) == 0
        assert main(["report", "--run", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["median_split"]["degenerate"]

    def test_single_class_fold_is_data_error(self, run_dir, tmp_path):
        def one_class_fold_2(rows):
            for row in rows:
                if row[1] == "2" and row[2] == "test":
                    row[3] = "1"

        proc = run_cli("report", "--run", self.edited_run(run_dir, tmp_path, one_class_fold_2))
        assert_data_error(proc)
        assert "fold 2" in proc.stderr

    @pytest.mark.parametrize("column, value", [(1, "x"), (1, "1.5"), (3, "0.5"), (3, "")],
                             ids=["fold-text", "fold-float", "y-float", "y-empty"])
    def test_non_integer_field_is_data_error(self, run_dir, tmp_path, column, value):
        def corrupt_line_5(rows):
            rows[3][column] = value

        proc = run_cli("report", "--run", self.edited_run(run_dir, tmp_path, corrupt_line_5))
        assert_data_error(proc)
        assert "predictions.csv:5:" in proc.stderr

    def test_short_row_is_data_error(self, run_dir, tmp_path):
        def truncate_line_3(rows):
            del rows[1][2:]

        proc = run_cli("report", "--run", self.edited_run(run_dir, tmp_path, truncate_line_3))
        assert_data_error(proc)
        assert "predictions.csv:3:" in proc.stderr

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: rows.pop(0), "factors.csv: no row for subject"),
        (lambda rows: rows.insert(2, list(rows[0])), "factors.csv:4: duplicate subject"),
        (lambda rows: rows[1].pop(), "factors.csv:3: expected 4 fields, got 3"),
        (set_field(3, 2, "high"), "factors.csv:5: could not convert"),
        (set_field(3, 3, "inf"), "factors.csv:5: non-finite"),
    ], ids=["missing-subject", "duplicate-subject", "short-row", "non-number", "infinite"])
    def test_bad_factors_row_is_data_error(self, run_dir, tmp_path, edit, message):
        proc = run_cli("report", "--run",
                       self.edited_run(run_dir, tmp_path, edit, "factors.csv"))
        assert_data_error(proc)
        assert message in proc.stderr

    @settings(max_examples=30, deadline=None)
    @given(edits=st.lists(st.one_of(
               st.tuples(st.just("drop"), st.integers(0, 999)),
               st.tuples(st.just("duplicate"), st.integers(0, 999), st.integers(0, 999)),
               st.tuples(st.just("field"), st.integers(0, 999), st.integers(0, 9),
                         st.text(max_size=6))),
               max_size=3),
           header_cut=st.none() | st.integers(0, 40),
           bad_byte_at=st.none() | st.integers(0, 200))
    def test_mutated_factors_file_exits_0_or_2(self, run_dir, edits, header_cut, bad_byte_at):
        """Dropped, duplicated or garbled factors.csv rows, a truncated header
        line or a byte that is not UTF-8: `report` succeeds or reports a data
        error, and never raises."""
        def apply_edits(rows):
            for kind, i, *rest in edits:
                i %= len(rows)
                if kind == "drop":
                    del rows[i]
                elif kind == "duplicate":
                    rows.insert(rest[0] % (len(rows) + 1), list(rows[i]))
                else:
                    rows[i][rest[0] % len(rows[i])] = rest[1]

        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "run"
            shutil.copytree(run_dir, copy)
            path = copy / "factors.csv"
            edit_csv_rows(path, apply_edits)
            raw = path.read_bytes()
            if header_cut is not None:
                end = raw.index(b"\n")
                raw = raw[:min(header_cut, end)] + raw[end:]
            if bad_byte_at is not None:
                raw = raw[:bad_byte_at] + b"\xff" + raw[bad_byte_at:]
            path.write_bytes(raw)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["report", "--run", str(copy), "--out", str(Path(tmp) / "out")])
        assert rc in (0, 2)
        if rc == 2:
            assert err.getvalue().startswith("data error:")


class TestSweep:
    def test_grid_csv_and_determinism(self, cohort_dir, tmp_path):
        args = ["--cohort", str(cohort_dir / "cohort.csv"), "--k", "5,10",
                "--c", "0.5,0.65", "--epochs", "1", "--batch", "16",
                "--m", "3", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--out", str(a)] + args) == 0
        assert main(["sweep", "--out", str(b)] + args) == 0
        rows = read_csv(a / "sweep_grid.csv")
        assert rows[0][:2] == ["k", "c"]
        assert len(rows) - 1 == 4
        gaps = [float(r[3]) for r in rows[1:]]
        assert all(np.isfinite(g) for g in gaps)
        assert (a / "sweep_grid.csv").read_bytes() == (b / "sweep_grid.csv").read_bytes()

    def test_config_keys_match_flags(self, cohort_dir, tmp_path):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text("k_grid=5,10\nc_grid=0.5,0.65\nepochs=1\nbatch=16\nm=3\nseed=3\n"
                           "folds=5\nlr_model=1e-4\nlr_a=1e-5\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--cohort", str(cohort_dir / "cohort.csv"), "--out", str(a),
                     "--config", str(cfgfile)]) == 0
        assert main(["sweep", "--cohort", str(cohort_dir / "cohort.csv"), "--out", str(b),
                     "--k", "5,10", "--c", "0.5,0.65", "--epochs", "1", "--batch", "16",
                     "--m", "3", "--seed", "3"]) == 0
        assert (a / "sweep_grid.csv").read_bytes() == (b / "sweep_grid.csv").read_bytes()

    @pytest.mark.parametrize("line, message", [
        ("k=30", "unknown config key 'k' (the config key for --k is k_grid)"),
        ("k=10,30", "unknown config key 'k' (the config key for --k is k_grid)"),
        ("c=0.9", "unknown config key 'c' (the config key for --c is c_grid)"),
        ("scheme=none", "unknown config key 'scheme'\n"),
        ("jtt_lambda=5", "unknown config key 'jtt_lambda'\n"),
    ], ids=["k", "k-list", "c", "scheme", "jtt_lambda"])
    def test_train_only_config_key_is_data_error(self, cohort_dir, tmp_path, capsys,
                                                line, message):
        cfgfile = tmp_path / "sweep.cfg"
        cfgfile.write_text(f"epochs=1\n{line}\n")
        assert main(["sweep", "--cohort", str(cohort_dir / "cohort.csv"),
                     "--out", str(tmp_path / "out"), "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == f"data error: {message}" + (
            "" if message.endswith("\n") else "\n")
        assert not (tmp_path / "out").exists()

    def test_empty_grid_is_usage_error(self, cohort_dir, tmp_path):
        assert main(["sweep", "--cohort", str(cohort_dir / "cohort.csv"),
                     "--out", str(tmp_path), "--k", ""]) == 1


# Every subcommand's (option string, dest) pairs, help excluded.
SURFACE = {
    "synth": [("--out", "out"), ("--config", "config"), ("--seed", "seed"),
              ("--n-subjects", "n_subjects"), ("--feature-width", "feature_width"),
              ("--min-visits", "min_visits"), ("--max-visits", "max_visits"),
              ("--signal-strength", "signal_strength"), ("--drift-scale", "drift_scale"),
              ("--flip-above", "flip_above"), ("--flip-at-or-below", "flip_at_or_below"),
              ("--noise-threshold", "noise_threshold"), ("--noise-factor", "noise_factor")],
    "graph": [("--cohort", "cohort"), ("--out", "out"), ("--config", "config"), ("--k", "k"),
              ("--m", "m"), ("--dump-graph", "dump_graph")],
    "train": [("--cohort", "cohort"), ("--out", "out"), ("--config", "config"),
              ("--scheme", "scheme"), ("--epochs", "epochs"), ("--lr-model", "lr_model"),
              ("--lr-a", "lr_a"), ("--batch", "batch"), ("--folds", "folds"), ("--k", "k"),
              ("--c", "c"), ("--m", "m"), ("--jtt-lambda", "jtt_lambda"), ("--seed", "seed")],
    "report": [("--run", "run"), ("--out", "out")],
    "sweep": [("--cohort", "cohort"), ("--out", "out"), ("--config", "config"),
              ("--k", "k_grid"), ("--c", "c_grid"), ("--epochs", "epochs"),
              ("--lr-model", "lr_model"), ("--lr-a", "lr_a"), ("--batch", "batch"),
              ("--folds", "folds"), ("--m", "m"), ("--seed", "seed")],
}


class TestSurface:
    def test_option_strings_and_dests(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(SURFACE)
        for name, parser in sub.choices.items():
            got = [(opt, a.dest) for a in parser._actions for opt in a.option_strings
                   if a.dest != "help"]
            assert sorted(got) == sorted(SURFACE[name]), name

    def test_no_flags_resolve_to_dataclass_defaults(self, cohort_dir, tmp_path, monkeypatch):
        import specweight.cli as cli

        class Called(Exception):
            pass

        def stop(*args, **kwargs):
            raise Called(args, kwargs)

        cohort = str(cohort_dir / "cohort.csv")
        for owner, name, argv in [
                (cli, "generate", ["synth"]),
                (cli, "basis_from_factors", ["graph", "--cohort", cohort]),
                (cli.ev, "cross_validate", ["train", "--cohort", cohort]),
                (cli.ev, "sweep", ["sweep", "--cohort", cohort])]:
            monkeypatch.setattr(owner, name, stop)
            with pytest.raises(Called) as called:
                main(argv + ["--out", str(tmp_path / argv[0])])
            args, kwargs = called.value.args
            if name == "generate":
                assert args == (SynthSpec(),) and kwargs == {}
            elif name == "basis_from_factors":
                assert args[1:] == (50, "auto") and kwargs == {"vectors": False}
            elif name == "cross_validate":
                jobs = ev.pool_size(len(os.sched_getaffinity(0)), blas.threads(), 5)
                assert args[2] == TrainConfig() and kwargs == {"n_folds": 5, "jobs": jobs}
            else:
                assert args[2:] == (TrainConfig(), ev.DEFAULT_K_GRID, ev.DEFAULT_C_GRID)
                assert kwargs == {"n_folds": 5}

    def test_config_aliases_round_trip_into_run_summary(self, cohort_dir, tmp_path):
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text("batch=16\nk=8\nc=0.7\nm=3\nepochs=1\n")
        out = tmp_path / "run"
        assert main(["train", "--cohort", str(cohort_dir / "cohort.csv"), "--out", str(out),
                     "--config", str(cfgfile)]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert list(summary["config"].items()) == [
            ("scheme", "spectral"), ("epochs", 1), ("lr_model", 1e-4), ("lr_a", 1e-5),
            ("batch", 16), ("folds", 5), ("k", 8), ("c", 0.7), ("m", 3), ("jtt_lambda", 2.0),
            ("seed", 0)]
        manifest = json.loads((out / "manifest_fold0.json").read_text())
        assert manifest["config"] == asdict(TrainConfig(
            epochs=1, batch_size=16, k_neighbors=8, centering_c=0.7, m_basis=3))


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """12 subjects, 5 per class: too few for 10 folds, and its k=5 graph has
    only 11 non-null eigenpairs."""
    out = tmp_path_factory.mktemp("small")
    assert main(["synth", "--out", str(out), "--n-subjects", "12", "--seed", "0"]) == 0
    return out / "cohort.csv"


def assert_usage_error(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


class TestExitPaths:
    @pytest.mark.parametrize("command, flags, config, message", [
        ("train", ["--c", "nan"], None, "centering_c must be finite, got nan"),
        ("train", ["--jtt-lambda", "nan", "--scheme", "jtt"], None, "jtt_lambda must be finite"),
        ("train", ["--lr-model", "inf"], None, "lr_model must be finite, got inf"),
        ("train", ["--lr-a=-inf"], None, "lr_a must be finite, got -inf"),
        ("train", [], "c=nan", "centering_c must be finite, got nan"),
        ("sweep", ["--lr-model", "nan"], None, "lr_model must be finite, got nan"),
        ("sweep", ["--c", "0.5,inf"], None, "centering_c must be finite, got inf"),
        ("sweep", [], "c_grid=0.5,nan", "centering_c must be finite, got nan"),
    ])
    def test_non_finite_setting_is_usage_error_before_reading(self, tmp_path, command, flags,
                                                              config, message):
        # The cohort does not exist: exit 1 rather than 2 shows the settings
        # are checked before it is read.
        if config is not None:
            (tmp_path / "bad.cfg").write_text(config + "\n")
            flags = ["--config", tmp_path / "bad.cfg"]
        proc = run_cli(command, "--cohort", tmp_path / "absent.csv", "--out", tmp_path / "out",
                       *flags)
        assert_usage_error(proc)
        assert message in proc.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--lr-model", "0"], "learning rates must be positive (lr_a may be 0)"),
        (["train", "--jtt-lambda", "0.5"], "jtt_lambda must be >= 1"),
        (["train", "--batch", "0"], "batch_size must be >= 1"),
        (["sweep", "--epochs", "0"], "epochs must be >= 1"),
        (["sweep", "--lr-a", "-1"], "learning rates must be positive (lr_a may be 0)"),
        (["sweep", "--c", "0.5,1,-inf"], "centering_c must be finite, got -inf"),
    ])
    def test_train_config_check_is_usage_error_before_reading(self, tmp_path, capsys, argv,
                                                              message):
        rc = main([*argv, "--cohort", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_value_error_inside_the_pipeline_is_no_usage_error(self, cohort_dir, tmp_path,
                                                                 monkeypatch, capsys):
        """Only argument-shaped errors exit 1. A ValueError raised past the
        settings checks is a fault of the program, not of the command line,
        so main lets it propagate."""
        def fail(*args, **kwargs):
            raise ValueError("fault inside the pipeline")

        monkeypatch.setattr(ev, "cross_validate", fail)
        with pytest.raises(ValueError, match="fault inside the pipeline"):
            main(["train", "--cohort", str(cohort_dir / "cohort.csv"),
                  "--out", str(tmp_path), "--epochs", "1"])
        assert "error:" not in capsys.readouterr().err

    def test_value_error_inside_report_propagates(self, run_dir, tmp_path, monkeypatch,
                                                  capsys):
        """A ValueError from the analysis is a program fault, not a bad run file."""
        def fail(*args, **kwargs):
            raise ValueError("fault inside the analysis")

        monkeypatch.setattr(ev, "factor_subcohort_table", fail)
        with pytest.raises(ValueError, match="fault inside the analysis"):
            main(["report", "--run", str(run_dir), "--out", str(tmp_path / "out")])
        assert "error:" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_memory_error_is_one_data_error_line(self, tmp_path, monkeypatch, capsys):
        import specweight.cli as cli

        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 94.8 GiB")

        monkeypatch.setattr(cli, "generate", refuse)
        assert main(["synth", "--out", str(tmp_path / "out"), "--max-visits", "1000000000"]) == 2
        assert capsys.readouterr().err == "data error: out of memory: Unable to allocate 94.8 GiB\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("header, factor", [("", ""), (",f_site", ",3.0")],
                             ids=["no-factor-column", "constant-factor"])
    def test_cohort_without_varying_factor(self, tmp_path, capsys, header, factor):
        """The graph needs a varying factor; schemes that build none still train."""
        cohort = tmp_path / "cohort.csv"
        cohort.write_text(f"subject_id,visit,y{header},x_0,x_1\n" + "".join(
            f"S{i},0,{i % 2}{factor},{0.1 * i},{0.2 * i}\n" for i in range(8)))
        for argv in (["graph", "--k", "1"], ["train", "--scheme", "spectral", "--epochs", "1"],
                     ["sweep", "--k", "1", "--c", "0.7", "--folds", "2", "--epochs", "1"]):
            assert main([*argv, "--cohort", str(cohort), "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == (
                "data error: no factor column varies across the 8 samples; "
                "the factor graph needs at least one that does\n")
            assert not (tmp_path / "out").exists()
        for scheme in ("none", "jtt"):
            assert main(["train", "--cohort", str(cohort), "--out", str(tmp_path / scheme),
                         "--scheme", scheme, "--folds", "2", "--epochs", "1"]) == 0

    @pytest.mark.parametrize("args, message", [
        (["train", "--folds", "10", "--k", "5", "--epochs", "1"],
         "smallest class has 5 samples, fewer than 10 folds"),
        (["sweep", "--folds", "10", "--k", "5", "--epochs", "1"], "fewer than 10 folds"),
        (["graph", "--m", "50", "--k", "5"], "requested 50 eigenbases but only 11 non-null"),
        (["train", "--m", "50", "--k", "5", "--epochs", "1"], "requested 50 eigenbases"),
        (["sweep", "--m", "50", "--k", "5", "--epochs", "1"], "requested 50 eigenbases"),
    ])
    def test_data_dependent_limit_is_data_error(self, small_cohort, tmp_path, args, message):
        proc = run_cli(*args, "--cohort", small_cohort, "--out", tmp_path)
        assert_data_error(proc)
        assert message in proc.stderr

    @pytest.mark.parametrize("args, message", [
        (["train", "--folds", "1", "--epochs", "1"], "folds must be >= 2"),
        (["graph", "--m", "-1"], "m must be >= 0"),
    ])
    def test_argument_shape_stays_usage_error(self, small_cohort, tmp_path, args, message):
        proc = run_cli(*args, "--k", "5", "--cohort", small_cohort, "--out", tmp_path)
        assert_usage_error(proc)
        assert message in proc.stderr

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value, message", [
        ("graph", "m", "-1", "m must be >= 0, got -1"),
        ("train", "m", "-1", "m must be >= 0, got -1"),
        ("sweep", "m", "-1", "m must be >= 0, got -1"),
        ("train", "folds", "1", "folds must be >= 2, got 1"),
        ("sweep", "folds", "1", "folds must be >= 2, got 1"),
    ])
    def test_out_of_range_count_is_usage_error_before_reading(self, tmp_path, capsys, source,
                                                              command, key, value, message):
        # The cohort does not exist: exit 1 rather than 2 shows the settings
        # are checked before it is read.
        if source == "flag":
            flags = [f"--{key}={value}"]
        else:
            (tmp_path / "bad.cfg").write_text(f"{key}={value}\n")
            flags = ["--config", str(tmp_path / "bad.cfg")]
        rc = main([command, "--cohort", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "out"), *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", [
        ("graph", "k", "0"), ("train", "k", "-5"), ("sweep", "k_grid", "0,5"),
        ("train", "seed", "-1"), ("sweep", "seed", "-1"), ("synth", "seed", "-1"),
    ])
    def test_k_and_seed_bounds_are_usage_errors_before_reading(self, tmp_path, capsys, source,
                                                               command, key, value):
        # As above: a cohort that does not exist would be exit 2 if it were read.
        low, got = (0, "-1") if key == "seed" else (1, value.split(",")[0])
        if source == "flag":
            flags = [f"--{'k' if key == 'k_grid' else key}={value}"]
        else:
            (tmp_path / "bad.cfg").write_text(f"{key}={value}\n")
            flags = ["--config", str(tmp_path / "bad.cfg")]
        cohort = [] if command == "synth" else ["--cohort", str(tmp_path / "absent.csv")]
        rc = main([command, *cohort, "--out", str(tmp_path / "out"), *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {key} must be >= {low}, got {got}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["graph"], ["train", "--epochs", "1"]],
                             ids=["graph", "train"])
    @pytest.mark.parametrize("damage, insert, message", [
        ("bad-byte", b"\xff", "'utf-8' codec can't decode byte 0xff"),
        ("oversized-field", b"9" * 131073, "field larger than field limit (131072)"),
    ], ids=["bad-byte", "oversized-field"])
    def test_unreadable_cohort_is_data_error(self, small_cohort, tmp_path, argv, damage,
                                             insert, message):
        raw = small_cohort.read_bytes()
        end = raw.index(b"\n", len(raw) // 2)  # the end of a data line
        cohort = tmp_path / "cohort.csv"
        cohort.write_bytes(raw[:end] + insert + raw[end:])
        proc = run_cli(*argv, "--cohort", cohort, "--out", tmp_path / "out", "--k", "5")
        assert_data_error(proc)
        assert f"cannot read {cohort}: " in proc.stderr and message in proc.stderr

    @pytest.mark.parametrize("command", ["graph", "train", "sweep"])
    def test_repeated_config_key_is_data_error(self, tmp_path, capsys, command):
        # Read before the cohort, which does not exist.
        config = tmp_path / "dup.cfg"
        config.write_text("seed=1\nm=3\n# a comment\nm=50\n")
        rc = main([command, "--cohort", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "out"), "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: {config}:4: key 'm' is already set on line 2\n")
        assert not (tmp_path / "out").exists()

    def test_overflowing_objective_fails_once_without_warnings(self, cohort_dir, tmp_path):
        proc = run_cli("train", "--cohort", cohort_dir / "cohort.csv", "--out", tmp_path,
                       "--c", "1e308", "--epochs", "1")
        assert proc.returncode == 3
        assert proc.stderr == "numerical failure: non-finite objective at epoch 0\n"

    @pytest.mark.parametrize("command", ["graph", "train", "sweep"])
    def test_undecodable_config_is_data_error(self, tmp_path, command):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"seed=1\n# caf\xe9\n")
        proc = run_cli(command, "--cohort", tmp_path / "absent.csv", "--out", tmp_path / "out",
                       "--config", config)
        assert_data_error(proc)
        assert f"cannot read config file {config}: 'utf-8' codec" in proc.stderr


def mutate_cohort(raw: bytes, mutations) -> bytes:
    """`raw` after each mutation in turn: a truncation, an inserted byte that
    is not UTF-8, an inserted field over csv's size limit, a dropped or
    duplicated line, or one cell of a line replaced by text."""
    for kind, at, *rest in mutations:
        if kind in ("truncate", "bad-byte", "oversized"):
            at %= len(raw) + 1
            insert = {"truncate": b"", "bad-byte": b"\xff", "oversized": b"9" * 131073}[kind]
            raw = raw[:at] + insert + (b"" if kind == "truncate" else raw[at:])
            continue
        lines = raw.split(b"\n")
        at %= len(lines)
        if kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        else:
            cells = lines[at].split(b",")
            cells[rest[0] % len(cells)] = rest[1].encode()
            lines[at] = b",".join(cells)
        raw = b"\n".join(lines)
    return raw


class TestMutatedCohort:
    @settings(max_examples=12, deadline=None)
    @given(mutations=st.lists(st.one_of(
        st.tuples(st.sampled_from(["truncate", "bad-byte", "oversized", "drop", "duplicate"]),
                  st.integers(0, 10 ** 6)),
        st.tuples(st.just("cell"), st.integers(0, 10 ** 6), st.integers(0, 40),
                  st.text(max_size=6))), min_size=1, max_size=3))
    def test_graph_and_train_exit_0_2_or_3(self, small_cohort, mutations):
        """`graph` and a one-epoch `train` on a damaged cohort succeed, report
        a data error or a numerical failure, and never print a traceback."""
        with tempfile.TemporaryDirectory() as tmp:
            cohort = Path(tmp) / "cohort.csv"
            cohort.write_bytes(mutate_cohort(small_cohort.read_bytes(), mutations))
            for argv in (["graph"], ["train", "--epochs", "1", "--folds", "2"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main([*argv, "--cohort", str(cohort), "--out", str(Path(tmp) / "out"),
                               "--k", "5", "--m", "3"])
                assert rc in (0, 2, 3), err.getvalue()
                assert "Traceback" not in err.getvalue()


# A valid config per command; epochs (a flag) and batch stay fixed, so no
# mutation below scales the work.
CONFIG_BASE = {"graph": ["k=5", "m=3"],
               "train": ["k=5", "m=3", "folds=2", "seed=1", "batch=16"],
               "sweep": ["k_grid=5", "c_grid=0.65", "m=3", "folds=2", "seed=1", "batch=16"]}
CONFIG_KEYS = ["k", "m", "folds", "seed", "c", "lr_model", "lr_a", "jtt_lambda"]
config_value = st.one_of(
    st.sampled_from(["x1", "nan", "inf", "-inf", "-1", "-2.5", "0", "1e308", "9" * 30]),
    st.integers(max_value=-1).map(str), st.integers(min_value=10 ** 6).map(str),
    st.floats().map(repr), st.text(max_size=5))
config_mutation = st.one_of(
    st.tuples(st.sampled_from(["no-equals", "unknown-key", "duplicate"]), st.integers(0, 99)),
    st.tuples(st.just("value"), st.integers(0, 99), st.sampled_from(CONFIG_KEYS), config_value))


def mutate_config(command, mutations) -> bytes:
    """`command`'s base config after each mutation in turn: an inserted line
    without `=`, an unknown key, a duplicated line, or a key set to a value."""
    lines = list(CONFIG_BASE[command])
    for kind, at, *rest in mutations:
        at %= len(lines) + 1
        if kind == "value":
            key, value = rest
            if command == "sweep":
                key = {"k": "k_grid", "c": "c_grid"}.get(key, key)
            line = f"{key}={value}"
        else:
            line = {"no-equals": "k 5", "unknown-key": "frobnicate=1",
                    "duplicate": lines[at % len(lines)]}[kind]
        lines.insert(at, line)
    return "\n".join(lines + [""]).encode()


class TestMutatedConfig:
    @settings(max_examples=10, deadline=None)
    @given(mutations=st.lists(config_mutation, min_size=1, max_size=3),
           bad_byte_at=st.none() | st.integers(0, 120))
    def test_graph_train_and_sweep_exit_0_to_3(self, small_cohort, mutations, bad_byte_at):
        """A malformed `--config` (a line without `=`, an unknown or repeated
        key, text, NaN, inf, negative or huge values, or a byte that is not
        UTF-8): each command exits 0 to 3 and never prints a traceback."""
        for command in ("graph", "train", "sweep"):
            raw = mutate_config(command, mutations)
            if bad_byte_at is not None:
                raw = raw[:bad_byte_at] + b"\xff" + raw[bad_byte_at:]
            with tempfile.TemporaryDirectory() as tmp:
                config = Path(tmp) / "run.cfg"
                config.write_bytes(raw)
                argv = [command, "--cohort", str(small_cohort), "--out", str(Path(tmp) / "out"),
                        "--config", str(config)] + (["--epochs", "1"] if command != "graph" else [])
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    rc = main(argv)
            assert rc in (0, 1, 2, 3), err.getvalue()
            assert "Traceback" not in err.getvalue()


class TestUsage:
    def test_missing_required_flag(self):
        assert main(["train", "--out", "somewhere"]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_bad_m_value(self, cohort_dir, tmp_path, capsys):
        for command in ("graph", "train", "sweep"):
            assert main([command, "--cohort", str(cohort_dir / "cohort.csv"),
                         "--out", str(tmp_path), "--m", "sometimes"]) == 1
            assert ("m must be an integer or 'auto', got 'sometimes'"
                    in capsys.readouterr().err)

    def test_m_exceeding_spectrum(self, cohort_dir, tmp_path):
        assert main(["graph", "--cohort", str(cohort_dir / "cohort.csv"),
                     "--out", str(tmp_path), "--k", "8", "--m", "1000"]) == 2

    def test_numerical_failure_exit_code(self, cohort_dir, tmp_path, monkeypatch, capsys):
        from specweight import cli
        from specweight.errors import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("objective diverged")

        monkeypatch.setattr(cli.ev, "cross_validate", explode)
        rc = main(["train", "--cohort", str(cohort_dir / "cohort.csv"),
                   "--out", str(tmp_path), "--epochs", "1"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("solver, argv", [
        ("eigvalsh", ["graph"]),
        ("eigh", ["graph", "--dump-graph"]),
        ("eigh", ["train", "--epochs", "1"]),
    ], ids=["graph-eigvalsh", "graph-dump-eigh", "train-eigh"])
    def test_eigensolver_failure_exit_code(self, cohort_dir, tmp_path, monkeypatch, capsys,
                                           solver, argv):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, fail)
        rc = main(argv + ["--cohort", str(cohort_dir / "cohort.csv"),
                          "--out", str(tmp_path), "--k", "8"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err


class TestParserBuiltOnce:
    """`main` parses with one parser per process: no flag value of one call
    may reach the next, and each command runs the module attribute cmd_<name>
    as it is at call time."""

    def test_calls_in_one_process_match_fresh_processes(self, cohort_dir, tmp_path, capsys):
        cohort = str(cohort_dir / "cohort.csv")
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text("epochs=1\nk=8\nm=3\nbatch=16\nfolds=3\n")
        calls = [["graph", "--cohort", cohort, "--k", "5", "--m", "sometimes"],
                 ["graph", "--cohort", cohort, "--k", "5"],
                 ["graph", "--cohort", cohort],
                 ["train", "--cohort", cohort, "--config", str(cfgfile)]]
        for i, argv in enumerate(calls):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            code = main(argv + ["--out", str(here)])
            captured = capsys.readouterr()
            proc = run_cli(*argv, "--out", fresh)
            assert (code, captured.out, captured.err) == (
                proc.returncode, proc.stdout, proc.stderr), argv
            assert code == (1 if i == 0 else 0)
            if code == 0:
                want = {p.name: p.read_bytes() for p in sorted(fresh.iterdir())}
                assert {p.name: p.read_bytes() for p in sorted(here.iterdir())} == want

    def test_replaced_command_runs(self, tmp_path, monkeypatch):
        import specweight.cli as cli

        assert main(["graph", "--cohort", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path)]) == 2
        seen = []
        monkeypatch.setattr(cli, "cmd_graph", lambda args: seen.append(args.k) or 0)
        assert main(["graph", "--cohort", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path), "--k", "7"]) == 0
        assert seen == [7]
