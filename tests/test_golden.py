"""Golden run bytes: a tiny end-to-end run must write the recorded bytes.

The run (`COMMANDS`) is a 60-subject cohort taken through every command and
scheme, plus a `graph --dump-graph --k 1` whose basis has exact zeros. Each
command runs as `python -m specweight` in a fresh process, from relative
paths, with `OPENBLAS_NUM_THREADS=1` and the other BLAS thread variables
unset, so that every process runs at the one BLAS thread that the manifests
record as `blas_threads_used`. The SHA-256 of every file written is
compared with `tests/golden/sha256.txt`; `scripts/update_golden.py` rewrites
that file, and a change that alters output bytes on purpose rewrites it in
the same commit and says which files changed and why.

The last bits of the output depend on numpy, its BLAS build, and the CPU
kernels both pick at run time, so the file records that build (`build()`):
- on the recorded build every hash must match, and the failure lists each
  file that differs, is missing or is new;
- on another build the run still goes. If every hash matches, the test
  passes; otherwise it is skipped with the build and the differing files in
  its reason, so it never passes on bytes it could not check.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "sha256.txt"

COHORT = "cohort/cohort.csv"
TRAIN = ["--epochs", "3", "--folds", "3", "--k", "10"]
COMMANDS = [
    ["synth", "--out", "cohort", "--n-subjects", "60", "--seed", "0"],
    ["graph", "--cohort", COHORT, "--out", "graph", "--k", "10", "--dump-graph"],
    ["graph", "--cohort", COHORT, "--out", "graph_k1", "--k", "1", "--dump-graph"],
    *[command for scheme in ("spectral", "none", "jtt", "only_graph") for command in (
        ["train", "--cohort", COHORT, "--out", scheme, "--scheme", scheme, *TRAIN],
        ["report", "--run", scheme])],
    ["sweep", "--cohort", COHORT, "--out", "sweep", "--k", "5,10", "--c", "0.5,0.65",
     "--epochs", "2", "--folds", "3"],
]


def _openblas_config():
    """The configuration string of the OpenBLAS that numpy's linear-algebra
    extension links, which names the kernel set picked for this CPU, or None.
    The handle is the one `specweight.blas` uses: `dlsym` on it also searches
    the libraries the extension links."""
    import ctypes

    from numpy.linalg import _umath_linalg

    try:
        handle = ctypes.CDLL(os.fspath(_umath_linalg.__file__))
    except (TypeError, OSError):
        return None
    for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                 "openblas_get_config64_", "openblas_get_config"):
        fn = getattr(handle, name, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return " ".join(fn().decode().split())
    return None


def build() -> str:
    """numpy's version, its BLAS, and the CPU features numpy dispatches on."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        simd = " ".join(config["SIMD Extensions"]["found"])
        blas = _openblas_config() or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return f"numpy {np.__version__}; blas unknown"
    return f"numpy {np.__version__}; blas {blas}; simd {simd}"


def run_pipeline(workdir: Path) -> dict:
    """Run COMMANDS in `workdir`; relative path -> SHA-256 of each file written."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "specweight", *argv], cwd=workdir,
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, f"{' '.join(argv)}: {proc.stderr}"
    return {p.relative_to(workdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.rglob("*")) if p.is_file()}


def read_golden(path: Path = GOLDEN):
    """(build, {relative path: SHA-256}) of a golden file."""
    recorded, hashes = None, {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("build: "):
            recorded = line[len("build: "):]
        elif line and not line.startswith("#"):
            digest, name = line.split("  ", 1)
            hashes[name] = digest
    return recorded, hashes


def write_golden(hashes: dict, path: Path = GOLDEN) -> None:
    lines = ["# SHA-256 of every file that tests/test_golden.py's run writes.",
             "# Rewrite with: python scripts/update_golden.py",
             f"build: {build()}"]
    lines += [f"{digest}  {name}" for name, digest in sorted(hashes.items())]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def differences(expected: dict, actual: dict) -> list:
    return ([f"differs: {n}" for n in sorted(expected.keys() & actual.keys())
             if expected[n] != actual[n]]
            + [f"missing: {n}" for n in sorted(expected.keys() - actual.keys())]
            + [f"new: {n}" for n in sorted(actual.keys() - expected.keys())])


def test_run_writes_the_golden_bytes(tmp_path):
    recorded, expected = read_golden()
    diffs = differences(expected, run_pipeline(tmp_path))
    if diffs and recorded != build():
        pytest.skip(f"built on {recorded!r}, running on {build()!r}; "
                    f"{len(diffs)} files differ: " + ", ".join(diffs))
    assert not diffs, "\n".join(diffs)


def test_a_difference_fails_on_the_recorded_build_and_skips_on_another(monkeypatch,
                                                                       tmp_path):
    recorded, expected = read_golden()
    module = sys.modules[__name__]
    changed = dict(expected, **{"graph/basis.csv": "0" * 64})
    monkeypatch.setattr(module, "run_pipeline", lambda workdir: changed)
    monkeypatch.setattr(module, "build", lambda: recorded)
    with pytest.raises(AssertionError, match="differs: graph/basis.csv"):
        test_run_writes_the_golden_bytes(tmp_path)
    monkeypatch.setattr(module, "build", lambda: "another build")
    with pytest.raises(pytest.skip.Exception, match="1 files differ: differs: graph/basis.csv"):
        test_run_writes_the_golden_bytes(tmp_path)
    monkeypatch.setattr(module, "run_pipeline", lambda workdir: expected)
    test_run_writes_the_golden_bytes(tmp_path)
