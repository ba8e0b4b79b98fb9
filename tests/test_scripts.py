"""The experiment drivers in scripts/ run end to end and print their tables."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, tmp_path, *args):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), "--out", str(tmp_path), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout.splitlines()


def test_synthetic_study(tmp_path):
    lines = run_script("run_synthetic_study.py", tmp_path, "--n-subjects", "60", "--epochs", "1")
    table = lines[lines.index("scheme       BACC          F1            median-split gap") + 1:]
    assert [row.split()[0] for row in table] == ["none", "jtt", "only_graph", "spectral"]
    assert all("±" in row for row in table)
    assert table[0].endswith("n/a")   # unweighted: every weight equal, so no split
    assert table[1].endswith("n/a")   # jtt defines no test weights


def test_neighbor_centering_sweep(tmp_path):
    # 120 subjects: K=100, the largest default K, needs more than 101
    lines = run_script("run_neighbor_centering_sweep.py", tmp_path,
                       "--n-subjects", "120", "--epochs", "1")
    start = lines.index("median-split gap (BACC points), rows = K, cols = c")
    assert lines[start + 1].split() == ["0.50", "0.65", "0.70", "0.75", "1.00"]
    rows = lines[start + 2:start + 7]
    assert [row.split()[0] for row in rows] == ["K=10", "K=30", "K=50", "K=75", "K=100"]
    assert all(len(row.split()) == 6 for row in rows)
    assert lines[-1].startswith("best cell: K=")
    assert (tmp_path / "sweep_grid.csv").is_file()
