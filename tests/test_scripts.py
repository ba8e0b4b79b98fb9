"""The experiment driver in scripts/ runs end to end and prints its table.
(`specweight sweep` prints its own K x c grid; tests/test_cli.py covers it.)"""

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
