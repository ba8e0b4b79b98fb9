#!/usr/bin/env python3
"""Rewrite tests/golden/sha256.txt from a fresh run of tests/test_golden.py's
commands on this machine's numpy and BLAS build.

Run it when a change alters output bytes on purpose, and say in the change
which files differ and why:

    python scripts/update_golden.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import test_golden  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = test_golden.run_pipeline(Path(tmp))
    before = test_golden.read_golden()[1] if test_golden.GOLDEN.is_file() else {}
    test_golden.write_golden(hashes)
    for line in test_golden.differences(before, hashes):
        print(line)
    print(f"wrote {len(hashes)} hashes to {test_golden.GOLDEN} ({test_golden.build()})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
