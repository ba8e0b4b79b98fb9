"""Does the reference-speed rescaling move with a program change as wall time does?

Runs two variants of one command in this process, alternating A B B A ...,
so that both meet the same host states. Prints the B/A ratio of their summed
wall seconds, of their summed reference-speed seconds and of the probe's
mean rate during them. The two time ratios should agree, and the probe
ratio should be near 1: the probe measures the host, not the program.

    python3 perfbench/probe_check.py slowdown --pairs 16
    python3 perfbench/probe_check.py threads --pairs 12

`slowdown`: `train --scheme none --epochs 1` on the longseq_none cohort; B
adds a fixed empty Python loop to every GRU forward call. `threads`:
`graph --k 50` on the default cohort; A runs OpenBLAS with 2 threads, B
with 1. It needs numpy's bundled scipy-openblas.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import os
import shutil
from pathlib import Path

import numpy as np

import run
import speed
import workloads


def openblas_set_threads():
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        return ctypes.CDLL(str(lib)).scipy_openblas_set_num_threads64_
    raise SystemExit(f"no scipy-openblas library under {libs}")


def variants(sw, kind, work):
    """(run A, run B); each returns the (start, end) of one command."""
    if kind == "slowdown":
        workloads.run_cli(sw, "synth", "--out", work / "c", "--seed", 2, "--max-visits", 24)
        gru = sw.predictor.RecurrentClassifier
        forward = gru.forward

        def slow_forward(self, sequence):
            for _ in range(4000):
                pass
            return forward(self, sequence)

        def train(patch):
            gru.forward = patch
            try:
                return workloads.run_cli(sw, "train", "--cohort", work / "c" / "cohort.csv",
                                         "--out", work / "t", "--scheme", "none",
                                         "--epochs", 1, *workloads.PAPER_FLAGS)
            finally:
                gru.forward = forward

        return lambda: train(forward), lambda: train(slow_forward)

    workloads.run_cli(sw, "synth", "--out", work / "c", "--seed", 2)
    set_threads = openblas_set_threads()

    def graph(threads):
        set_threads(threads)
        return workloads.run_cli(sw, "graph", "--cohort", work / "c" / "cohort.csv",
                                 "--out", work / "g", "--k", 50, "--m", "auto")

    return lambda: graph(2), lambda: graph(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("kind", choices=("slowdown", "threads"))
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args()

    sw = run.import_specweight()
    work = run.ROOT / ".bench_work" / f"probe-check-{os.getpid()}"
    work.mkdir(parents=True)
    spans = {"A": [], "B": []}
    try:
        with speed.SpeedProbe() as probe:
            a, b = variants(sw, args.kind, work)
            for i in range(args.pairs):
                for name in ("AB" if i % 2 == 0 else "BA"):
                    spans[name].append((a if name == "A" else b)())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only when no other run is using it

    def total(name, seconds):
        return sum(seconds(t0, t1) for t0, t1 in spans[name])

    def mean_rate(name):
        return sum(probe.rate(t0, t1) for t0, t1 in spans[name]) / len(spans[name])

    wall = lambda t0, t1: t1 - t0
    print(f"wall seconds      B/A {total('B', wall) / total('A', wall):.4f}")
    print(f"reference seconds B/A {total('B', probe.ref_seconds) / total('A', probe.ref_seconds):.4f}")
    print(f"probe rate        B/A {mean_rate('B') / mean_rate('A'):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
