"""specweight benchmark: three CLI workloads, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload cv_spectral --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, default seed

--seed picks the synthetic cohort (default 1). Seed 7 is kept aside: check a
claimed gain on it as well, since it was not used while tuning the benchmark
or writing the change.

One process per workload, one closed-loop client: every command runs in
that process through `specweight.cli.main`, and the next starts when the
previous one returns. `--workload all` runs each workload in a child process
of its own. With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run. Earlier lines print every metric by name and unit, the
workload-specific figures and the machine context. The exit code is 2 when
the specweight sources are missing, 1 when no operation succeeded, else 0;
`correct` is false whenever an operation or a check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HOLDOUT_SEED = 7
SETUP_REPEATS = 9
REPORT_SHARE = 0.1     # of --seconds, spent on `report` after the primary loop
MIN_REPORTS = 10


def import_specweight():
    """The specweight package from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import specweight
        from specweight import (cli, dataset, evaluation, factor_graph, predictor,
                                training, weight_field)
    except ImportError as exc:
        print(f"cannot import specweight from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(specweight.__file__).resolve().is_relative_to(src.resolve()):
        print(f"specweight was imported from {specweight.__file__}, not from {src}",
              file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(cli=cli, dataset=dataset, evaluation=evaluation,
                                 factor_graph=factor_graph, predictor=predictor,
                                 training=training, weight_field=weight_field)


def machine_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": src_lines,
    }


class Run:
    """One benchmark invocation on one workload: counters and operations.

    A result's "spans" are the (start, end) of each CLI command it ran;
    `op` adds each command's seconds in wall time ("wall_each") and at
    the reference machine speed ("ref_each"), and their sums."""

    def __init__(self, sw, workload, seed: int, seconds: float, work: Path, probe):
        self.sw = sw
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.cohort = self.work / "cohort0" / "cohort.csv"

    def op(self, label, fn, *args):
        """Run one operation; a raised exception or failed check counts it
        failed."""
        self.attempted += 1
        try:
            res = fn(*args)
        except Exception:  # keep going: the failure is counted and reported
            self.failed += 1
            print(f"{self.w.name}: {label} failed\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if res is not None and "spans" in res:
            res["wall_each"] = [t1 - t0 for t0, t1 in res["spans"]]
            res["ref_each"] = [self.probe.ref_seconds(t0, t1) for t0, t1 in res["spans"]]
            res["wall"] = sum(res["wall_each"])
            res["ref"] = sum(res["ref_each"])
        return res

    def setup(self) -> list[dict]:
        """Generate the cohort SETUP_REPEATS times; the copies must be identical."""
        results = []
        for i in range(SETUP_REPEATS):
            res = self.op("synth", self.w.synth, self.sw, self.work / f"cohort{i}", self.seed)
            if res is not None:
                results.append(res)

        def identical():
            first = self.cohort.read_bytes()
            workloads.check(all((self.work / f"cohort{i}" / "cohort.csv").read_bytes() == first
                                for i in range(1, SETUP_REPEATS)),
                            "cohort bytes differ between set-ups")

        self.op("set-up check", identical)
        return results

    def primary(self, j: int):
        out = self.work / f"op{j}"

        def run_and_check():
            res = self.w.primary(self.sw, self.cohort, out)
            self.w.check_primary(out, None if j == 0 else self.work / "op0")
            return res

        return self.op(f"primary operation {j}", run_and_check)

    def report(self, j: int, first: dict | None):
        run_dir = self.work / "op0"
        out = self.work / "report"

        def run_and_check():
            res = self.w.report(self.sw, run_dir, out)
            res.update(self.w.check_report(run_dir, out, first["bytes"] if first else None))
            return res

        return self.op(f"report {j}", run_and_check)

    def primary_loop(self, budget: float, min_ops: int, start: int = 0, around=None):
        """Closed loop of primary operations while the next one is expected
        to end within `budget` seconds, and at least `min_ops` of them."""
        t0 = time.perf_counter()
        results, longest = [], 0.0
        j = start
        while True:
            t = time.perf_counter()
            res = around(j) if around else self.primary(j)
            longest = max(longest, time.perf_counter() - t)
            j += 1
            if res is not None:
                results.append(res)
            if j - start >= min_ops and time.perf_counter() - t0 + longest > budget:
                return results

    def report_loop(self, budget: float, around=None):
        t0 = time.perf_counter()
        results, first, j = [], None, 0
        while j < MIN_REPORTS or time.perf_counter() - t0 < budget:
            res = around(j, first) if around else self.report(j, first)
            j += 1
            if res is not None:
                first = first or res
                results.append(res)
        return results


def timed(run: Run) -> dict:
    w = run.w
    setup = run.setup()
    w.prepare(run.sw, run.cohort)
    primary_budget = run.seconds * (1.0 - REPORT_SHARE if w.has_reports else 1.0)
    primary = run.primary_loop(primary_budget, w.min_primary_ops)
    reports = run.report_loop(run.seconds * REPORT_SHARE) if w.has_reports else []
    if not setup or not primary:
        print(f"{w.name}: no successful operation to measure", file=sys.stderr)
        sys.exit(1)

    med = statistics.median

    def rate(results, per_op, clock="ref"):
        return med(per_op(r) / r[clock] for r in results)

    def per_command(results, clock="ref"):
        return 1.0 / med(t for r in results for t in r[clock + "_each"])

    metrics = {
        "setup_s": (med(r["ref"] for r in setup), "s"),
        "commands_per_s": (per_command(primary), "1/s"),
        # This process runs one workload only; see main().
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "setup_wall_s": (med(r["wall"] for r in setup), "s"),
        "commands_per_wall_s": (per_command(primary, "wall"), "1/s"),
    }
    if w.has_reports:
        extra["fit_subjects_per_s"] = (rate(primary, lambda r: r["fit_subjects"]), "1/s")
        if reports:
            extra["reports_per_s"] = (rate(reports, lambda r: 1), "1/s")
            extra["cv_bacc"] = (reports[0]["cv_bacc"], "fraction")
            if not w.degenerate_split:
                extra["gap_points"] = (reports[0]["gap_points"], "points")
    else:
        extra["bases_per_s"] = metrics["commands_per_s"]
    t_all = [t for r in setup + primary + reports for span in r["spans"] for t in span]
    probe_rate = run.probe.rate(min(t_all), max(t_all))
    extra["probe_rate"] = (probe_rate, "1/s")
    extra["machine_speed"] = (probe_rate / speed.REF_RATE, "ratio")
    extra["primary_ops"] = (len(primary), "count")
    extra["report_ops"] = (len(reports), "count")
    return {"metrics": metrics, "extra": extra}


def traced(run: Run) -> dict:
    """Per-layer metrics from a traced run, plus the tracing overhead.

    After one warm-up operation, traced and untraced primary operations
    alternate; the overhead compares their medians at reference speed."""
    w = run.w
    tracer = tracing.Tracer(run.sw)
    windows = {"setup": [], "primary": [], "report": []}

    def in_window(kind, fn, *args):
        lo = len(tracer)
        with tracer.installed():
            res = fn(*args)
        windows[kind].append(tracing.Window(tracer, lo, len(tracer)))
        return res

    in_window("setup", run.setup)
    w.prepare(run.sw, run.cohort)
    run.primary_loop(0.0, 1)   # warm-up: checked, neither traced nor timed
    untraced, traced_ops = [], []

    def alternate(j):
        if j % 2:
            res = in_window("primary", run.primary, j)
            results = traced_ops
        else:
            res = run.primary(j)
            results = untraced
        if res is not None:
            results.append(res)
        return res

    run.primary_loop(run.seconds, 3, start=1, around=alternate)
    if w.has_reports:
        run.report_loop(run.seconds * REPORT_SHARE,
                        around=lambda j, first: in_window("report", run.report, j, first))
    if not untraced or not traced_ops:
        print(f"{w.name}: no successful operation to trace", file=sys.stderr)
        sys.exit(1)

    def consistency():
        for kind in ("primary", "report"):
            counts = [win.exact_counts() for win in windows[kind]]
            workloads.check(all(c == counts[0] for c in counts),
                            f"{kind} work counts differ between operations: {counts}")
        seen = dict.fromkeys(tracing.LAYERS, 0)
        for kind_windows in windows.values():
            for win in kind_windows:
                for layer, n in win.layer_counts().items():
                    seen[layer] += n
        missing = [layer for layer in w.uses if seen[layer] == 0]
        leaked = [layer for layer in w.bypasses if seen[layer] != 0]
        workloads.check(not missing, f"layers recorded no spans: {missing}")
        workloads.check(not leaked, f"bypassed layers recorded spans: {leaked}")

    run.op("trace consistency", consistency)
    untraced_ref = statistics.median(r["ref"] for r in untraced)
    traced_ref = statistics.median(r["ref"] for r in traced_ops)
    metrics = tracing.layer_metrics(windows["primary"], windows["report"], windows["setup"])
    metrics["trace.overhead_pct"] = (100.0 * (traced_ref / untraced_ref - 1.0), "%")
    return {"metrics": metrics, "extra": {}}


def run_workload(sw, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with speed.SpeedProbe() as probe:
            run = Run(sw, workloads.make(name), seed, seconds, work, probe)
            result = traced(run) if trace else timed(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only when no other run is using it
    result.update(correct=run.failed == 0, attempted=run.attempted, failed=run.failed)
    return result


def print_block(name: str, result: dict) -> None:
    for key, (value, unit) in {**result["metrics"], **result["extra"]}.items():
        print(f"{name:<13} {key:<36} {value:>16.6g} {unit}")
    print(f"{name:<13} {'ops_attempted':<36} {result['attempted']:>16d} count")
    print(f"{name:<13} {'ops_failed':<36} {result['failed']:>16d} count")


def run_children(args) -> int:
    """Run every workload in a child process of its own, so that each one's
    peak_rss_mb is its own, then print the merged result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout, end="")
            print(f"{name}: benchmark exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"cohort seed (default {DEFAULT_SEED}; hold-out seed {HOLDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured loop per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_children(args)
    sw = import_specweight()
    print("context " + json.dumps(machine_context(), sort_keys=True))
    result = run_workload(sw, args.workload, args.seed, args.seconds, bool(args.trace))
    print_block(args.workload, result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
