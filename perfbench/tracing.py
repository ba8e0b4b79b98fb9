"""Span recording around the calls into each specweight layer.

`Tracer.installed()` replaces, for its duration, the names that callers in
specweight actually look up (a module attribute such as
`factor_graph.symmetric_eigen`, or a class attribute such as
`RecurrentClassifier.forward`) with wrappers that record one span per call:
name, start, end and the index of the enclosing span. Spans stay in memory
until the benchmark computes its per-layer metrics. Nothing is patched
outside the `with` block, so untimed and untraced runs execute the program
unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time


def _bindings(sw):
    """(owner, attribute, span name) for every wrapped call site.

    `sw` is a namespace holding the specweight modules. Each entry names the
    binding the caller resolves at call time, which is not always the module
    that defines the function: `cmd_graph` calls `cli.basis_from_factors`,
    `cross_validate` calls `evaluation.basis_from_factors` and
    `tr.train_spectral`.
    """
    cli, fg, tr, ev = sw.cli, sw.factor_graph, sw.training, sw.evaluation
    return [
        (cli, "cmd_synth", "cli.synth"),
        (cli, "cmd_train", "cli.train"),
        (cli, "cmd_graph", "cli.graph"),
        (cli, "cmd_report", "cli.report"),
        (cli, "generate", "synth.generate"),
        (cli, "write_cohort_csv", "dataset.write_cohort_csv"),
        (cli, "read_cohort_csv", "dataset.read_cohort_csv"),
        (cli, "basis_from_factors", "factor_graph.basis_from_factors"),
        (ev, "basis_from_factors", "factor_graph.basis_from_factors"),
        (fg, "build_graph", "factor_graph.build_graph"),
        (fg, "laplacian", "factor_graph.laplacian"),
        (fg, "spectral_basis", "factor_graph.spectral_basis"),
        (fg, "symmetric_eigen", "linalg.symmetric_eigen"),
        (ev, "cross_validate", "evaluation.cross_validate"),
        (ev, "median_split_from_arrays", "evaluation.median_split"),
        (ev, "factor_subcohort_table", "evaluation.subcohort_table"),
        (ev, "mann_whitney_u", "evaluation.mann_whitney_u"),
        (tr, "train_spectral", "training.train_fold"),
        (tr, "train_baseline_none", "training.train_fold"),
        (tr, "adam_step", "training.adam_step"),
        (tr, "grad_a", "weight_field.grad_a"),
        (sw.predictor.RecurrentClassifier, "forward", "predictor.forward"),
        (sw.predictor.RecurrentClassifier, "backward", "predictor.backward"),
        (sw.weight_field.WeightField, "weights", "weight_field.weights"),
    ]


LAYERS = ("cli", "synth", "dataset", "factor_graph", "linalg", "predictor",
          "training", "weight_field", "evaluation")


class Tracer:
    """In-memory span store; one thread, so a plain stack gives the parent."""

    def __init__(self, sw):
        self._sw = sw
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.visits: list[int] = []   # visits per forward span, 0 elsewhere
        self._stack: list[int] = []

    def __len__(self):
        return len(self.names)

    def _wrap(self, fn, name):
        names, starts, ends = self.names, self.starts, self.ends
        parents, visits, stack = self.parents, self.visits, self._stack
        is_forward = name == "predictor.forward"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            visits.append(len(args[1]) if is_forward else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in _bindings(self._sw):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from a window of spans

def _median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(values):
    """(percentile, value) of the highest percentile among 50, 90, 99, 99.9
    that leaves at least ten samples above it; (0, 0) with no samples."""
    ordered = sorted(values)
    n = len(ordered)
    best = (0.0, 0.0)
    for pct in (50.0, 90.0, 99.0, 99.9):
        idx = min(n - 1, int(pct / 100.0 * n))
        if n - idx - 1 >= 10:
            best = (pct, ordered[idx])
    return best


class Window:
    """The spans recorded by one traced operation, indices [lo, hi)."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.t = tracer
        self.lo, self.hi = lo, hi
        self.by_name: dict[str, list[int]] = {}
        for i in range(lo, hi):
            self.by_name.setdefault(tracer.names[i], []).append(i)

    def durations(self, name):
        t = self.t
        return [t.ends[i] - t.starts[i] for i in self.by_name.get(name, ())]

    def count(self, name):
        return len(self.by_name.get(name, ()))

    def self_times(self, name, child_prefixes=None):
        """Span duration minus its direct children (only the children whose
        names start with one of `child_prefixes`, when given)."""
        t = self.t
        own = {i: t.ends[i] - t.starts[i] for i in self.by_name.get(name, ())}
        for i in range(self.lo, self.hi):
            p = t.parents[i]
            if p in own and (child_prefixes is None or t.names[i].startswith(child_prefixes)):
                own[p] -= t.ends[i] - t.starts[i]
        return list(own.values())

    def child_sum_per_parent(self, child, parent):
        t = self.t
        totals = dict.fromkeys(self.by_name.get(parent, ()), 0.0)
        for i in self.by_name.get(child, ()):
            if t.parents[i] in totals:
                totals[t.parents[i]] += t.ends[i] - t.starts[i]
        return list(totals.values())

    def layer_counts(self):
        counts = dict.fromkeys(LAYERS, 0)
        for name, ids in self.by_name.items():
            counts[name.split(".", 1)[0]] += len(ids)
        return counts

    def exact_counts(self):
        """Work counts that must repeat exactly between operations."""
        t = self.t
        return {
            "predictor.forward_calls": self.count("predictor.forward"),
            "predictor.backward_calls": self.count("predictor.backward"),
            "predictor.visits_forward": sum(
                t.visits[i] for i in self.by_name.get("predictor.forward", ())),
            "training.adam_steps": self.count("training.adam_step"),
            "linalg.symmetric_eigen_calls": self.count("linalg.symmetric_eigen"),
            "weight_field.grad_a_calls": self.count("weight_field.grad_a"),
            "weight_field.calls": (self.count("weight_field.weights")
                                   + self.count("weight_field.grad_a")),
            "evaluation.mann_whitney_calls": self.count("evaluation.mann_whitney_u"),
            "trace.spans": self.hi - self.lo,
        }


def _pooled(windows, method, *args):
    out = []
    for w in windows:
        out.extend(getattr(w, method)(*args))
    return out


def layer_metrics(primary, reports, setup):
    """Per-layer metrics from the traced windows of the primary operations,
    the report operations and the set-up. Times are medians per call unless
    the name says otherwise; counts are per primary operation, and the
    rank-test count is per report."""

    def med(windows, name, scale=1.0):
        return _median(_pooled(windows, "durations", name)) * scale

    counts = primary[0].exact_counts()
    fwd = [d * 1e6 for d in _pooled(primary, "durations", "predictor.forward")]
    bwd = [d * 1e6 for d in _pooled(primary, "durations", "predictor.backward")]
    fwd_pct, fwd_tail = tail_percentile(fwd)
    bwd_pct, bwd_tail = tail_percentile(bwd)
    eig = _pooled(primary, "durations", "linalg.symmetric_eigen")
    busy = [sum(w.durations("predictor.forward")) + sum(w.durations("predictor.backward"))
            for w in primary]
    fold_self = _pooled(primary, "self_times", "training.train_fold",
                        ("predictor.", "weight_field.", "training.adam_step"))
    cli_self = (_pooled(primary, "self_times", "cli.train")
                + _pooled(primary, "self_times", "cli.graph"))
    return {
        "linalg.symmetric_eigen_s": (_median(eig), "s"),
        "linalg.symmetric_eigen_max_s": (max(eig, default=0.0), "s"),
        "linalg.symmetric_eigen_calls": (counts["linalg.symmetric_eigen_calls"], "count"),
        "factor_graph.build_graph_s": (med(primary, "factor_graph.build_graph"), "s"),
        "factor_graph.laplacian_s": (med(primary, "factor_graph.laplacian"), "s"),
        "factor_graph.spectral_basis_s": (med(primary, "factor_graph.spectral_basis"), "s"),
        "factor_graph.basis_from_factors_s": (
            med(primary, "factor_graph.basis_from_factors"), "s"),
        "predictor.forward_us": (_median(fwd), "us"),
        "predictor.forward_tail_us": (fwd_tail, "us"),
        "predictor.forward_tail_pct": (fwd_pct, "%"),
        "predictor.forward_samples": (len(fwd), "count"),
        "predictor.backward_us": (_median(bwd), "us"),
        "predictor.backward_tail_us": (bwd_tail, "us"),
        "predictor.backward_tail_pct": (bwd_pct, "%"),
        "predictor.backward_samples": (len(bwd), "count"),
        "predictor.forward_calls": (counts["predictor.forward_calls"], "count"),
        "predictor.backward_calls": (counts["predictor.backward_calls"], "count"),
        "predictor.visits_forward": (counts["predictor.visits_forward"], "count"),
        "predictor.busy_s": (_median(busy), "s"),
        "training.train_fold_s": (med(primary, "training.train_fold"), "s"),
        "training.adam_step_us": (med(primary, "training.adam_step", 1e6), "us"),
        "training.adam_steps": (counts["training.adam_steps"], "count"),
        "training.self_s": (_median(fold_self), "s"),
        "weight_field.weights_us": (med(primary, "weight_field.weights", 1e6), "us"),
        "weight_field.grad_a_us": (med(primary, "weight_field.grad_a", 1e6), "us"),
        "weight_field.calls": (counts["weight_field.calls"], "count"),
        "weight_field.grad_a_calls": (counts["weight_field.grad_a_calls"], "count"),
        "evaluation.cross_validate_s": (med(primary, "evaluation.cross_validate"), "s"),
        "evaluation.scoring_s": (_median(_pooled(
            primary, "child_sum_per_parent", "predictor.forward", "evaluation.cross_validate")), "s"),
        "evaluation.median_split_ms": (med(reports, "evaluation.median_split", 1e3), "ms"),
        "evaluation.subcohort_table_ms": (med(reports, "evaluation.subcohort_table", 1e3), "ms"),
        "evaluation.mann_whitney_calls": (
            reports[0].count("evaluation.mann_whitney_u") if reports else 0, "count"),
        "dataset.read_cohort_csv_s": (med(primary, "dataset.read_cohort_csv"), "s"),
        "dataset.write_cohort_csv_s": (med(setup, "dataset.write_cohort_csv"), "s"),
        "synth.generate_s": (med(setup, "synth.generate"), "s"),
        "cli.train_s": (med(primary, "cli.train"), "s"),
        "cli.graph_s": (med(primary, "cli.graph"), "s"),
        "cli.report_s": (med(reports, "cli.report"), "s"),
        "cli.self_s": (_median(cli_self), "s"),
        "trace.spans": (counts["trace.spans"], "count"),
    }
