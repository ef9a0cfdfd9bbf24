"""Per-layer spans taken from outside the program.

``Tracer.install`` replaces each public entry point of a layer, at every
module that binds it, with a wrapper that records one span (name, start,
end, parent span, job, thread) around the call and passes arguments and
result through untouched.  Spans live in memory, one list per thread, and
``layer_metrics`` turns one pass worth of them into the per-layer metrics.
Counts that need work (distinct rows, tableau sizes, tree leaves) are
computed there, after the pass, from references the wrappers kept, so that
the traced pass pays only for two clock reads and a list append per call.

A layer's time is its spans' self time: duration minus the time of the
spans nested directly inside it on the same thread.  So the re-clustering
inside ``enforce`` counts as clustering, and the LPs inside the min-guess
branch and bound count as simplex.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module, attribute): every place the CLI path binds an entry
# point.  A layer called through a module attribute is patched on that
# module; one imported by name is patched where it was imported.
BINDINGS = (
    ("timing.gen", "leakmit.timing", "gen_mod_exp"),
    ("timing.gen", "leakmit.timing", "gen_branch_loop"),
    ("timing.read_csv", "leakmit.timing", "read_csv"),
    ("timing.write_csv", "leakmit.timing", "write_csv"),
    ("clustering.cluster", "leakmit.clustering", "cluster_functions"),
    ("clustering.cluster", "leakmit.enforcement", "cluster_functions"),
    ("clustering.cluster", "leakmit.baselines", "cluster_functions"),
    ("clustering.penalty", "leakmit.clustering", "penalty_matrix"),
    ("policy.report", "leakmit.cli", "build_report"),
    ("policy.report", "leakmit.cli", "policy_to_json"),
    ("policy.report", "leakmit.cli", "expected_overhead"),
    ("deterministic.det", "leakmit.cli", "synthesize_det"),
    ("deterministic.det", "leakmit.stochastic", "synthesize_det"),
    ("stochastic.minguess", "leakmit.cli", "synthesize_minguess"),
    ("stochastic.local", "leakmit.cli", "synthesize_local"),
    ("simplex.lp", "leakmit.stochastic", "solve_lp"),
    ("baselines.double", "leakmit.baselines", "double_scheme"),
    ("baselines.bucketing", "leakmit.baselines", "fit_buckets"),
    ("baselines.bucketing", "leakmit.baselines", "apply_buckets"),
    ("enforcement.features", "leakmit.enforcement", "mod_exp_counts"),
    ("enforcement.features", "leakmit.enforcement", "branch_loop_counts"),
    ("enforcement.features", "leakmit.enforcement", "counter_features"),
    ("enforcement.features", "leakmit.enforcement", "timing_features"),
    ("enforcement.samples", "leakmit.enforcement", "training_samples"),
    ("enforcement.learn_tree", "leakmit.enforcement", "learn_tree"),
    ("enforcement.enforce", "leakmit.enforcement", "enforce"),
)

# Spans whose arguments and result the metrics read after the pass.
KEEP_CALL = {
    "timing.read_csv", "timing.write_csv", "clustering.cluster", "simplex.lp",
    "stochastic.minguess", "stochastic.local", "enforcement.learn_tree",
    "enforcement.enforce",
}
SOLVERS = {"deterministic.det", "stochastic.minguess", "stochastic.local"}
LP_CALLER = {"stochastic.minguess": "bb", "stochastic.local": "jump"}

# Per-layer metric -> unit.  Every one is reported on every workload; a
# layer a workload bypasses reads 0.
PER_LAYER = {
    "enforcement.features_s": "s",
    "enforcement.samples_s": "s",
    "enforcement.learn_tree_s": "s",
    "enforcement.enforce_s": "s",
    "enforcement.executions": "count",
    "enforcement.tree_leaves": "count",
    "enforcement.hit_rate": "ratio",
    "clustering.cluster_s": "s",
    "clustering.penalty_s": "s",
    "clustering.calls": "count",
    "clustering.unique_rows": "count",
    "clustering.pair_cells": "count",
    "stochastic.minguess_s": "s",
    "stochastic.local_s": "s",
    "stochastic.bb_nodes": "count",
    "stochastic.restarts": "count",
    "simplex.lp_s.bb": "s",
    "simplex.lp_s.jump": "s",
    "simplex.lp_calls.bb": "count",
    "simplex.lp_calls.jump": "count",
    "simplex.tableau_cells.bb": "count",
    "simplex.tableau_cells.jump": "count",
    "deterministic.det_s": "s",
    "deterministic.calls": "count",
    "timing.gen_s": "s",
    "timing.read_csv_s": "s",
    "timing.read_csv_rows": "count",
    "timing.write_csv_s": "s",
    "timing.write_csv_rows": "count",
    "baselines.double_s": "s",
    "baselines.bucketing_s": "s",
    "policy.report_s": "s",
    "cli.self_s": "s",
    "cli.solver_overlap": "ratio",
    "trace.overhead_s": "s",
}


UNSET = object()  # result of a call that raised


class Span:
    __slots__ = ("name", "parent", "job", "thread", "start", "end", "call", "result")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.call = None
        self.result = UNSET


class Tracer:
    """Collects spans for one traced pass; ``job`` names the running job."""

    def __init__(self):
        self.job = None
        self.unbound: list[str] = []
        self._local = threading.local()
        self._lists: list[list[Span]] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _thread_state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self._lists.append(local.spans)
            return local.spans, local.stack

    def _wrap(self, name: str, fn):
        keep = name in KEEP_CALL

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            span = Span(name, stack[-1] if stack else None, self.job)
            if keep:
                span.call = (fn, args, kwargs)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep:
                span.result = result
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding; a binding the code no longer has is listed
        in ``unbound`` and its layer reads 0."""
        for name, module_name, attr in BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.unbound.append(f"{module_name}.{attr}")
                continue
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def spans(self) -> list[Span]:
        with self._lock:
            return [s for spans in self._lists for s in spans]


def _union_length(intervals) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _leaves(node) -> int:
    if hasattr(node, "left"):
        return _leaves(node.left) + _leaves(node.right)
    return 1


def _bound_args(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _tableau_cells(fn, args, kwargs) -> int:
    """Rows x columns of the initial tableau: every inequality (bound rows
    included) and equality, times structural, slack and one artificial
    column per equality, plus the right-hand side."""
    call = _bound_args(fn, args, kwargs)
    n = np.asarray(call["c"]).size
    m_ub = 0 if call.get("b_ub") is None else np.asarray(call["b_ub"]).size
    m_eq = 0 if call.get("b_eq") is None else np.asarray(call["b_eq"]).size
    bounds = call.get("bounds")
    if bounds is not None:
        m_ub += sum(1 for _, hi in bounds if hi is not None and np.isfinite(hi))
    m = m_ub + m_eq
    return m * (n + m_ub + m_eq + 1)


def layer_metrics(spans: list[Span], job_windows: dict) -> dict[str, float]:
    """Per-layer metrics of one pass.  ``job_windows`` maps each job to its
    (start, end) clock readings, for the CLI time no layer span covers.
    Keys beyond ``PER_LAYER`` (e.g. LPs from another caller) go to the
    report only."""
    out = dict.fromkeys(PER_LAYER, 0)
    nested = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            nested[id(s.parent)] += s.end - s.start
    hits = 0.0
    for s in spans:
        self_s = s.end - s.start - nested[id(s)]
        if s.name == "simplex.lp":
            caller = LP_CALLER.get(s.parent.name if s.parent else None, "other")
            for key, value in (("lp_s", self_s), ("lp_calls", 1),
                               ("tableau_cells", _tableau_cells(*s.call))):
                key = f"simplex.{key}.{caller}"
                out[key] = out.get(key, 0) + value
            continue
        out[f"{s.name}_s"] += self_s
        if s.name == "deterministic.det":
            out["deterministic.calls"] += 1
        if s.call is None or s.result is UNSET:
            continue
        fn, args, kwargs = s.call
        result = s.result
        if s.name == "clustering.cluster":
            times = _bound_args(fn, args, kwargs)["dataset"].times
            unique = int(np.unique(times, axis=0).shape[0])
            out["clustering.calls"] += 1
            out["clustering.unique_rows"] += unique
            out["clustering.pair_cells"] += unique * unique
        elif s.name == "stochastic.minguess":
            out["stochastic.bb_nodes"] += result[1].nodes_explored
        elif s.name == "stochastic.local":
            out["stochastic.restarts"] += result[1].restarts
        elif s.name == "enforcement.learn_tree":
            out["enforcement.tree_leaves"] += _leaves(result.root)
        elif s.name == "enforcement.enforce":
            executions = _bound_args(fn, args, kwargs)["dataset"].times.size
            out["enforcement.executions"] += executions
            hits += executions * (1.0 - result[1].misclassification_rate)
        elif s.name == "timing.read_csv":
            out["timing.read_csv_rows"] += result.times.size
        elif s.name == "timing.write_csv":
            out["timing.write_csv_rows"] += _bound_args(fn, args, kwargs)["dataset"].times.size
    if out["enforcement.executions"]:
        out["enforcement.hit_rate"] = hits / out["enforcement.executions"]

    roots = [s for s in spans if s.parent is None]
    out["cli.self_s"] = sum(
        (end - start) - _union_length((s.start, s.end) for s in roots if s.job == job)
        for job, (start, end) in job_windows.items()
    )
    solver = [(s.start, s.end) for s in roots if s.name in SOLVERS]
    covered = _union_length(solver)
    if covered > 0:
        out["cli.solver_overlap"] = sum(e - b for b, e in solver) / covered
    return out


def span_records(spans: list[Span], origin: float) -> list[list]:
    """Spans as plain lists for the report: name, start and end in seconds
    from ``origin``, index of the parent span, job, thread number."""
    index = {id(s): i for i, s in enumerate(spans)}
    threads: dict[int, int] = {}
    return [
        [s.name, s.start - origin, s.end - origin,
         index.get(id(s.parent)) if s.parent else None, s.job,
         threads.setdefault(s.thread, len(threads))]
        for s in spans
    ]
