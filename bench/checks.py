"""Output checks for one job, independent of the leakmit code they check.

Each check reads a job's artifacts and returns ``(errors, gains)``: the list
of violated properties (empty when the job passed) and the
``entropy_after / entropy_before`` ratios that ``sweep_gain`` averages.
The entropy formulas are restated here from the README definitions rather
than imported, so a wrong formula in the package cannot vouch for itself.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import SWEEP_BUDGETS, Job

TOL = 1e-9
COMPARE_METHODS = ("initial", "double", "bucketing", "det", "stoch")


def entropy(sizes, measure: str) -> float:
    pos = [float(s) for s in sizes if s > 0]
    total = sum(pos)
    if measure == "shannon":
        return sum(s * math.log2(s) for s in pos) / total
    if measure == "guessing":
        return sum(s * s for s in pos) / (2.0 * total) + 0.5
    return (min(pos) + 1.0) / 2.0


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _missing(out: Path, names) -> list[str]:
    return [f"{name} was not written" for name in names if not (out / name).is_file()]


def check_enforce(out: Path, job: Job) -> tuple[list[str], list[float]]:
    """policy.json is a valid upward policy within budget; enforcement.json is sane."""
    errors = _missing(out, ("classes.json", "policy.json", "tree.json",
                            "mitigated.csv", "enforcement.json", "summary.csv"))
    if errors:
        return errors, []
    classes = json.loads((out / "classes.json").read_text())
    policy = json.loads((out / "policy.json").read_text())
    report = json.loads((out / "enforcement.json").read_text())
    sizes = [c["size"] for c in classes["classes"]]
    penalty = classes["penalty"]
    matrix = policy["matrix"]
    k = len(sizes)
    total = float(sum(sizes))
    if policy["k"] != k or len(matrix) != k:
        return [f"policy is {len(matrix)} x {len(matrix)} for {k} classes"], []

    overhead = 0.0
    after = [0.0] * k
    for i, row in enumerate(matrix):
        if len(row) != k or abs(sum(row) - 1.0) > TOL:
            errors.append(f"policy row {i} is not a distribution")
        for j, v in enumerate(row):
            if v < -TOL or v > 1.0 + TOL:
                errors.append(f"policy entry ({i},{j}) = {v!r} outside [0, 1]")
            if j < i and v != 0.0:
                errors.append(f"policy entry ({i},{j}) is below the diagonal")
            if penalty[i][j] is None:
                if v > TOL:
                    errors.append(f"policy moves mass on forbidden ({i},{j})")
            else:
                overhead += sizes[i] * v * penalty[i][j] / total
            after[j] += sizes[i] * v
    if overhead > job.delta + TOL:
        errors.append(f"recomputed overhead {overhead!r} exceeds delta {job.delta!r}")
    if not _close(overhead, policy["overhead"]):
        errors.append(f"policy.json overhead {policy['overhead']!r} != {overhead!r}")
    before = entropy(sizes, job.measure)
    if not _close(before, policy["entropy_before"]):
        errors.append("policy.json entropy_before disagrees with classes.json")
    if not _close(entropy(after, job.measure), policy["entropy_after"]):
        errors.append("policy.json entropy_after disagrees with its matrix")

    if report["realized_overhead"] < 0:
        errors.append(f"realized overhead {report['realized_overhead']!r} < 0")
    if report["classes_after"] > k:
        errors.append(f"{report['classes_after']} classes after enforcement > k = {k}")
    if sum(report["class_sizes_after"]) != sum(sizes):
        errors.append("enforcement lost or invented secrets")
    return errors, [policy["entropy_after"] / before]


def check_compare(out: Path, job: Job) -> tuple[list[str], list[float]]:
    """compare.csv has every method, within budget, with B&B at least the DP."""
    errors = _missing(out, ("compare.csv",))
    if errors:
        return errors, []
    rows = _read_csv(out / "compare.csv")
    methods = tuple(r["method"] for r in rows)
    if methods != COMPARE_METHODS:
        return [f"compare.csv methods {methods} != {COMPARE_METHODS}"], []
    by = {r["method"]: r for r in rows}
    for r in rows:
        if float(r["overhead"]) < 0 or int(r["classes_after"]) < 1:
            errors.append(f"compare.csv row {r['method']} is out of range")
    if float(by["initial"]["overhead"]) != 0.0:
        errors.append("compare.csv initial row has overhead")
    for algo in ("det", "stoch"):
        if float(by[algo]["overhead"]) > job.delta + TOL:
            errors.append(f"compare.csv {algo} overhead exceeds delta")
    det, stoch = (float(by[a][job.measure]) for a in ("det", "stoch"))
    if stoch < det - TOL * max(1.0, abs(det)):
        errors.append(f"compare.csv stoch {job.measure} {stoch!r} < det {det!r}")
    return errors, []


def check_sweep(out: Path, job: Job) -> tuple[list[str], list[float]]:
    """sweep.csv covers the grid, is monotone in the budget, and stoch >= det."""
    errors = _missing(out, ("sweep.csv", "sweep.svg"))
    if errors:
        return errors, []
    rows = _read_csv(out / "sweep.csv")
    before = entropy(job.sizes, job.measure)
    series = {}
    for r in rows:
        delta, ent, over = float(r["delta"]), float(r["entropy_after"]), float(r["overhead"])
        if r["measure"] != job.measure:
            errors.append(f"sweep.csv row measures {r['measure']}, not {job.measure}")
        if over < 0 or over > delta + TOL:
            errors.append(f"sweep.csv {r['algo']} overhead {over!r} at delta {delta!r}")
        if ent < before - TOL * max(1.0, before):
            errors.append(f"sweep.csv {r['algo']} at {delta!r} is below the identity")
        series.setdefault(r["algo"], []).append((delta, ent))
    if sorted(series) != ["det", "stoch"]:
        return errors + [f"sweep.csv algorithms {sorted(series)}"], []
    for algo, points in series.items():
        deltas = [d for d, _ in points]
        if len(deltas) != len(SWEEP_BUDGETS) or not all(map(_close, deltas, SWEEP_BUDGETS)):
            errors.append(f"sweep.csv {algo} budgets do not match the grid")
        ents = [e for _, e in points]
        if any(b < a for a, b in zip(ents, ents[1:])):
            errors.append(f"sweep.csv {algo} entropies are not monotone in the budget")
    for (delta, det), (_, stoch) in zip(series["det"], series["stoch"]):
        if stoch < det - TOL * max(1.0, abs(det)):
            errors.append(f"sweep.csv stoch {stoch!r} < det {det!r} at delta {delta!r}")
    return errors, [float(r["entropy_after"]) / before for r in rows]


CHECKS = {"enforce": check_enforce, "compare": check_compare, "sweep": check_sweep}
