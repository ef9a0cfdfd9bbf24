"""Deterministic policy synthesis over contiguous class merges.

Because the classes are totally ordered and padding is the only move, an
optimal deterministic policy merges contiguous runs of classes and elevates
each run to its top class.  The search space is therefore the set of
contiguous partitions of the k classes, and the dynamic program below walks
it exactly:

    state (i, r) = partitions of the first i classes into r blocks

Each state keeps the Pareto frontier of (objective, spent budget) pairs, so a
cheaper prefix with a worse objective survives whenever it might enable a
better completion under the budget.  That bookkeeping is what makes the
program agree with brute-force enumeration for every instance, not just the
friendly ones.  Objectives decompose per block: min-guess combines blocks with
``min``, while shannon and guessing accumulate additive block terms that are
rescaled into entropies at the end.

``scan_all_r=False`` stops at the smallest feasible block count (coarsest
useful answer first); ``scan_all_r=True`` examines every block count and
returns the best feasible objective overall.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .clustering import ObservationClassSet
from .entropy import EntropyMeasure
from .policy import MitigationPolicy, blocks_policy

__all__ = ["DpTables", "synthesize_det", "brute_force_det"]


@dataclass(frozen=True)
class DpTables:
    """Per-state summaries of the synthesis run.

    ``value[i][r]`` is the best feasible objective (entropy scale) over
    partitions of the first i classes into r blocks, ``penalty[i][r]`` the
    budget spent by that best point (inf when the state is infeasible).
    Row and column 0 are padding so indices read naturally.
    """

    value: np.ndarray
    penalty: np.ndarray
    measure: EntropyMeasure
    delta: float

    def to_csv(self, path: str | Path) -> None:
        k = self.value.shape[0] - 1
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["i"]
                + [f"value_r{r}" for r in range(1, k + 1)]
                + [f"penalty_r{r}" for r in range(1, k + 1)]
            )
            for i in range(1, k + 1):
                writer.writerow(
                    [i]
                    + [repr(float(self.value[i][r])) for r in range(1, k + 1)]
                    + [repr(float(self.penalty[i][r])) for r in range(1, k + 1)]
                )


def _block_tables(classes: ObservationClassSet, measure: EntropyMeasure):
    """Raw objective and budget cost of every contiguous block [lo, hi].

    Shared by the dynamic program and the brute-force oracle so both sides
    make feasibility calls on bit-identical floats.
    """
    sizes = classes.sizes
    k = classes.k
    total = sizes.sum()
    weights = sizes / total
    pen = classes.penalty
    block_cost = np.zeros((k, k))
    block_raw = np.zeros((k, k))
    for hi in range(k):
        cost = 0.0
        size = 0.0
        for lo in range(hi, -1, -1):
            cost += weights[lo] * pen[lo, hi]
            size += sizes[lo]
            block_cost[lo, hi] = cost
            if measure is EntropyMeasure.MINGUESS:
                block_raw[lo, hi] = (size + 1.0) / 2.0
            elif measure is EntropyMeasure.SHANNON:
                block_raw[lo, hi] = size * np.log2(size) if size > 0 else 0.0
            else:
                block_raw[lo, hi] = size * size
    return block_cost, block_raw, total


def _combine(measure: EntropyMeasure, prefix: float, block: float) -> float:
    if measure is EntropyMeasure.MINGUESS:
        return min(prefix, block)
    return prefix + block


def _finalize(measure: EntropyMeasure, raw: float, total: float) -> float:
    if measure is EntropyMeasure.MINGUESS:
        return raw
    if measure is EntropyMeasure.SHANNON:
        return raw / total
    return raw / (2.0 * total) + 0.5


def _pareto(points: list[tuple[float, float, int, int]]):
    """Keep maximal (value, cost) points: sort by cost, demand value to rise."""
    points.sort(key=lambda p: (p[1], -p[0]))
    kept: list[tuple[float, float, int, int]] = []
    best = -np.inf
    for p in points:
        if p[0] > best:
            kept.append(p)
            best = p[0]
    return kept


def synthesize_det(
    classes: ObservationClassSet,
    measure: EntropyMeasure | str,
    delta: float,
    scan_all_r: bool = False,
) -> tuple[MitigationPolicy, DpTables]:
    """Budget-constrained exact search over contiguous merge policies."""
    measure = EntropyMeasure(measure)
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    k = classes.k
    block_cost, block_raw, total = _block_tables(classes, measure)

    value = np.full((k + 1, k + 1), -np.inf)
    penalty = np.full((k + 1, k + 1), np.inf)

    # states[i] holds the frontier for (i, r) at the r currently being filled;
    # each point is (raw objective, spent budget, predecessor i, point index).
    states: list[list[list[tuple[float, float, int, int]]]] = [
        [[] for _ in range(k + 1)] for _ in range(k + 1)
    ]
    for i in range(1, k + 1):
        value[i][1] = _finalize(measure, block_raw[0, i - 1], total)
        cost = block_cost[0, i - 1]
        if cost <= delta:
            states[i][1] = [(block_raw[0, i - 1], cost, 0, -1)]
            penalty[i][1] = cost

    chosen_r = 0
    feasible_r: list[int] = []
    if states[k][1]:
        feasible_r.append(1)
    if feasible_r and not scan_all_r:
        chosen_r = 1
    else:
        for r in range(2, k + 1):
            for i in range(r, k + 1):
                candidates: list[tuple[float, float, int, int]] = []
                for j in range(r - 1, i):
                    for idx, (raw, cost, _, _) in enumerate(states[j][r - 1]):
                        new_cost = cost + block_cost[j, i - 1]
                        if new_cost <= delta:
                            candidates.append(
                                (
                                    _combine(measure, raw, block_raw[j, i - 1]),
                                    new_cost,
                                    j,
                                    idx,
                                )
                            )
                frontier = _pareto(candidates)
                states[i][r] = frontier
                if frontier:
                    best = max(frontier, key=lambda p: p[0])
                    value[i][r] = _finalize(measure, best[0], total)
                    penalty[i][r] = best[1]
            if states[k][r]:
                feasible_r.append(r)
                if not scan_all_r:
                    chosen_r = r
                    break
        if not chosen_r:
            # Identity (r = k) costs nothing, so some r is always feasible.
            chosen_r = max(
                feasible_r, key=lambda r: (value[k][r], -r)
            )

    best_idx = max(
        range(len(states[k][chosen_r])),
        key=lambda idx: states[k][chosen_r][idx][0],
    )
    blocks: list[tuple[int, int]] = []
    i, r, idx = k, chosen_r, best_idx
    while r > 0:
        raw, cost, j, prev_idx = states[i][r][idx]
        blocks.append((j, i - 1))
        i, r, idx = j, r - 1, prev_idx
    blocks.reverse()

    tables = DpTables(value, penalty, measure, float(delta))
    return blocks_policy(blocks, k), tables


def brute_force_det(
    classes: ObservationClassSet,
    measure: EntropyMeasure | str,
    delta: float,
) -> MitigationPolicy:
    """Enumerate every contiguous partition and keep the best feasible one.

    Ties prefer fewer blocks, then the lexicographically smallest cut set.
    Guarded to k <= 12 (2**(k-1) partitions).
    """
    measure = EntropyMeasure(measure)
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    k = classes.k
    if k > 12:
        raise ValueError("brute force is limited to k <= 12 classes")
    block_cost, block_raw, total = _block_tables(classes, measure)

    best = None
    for n_cuts in range(k):
        for cuts in combinations(range(1, k), n_cuts):
            edges = (0,) + cuts + (k,)
            raw = np.inf if measure is EntropyMeasure.MINGUESS else 0.0
            cost = 0.0
            for lo, nxt in zip(edges, edges[1:]):
                cost += block_cost[lo, nxt - 1]
                raw = _combine(measure, raw, block_raw[lo, nxt - 1])
            if cost > delta:
                continue
            key = (_finalize(measure, raw, total), -len(edges), tuple(-c for c in cuts))
            if best is None or key > best[0]:
                blocks = [(lo, nxt - 1) for lo, nxt in zip(edges, edges[1:])]
                best = (key, blocks)
    if best is None:
        raise ValueError("no feasible partition, which is impossible for delta >= 0")
    return blocks_policy(best[1], k)
