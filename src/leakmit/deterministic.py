"""Deterministic policy synthesis, exact over contiguous merges.

The classes are totally ordered and padding is the only move, so merging a
contiguous run of classes and elevating it to its top class is always
feasible.  The dynamic program below searches exactly the contiguous
partitions of the k classes.  It is not exact over all deterministic
policies: a non-contiguous upward map (say 0 -> 2 with 1 kept apart) can
beat every contiguous partition under the same budget.

    state (i, r) = partitions of the first i classes into r blocks

Each state keeps the Pareto frontier of (objective, spent budget) pairs, so a
cheaper prefix with a worse objective survives whenever it might enable a
better completion under the budget.  That bookkeeping is what makes the
program agree with brute-force enumeration of contiguous partitions for
every instance, not just the friendly ones.  Objectives decompose per block:
each block contributes its measure's ``term`` of the block size, blocks are
folded with the measure's ``combine`` (``+`` or ``min``), and the raw result
is mapped onto the entropy scale by ``finalize`` (see ``entropy.MEASURES``).
The program fills every block count and returns the partition with the best
feasible objective over all of them, the fewest blocks on ties.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

import numpy as np

from .clustering import ObservationClassSet
from .entropy import MEASURES, EntropyMeasure
from .policy import MitigationPolicy, blocks_policy, check_class_count

__all__ = ["synthesize_det", "brute_force_det"]


def _block_tables(classes: ObservationClassSet, measure: EntropyMeasure):
    """Raw objective and budget cost of every contiguous block [lo, hi].

    Shared by the dynamic program and the brute-force oracle so both sides
    make feasibility calls on bit-identical floats.
    """
    term = MEASURES[measure].term
    sizes = classes.sizes
    k = classes.k
    total = sizes.sum()
    # Each column of the upper triangle summed upward from its diagonal.  The
    # rows below hold +0.0, so entry [lo, hi] adds rows hi, hi - 1, ..., lo
    # one at a time, in that order.
    cost = np.triu((sizes / total)[:, None] * classes.penalty)
    block_cost = np.cumsum(cost[::-1], axis=0)[::-1]
    size = np.triu(np.broadcast_to(sizes[:, None], (k, k)))
    block_size = np.cumsum(size[::-1], axis=0)[::-1]
    upper = np.triu_indices(k)
    block_raw = np.zeros((k, k))
    block_raw[upper] = term(block_size[upper])
    return block_cost, block_raw, total


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
    scan_all_r: bool = True,
) -> tuple[MitigationPolicy, list[tuple[int, int]]]:
    """Budget-constrained exact search over contiguous merge policies.

    Returns the policy and its partition: the ``(lo, hi)`` class range of
    each block, in order.  Every block count is scanned; ``scan_all_r``
    accepts only ``True``.  More than ``policy.MAX_CLASSES`` classes is a
    ValueError.
    """
    if scan_all_r is not True:
        raise ValueError("synthesize_det always scans every block count")
    measure = EntropyMeasure(measure)
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    check_class_count(classes)
    k = classes.k
    block_cost, block_raw, total = _block_tables(classes, measure)
    combine = MEASURES[measure].combine
    finalize = MEASURES[measure].finalize

    # states[i][r] is the frontier of (i, r); each point is (raw objective,
    # spent budget, predecessor i, point index).  The empty partition seeds
    # it with the fold's identity at no cost, so r = 1 is no special case.
    states = [[[] for _ in range(k + 1)] for _ in range(k + 1)]
    states[0][0] = [(np.inf if combine is min else 0.0, 0.0, 0, 0)]
    for r in range(1, k + 1):
        for i in range(r, k + 1):
            candidates: list[tuple[float, float, int, int]] = []
            for j in range(r - 1, i):
                for idx, (raw, cost, _, _) in enumerate(states[j][r - 1]):
                    new_cost = cost + block_cost[j, i - 1]
                    if new_cost <= delta:
                        candidates.append(
                            (combine(raw, block_raw[j, i - 1]), new_cost, j, idx)
                        )
            states[i][r] = _pareto(candidates)
    # Values rise strictly along a frontier, so its last point is its best.
    # Identity (r = k) costs nothing, so some r is always feasible.
    chosen_r = max(
        (r for r in range(1, k + 1) if states[k][r]),
        key=lambda r: (finalize(states[k][r][-1][0], total), -r),
    )

    blocks: list[tuple[int, int]] = []
    i, r, idx = k, chosen_r, len(states[k][chosen_r]) - 1
    while r > 0:
        _, _, j, prev_idx = states[i][r][idx]
        blocks.append((j, i - 1))
        i, r, idx = j, r - 1, prev_idx
    blocks.reverse()

    return blocks_policy(blocks, k), blocks


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
    row = MEASURES[measure]

    best = None
    for n_cuts in range(k):
        for cuts in combinations(range(1, k), n_cuts):
            edges = (0,) + cuts + (k,)
            blocks = [(lo, nxt - 1) for lo, nxt in zip(edges, edges[1:])]
            cost = 0.0
            for lo, hi in blocks:
                cost += block_cost[lo, hi]
            if cost > delta:
                continue
            raw = reduce(row.combine, (block_raw[lo, hi] for lo, hi in blocks))
            key = (row.finalize(raw, total), -len(edges), tuple(-c for c in cuts))
            if best is None or key > best[0]:
                best = (key, blocks)
    if best is None:
        raise ValueError("no feasible partition, which is impossible for delta >= 0")
    return blocks_policy(best[1], k)
