"""Reference mitigations that ignore the class structure.

The doubling scheme releases results only at geometric checkpoints: with a
base time quantum q, an execution that needs t quanta is held until the first
checkpoint 2**N - 1 >= t (the schedule grows as 1, 3, 7, 15, ... because the
N-th epoch adds 2**(N-1) quanta of slack).  Bucketing instead snaps every
observed time up to one of a fixed number of learned boundaries, chosen to
minimize the total injected delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import RECLUSTER_EPS, ObservationClassSet, cluster_functions
from .timing import TimingDataset

__all__ = [
    "BucketSet",
    "double_scheme",
    "fit_buckets",
    "apply_buckets",
]


def double_scheme(
    dataset: TimingDataset,
    quantum: float | np.ndarray | None = None,
    epsilon: float = RECLUSTER_EPS,
) -> tuple[TimingDataset, ObservationClassSet]:
    """Pad every observation up to its doubling checkpoint, then re-cluster.

    ``quantum`` defaults to the minimum positive observed time at each grid
    point, so a zero time (noise clipped at 0) is held to the first
    checkpoint, one quantum; passing the same explicit quantum makes the
    scheme idempotent.
    """
    times = dataset.times
    if quantum is None:
        q = times.min(axis=0, initial=np.inf, where=times > 0)
        if np.isinf(q).any():
            raise ValueError("doubling needs a positive time at every grid point")
    else:
        q = np.broadcast_to(np.asarray(quantum, dtype=float), (len(dataset.grid),))
    if np.any(q <= 0):
        raise ValueError("time quantum must be positive")
    in_quanta = times / q
    levels = np.ones_like(in_quanta)
    while True:
        short = levels < in_quanta
        if not short.any():
            break
        levels[short] = 2.0 * levels[short] + 1.0
    mitigated = dataset.with_times(levels * q)
    return mitigated, cluster_functions(mitigated, epsilon)


@dataclass(frozen=True)
class BucketSet:
    """Strictly increasing release boundaries; times snap up to a boundary."""

    boundaries: tuple[float, ...]

    def __post_init__(self):
        bounds = tuple(float(b) for b in self.boundaries)
        if not bounds:
            raise ValueError("bucket set must contain at least one boundary")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("boundaries must be strictly increasing")
        object.__setattr__(self, "boundaries", bounds)


def fit_buckets(scalar_times, n_buckets: int) -> BucketSet:
    """Choose boundaries minimizing the total added delay sum(bucket(t) - t).

    Dynamic program over the sorted distinct observed times; the top boundary
    is always the maximum so every observation stays coverable.  The first
    and last buckets cost O(d) for d distinct times, each middle one
    O(d^2).
    """
    times = np.asarray(scalar_times, dtype=float).ravel()
    if times.size == 0:
        raise ValueError("need at least one observation")
    if np.any(times < 0):
        raise ValueError("times must be non-negative")
    values, counts = np.unique(times, return_counts=True)
    d = values.size
    n_buckets = int(n_buckets)
    if not 1 <= n_buckets <= d:
        raise ValueError(f"n_buckets must be in [1, {d}] for {d} distinct times")

    csum = np.concatenate([[0.0], np.cumsum(counts)])
    vsum = np.concatenate([[0.0], np.cumsum(counts * values)])

    cost = np.full((n_buckets + 1, d + 1), np.inf)
    back = np.zeros((n_buckets + 1, d + 1), dtype=int)
    # Bucket 1 can only start at lo = 0, the empty prefix of cost 0, so its
    # row is one array and its back pointers stay 0.
    cost[1][1:] = 0.0 + (values * csum[1:] - vsum[1:])
    for j in range(2, n_buckets + 1):
        # The backtrack reads the last bucket's row only at r = d.
        for r in range(j, d + 1) if j < n_buckets else (d,):
            # Bucket j holds values[lo..r-1], all snapped up to values[r-1],
            # for every lo in j-1..r-1; argmin keeps the first best lo.
            lo = slice(j - 1, r)
            c = cost[j - 1][lo] + (
                values[r - 1] * (csum[r] - csum[lo]) - (vsum[r] - vsum[lo])
            )
            best = int(np.argmin(c))
            cost[j][r] = c[best]
            back[j][r] = j - 1 + best
    boundaries = []
    r = d
    for j in range(n_buckets, 0, -1):
        boundaries.append(float(values[r - 1]))
        r = back[j][r]
    return BucketSet(tuple(reversed(boundaries)))


def apply_buckets(
    dataset: TimingDataset,
    buckets: BucketSet,
    epsilon: float = RECLUSTER_EPS,
) -> tuple[TimingDataset, ObservationClassSet]:
    """Snap every observation up to its bucket boundary, then re-cluster."""
    bounds = np.asarray(buckets.boundaries)
    times = dataset.times
    if float(times.max()) > bounds[-1]:
        raise ValueError("an observation exceeds the top bucket boundary")
    idx = np.searchsorted(bounds, times, side="left")
    mitigated = dataset.with_times(bounds[idx])
    return mitigated, cluster_functions(mitigated, epsilon)
