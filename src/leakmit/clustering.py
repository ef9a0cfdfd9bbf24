"""Group secrets into observation classes and price moves between them.

Two secrets belong to the same observation class when their timing functions
are indistinguishable up to a tolerance: classes are built by complete-linkage
agglomerative clustering under the mean absolute (L1) distance, merging while
the closest pair of clusters is within epsilon.  Classes are ordered by the
mean of their representative function, which for monotone benchmarks realizes
the pointwise order on functions: a class can be padded up to any later class.

The penalty matrix prices each upward move i -> j as the mean extra delay
needed to lift the i-th representative onto the j-th, normalized by the
dataset-wide mean execution time so budgets read as overhead fractions.
Downward moves are forbidden and carry an infinite sentinel.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .timing import PublicGrid, TimingDataset, TimingFunction

__all__ = [
    "ObservationClass",
    "ObservationClassSet",
    "cluster_functions",
    "penalty_matrix",
    "classset_to_json",
    "classset_from_json",
    "write_classset",
]

# Re-clustering tolerance: padded functions that should coincide differ by rounding.
RECLUSTER_EPS = 1e-9


@dataclass(frozen=True)
class ObservationClass:
    """One group of secrets sharing a timing function."""

    id: int
    representative: TimingFunction
    members: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ObservationClassSet:
    """Ordered observation classes plus the move-penalty matrix.

    ``classes[i].id == i`` and classes are sorted by ascending representative
    mean.  ``penalty[i, j]`` prices elevating class i to class j; entries
    below the diagonal are +inf.
    """

    grid: PublicGrid
    classes: tuple[ObservationClass, ...]
    penalty: np.ndarray

    def __post_init__(self):
        if not self.classes:
            raise ValueError("class set must contain at least one class")
        pen = np.array(self.penalty, dtype=float)
        k = len(self.classes)
        if pen.shape != (k, k):
            raise ValueError("penalty matrix must be k x k")
        pen.flags.writeable = False
        object.__setattr__(self, "penalty", pen)
        object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def sizes(self) -> np.ndarray:
        return np.asarray([c.size for c in self.classes], dtype=float)

    @property
    def total_size(self) -> int:
        return int(sum(c.size for c in self.classes))

    def representatives(self) -> list[TimingFunction]:
        return [c.representative for c in self.classes]

    def class_of(self) -> dict[int, int]:
        """Map each secret to its class index."""
        out: dict[int, int] = {}
        for c in self.classes:
            for secret in c.members:
                out[secret] = c.id
        return out


def _mean_l1_matrix(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[0]
    dist = np.zeros((n, n))
    for i in range(n):
        dist[i] = np.abs(rows - rows[i]).mean(axis=1)
    return dist


def _complete_linkage_groups(dist: np.ndarray, epsilon: float) -> list[list[int]]:
    """Merge greedily while the smallest complete-linkage distance is <= epsilon."""
    n = dist.shape[0]
    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    groups: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(groups) > 1:
        flat = int(np.argmin(work))
        i, j = divmod(flat, n)
        if work[i, j] > epsilon:
            break
        a, b = (i, j) if i < j else (j, i)
        groups[a].extend(groups.pop(b))
        merged = np.maximum(work[a], work[b])
        work[a, :] = merged
        work[:, a] = merged
        work[a, a] = np.inf
        work[b, :] = np.inf
        work[:, b] = np.inf
    return [groups[g] for g in sorted(groups)]


def penalty_matrix(
    representatives: Sequence[TimingFunction], baseline_mean: float
) -> np.ndarray:
    """Relative cost of lifting representative i onto representative j.

    For i <= j the entry is mean_p(max(0, rep_j(p) - rep_i(p))) divided by
    ``baseline_mean``; for i > j it is +inf.  The diagonal is exactly zero.
    """
    if baseline_mean <= 0:
        raise ValueError("baseline mean must be positive")
    reps = list(representatives)
    k = len(reps)
    pen = np.full((k, k), np.inf)
    for i in range(k):
        pen[i, i] = 0.0
        for j in range(i + 1, k):
            gap = np.maximum(0.0, reps[j].values - reps[i].values)
            pen[i, j] = float(gap.mean()) / baseline_mean
    return pen


def cluster_functions(dataset: TimingDataset, epsilon: float) -> ObservationClassSet:
    """Build the observation classes of a dataset at tolerance epsilon."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    times = dataset.times
    # Identical rows always merge first at distance zero and never change a
    # complete-linkage distance, so collapse them before the O(U^3) loop.
    uniq, inverse = np.unique(times, axis=0, return_inverse=True)
    dist = _mean_l1_matrix(uniq)
    groups = _complete_linkage_groups(dist, float(epsilon))

    drafts = []
    for group in groups:
        row_mask = np.isin(inverse, group)
        members = frozenset(
            dataset.secrets[i] for i in np.flatnonzero(row_mask)
        )
        rep_values = times[row_mask].mean(axis=0)
        rep = TimingFunction(dataset.grid, rep_values)
        drafts.append((rep.mean(), min(members), rep, members))
    drafts.sort(key=lambda d: (d[0], d[1]))

    classes = tuple(
        ObservationClass(idx, rep, members)
        for idx, (_, _, rep, members) in enumerate(drafts)
    )
    baseline = float(times.mean())
    pen = penalty_matrix([c.representative for c in classes], baseline)
    return ObservationClassSet(dataset.grid, classes, pen)


def classset_to_json(cs: ObservationClassSet) -> dict:
    """Schema: {grid, classes: [{id, size, members, representative}], penalty, total_size}.

    Infinite penalty entries serialize as null.
    """
    penalty = [
        [None if math.isinf(v) else float(v) for v in row] for row in cs.penalty
    ]
    return {
        "grid": [float(p) for p in cs.grid.points],
        "classes": [
            {
                "id": c.id,
                "size": c.size,
                "members": sorted(c.members),
                "representative": [float(v) for v in c.representative.values],
            }
            for c in cs.classes
        ],
        "penalty": penalty,
        "total_size": cs.total_size,
    }


def classset_from_json(data: dict) -> ObservationClassSet:
    grid = PublicGrid(tuple(data["grid"]))
    classes = tuple(
        ObservationClass(
            int(c["id"]),
            TimingFunction(grid, np.asarray(c["representative"], dtype=float)),
            frozenset(int(m) for m in c["members"]),
        )
        for c in data["classes"]
    )
    penalty = np.asarray(
        [[np.inf if v is None else float(v) for v in row] for row in data["penalty"]]
    )
    return ObservationClassSet(grid, classes, penalty)


def write_classset(cs: ObservationClassSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(classset_to_json(cs), indent=2) + "\n")
