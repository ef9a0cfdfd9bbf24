"""Group secrets into observation classes and price moves between them.

Two secrets belong to the same observation class when their timing functions
are indistinguishable up to a tolerance: classes are built by complete-linkage
agglomerative clustering under the mean absolute (L1) distance, merging while
the closest pair of clusters is within epsilon.  The greedy merge caches each
row's nearest neighbour and its distance (Muellner 2011, the "generic
algorithm"), so on U distinct rows it costs O(U^2) rather than a full matrix
rescan per merge, and it merges tied pairs in the same order as that rescan.
Classes are ordered by the mean of their representative function, which for
monotone benchmarks realizes the pointwise order on functions: a class can be
padded up to any later class.

The penalty matrix prices each upward move i -> j as the mean extra delay
needed to lift the i-th representative onto the j-th, normalized by the
dataset-wide mean execution time so budgets read as overhead fractions.
Downward moves are forbidden and carry an infinite sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    ``classes[i].id == i``, every class has at least one member, and classes
    are sorted by ascending representative mean.  ``penalty[i, j]`` prices
    elevating class i to class j; entries below the diagonal are +inf.
    """

    grid: PublicGrid
    classes: tuple[ObservationClass, ...]
    penalty: np.ndarray

    def __post_init__(self):
        if not self.classes:
            raise ValueError("class set must contain at least one class")
        empty = [c.id for c in self.classes if not c.members]
        if empty:
            raise ValueError(f"observation classes {empty} have no members")
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


def _unique_rows(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and each row's index among them.

    Same result as ``np.unique(times, axis=0, return_inverse=True)``, from
    one stable lexsort and an adjacent-row comparison.
    """
    order = np.lexsort(times.T[::-1])
    ordered = times[order]
    starts = np.ones(len(order), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts], inverse


def _mean_l1_matrix(rows: np.ndarray) -> np.ndarray:
    n = rows.shape[0]
    dist = np.zeros((n, n))
    for i in range(n - 1):
        upper = np.abs(rows[i + 1:] - rows[i]).mean(axis=1)
        dist[i, i + 1:] = upper
        dist[i + 1:, i] = upper
    return dist


def _complete_linkage_groups(dist: np.ndarray, epsilon: float) -> list[list[int]]:
    """Merge greedily while the smallest complete-linkage distance is <= epsilon.

    Each step merges the pair a flat ``argmin`` over the symmetric matrix
    would pick, so ties go to the lowest ``(i, j)``.  ``nn[r]`` caches the
    first argmin of row r and ``rowmin[r]`` its value.  A merge only grows
    entries, and only in columns a and b, so a row keeps its cache unless it
    pointed at a or b; only those rows are rescanned.  A merged-away row gets
    ``nn = -1``.  ``dist`` is overwritten.
    """
    n = dist.shape[0]
    np.fill_diagonal(dist, np.inf)
    nn = np.argmin(dist, axis=1)
    rowmin = dist[np.arange(n), nn]
    groups: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(groups) > 1:
        # Row a is the first to hold the smallest entry, so by symmetry
        # b > a, and row a itself is rescanned below because nn[a] == b.
        a = int(np.argmin(rowmin))
        b = int(nn[a])
        if rowmin[a] > epsilon:
            break
        groups[a].extend(groups.pop(b))
        merged = np.maximum(dist[a], dist[b])
        dist[a, :] = merged
        dist[:, a] = merged
        dist[a, a] = np.inf
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        nn[b] = -1
        rowmin[b] = np.inf
        rows = np.flatnonzero((nn == a) | (nn == b))
        nn[rows] = np.argmin(dist[rows], axis=1)
        rowmin[rows] = dist[rows, nn[rows]]
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
    v = np.array([r.values for r in representatives], dtype=float)
    k = v.shape[0]
    pen = np.full((k, k), np.inf)
    for i in range(k):
        pen[i, i] = 0.0
        gap = np.maximum(0.0, v[i + 1 :] - v[i])
        pen[i, i + 1 :] = gap.mean(axis=1) / baseline_mean
    return pen


def cluster_functions(dataset: TimingDataset, epsilon: float) -> ObservationClassSet:
    """Build the observation classes of a dataset at tolerance epsilon."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    times = dataset.times
    # Identical rows always merge first at distance zero and never change a
    # complete-linkage distance, so collapse them before the O(U^2) linkage.
    uniq, inverse = _unique_rows(times)
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
