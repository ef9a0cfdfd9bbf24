"""Group secrets into observation classes and price moves between them.

Two secrets belong to the same observation class when their timing functions
are indistinguishable up to a tolerance: classes are built by complete-linkage
agglomerative clustering under the mean absolute (L1) distance, merging while
the closest pair of clusters is within epsilon.

The U distinct rows are clustered in blocks.  Sorted by row mean, they are
cut wherever two neighbouring means differ by more than epsilon (plus a
rounding margin).  As mean|x - y| >= |mean x - mean y|, no pair across a
cut is within epsilon, and complete-linkage distances only grow as clusters
merge, so every merge stays inside one block.  A block whose rows all lie
within epsilon / 2 of its first row has every pair within epsilon (mean-L1
is a metric), so it is one class, found at O(b P) cost for b rows on P grid
points.  Any other block builds its own b x b distance matrix and runs the
greedy merge on it, which caches each row's nearest neighbour and its
distance (Muellner 2011, the "generic algorithm") and merges tied pairs in
the same order as a full matrix rescan per merge.  A block keeps its rows
in ascending index, so its ties resolve as in one linkage over all U rows
and the partition is that linkage's.  The cost is O(U P) when every block
is tight and O(sum of b^2 P) over the other blocks, not O(U^2 P).

A class's representative is the mean of its members' rows of the dataset's
``times``; the class set stacks them into one read-only ``representatives``
matrix, one row per class, and a class's position in the set is its id.
Membership is one array too: beside the dataset's secret ids, the class set
holds one label per secret, each secret's class id, written straight from
the distinct rows' inverse index and the linkage groups.  A class's members
are listed only on demand, from the labels.
Classes are ordered by the mean of their representative function, which for
monotone benchmarks realizes the pointwise order on functions: a class can be
padded up to any later class.

The penalty matrix prices each upward move i -> j as the mean extra delay
needed to lift the i-th representative onto the j-th, normalized by the
dataset-wide mean execution time so budgets read as overhead fractions.
Downward moves are forbidden and carry an infinite sentinel.  A class set
derives it from its own representatives, once, so no caller can supply it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .timing import PublicGrid, TimingDataset, secret_ids

__all__ = [
    "ObservationClass",
    "ObservationClassSet",
    "cluster_functions",
    "penalty_matrix",
    "classset_to_json",
]

# Re-clustering tolerance: padded functions that should coincide differ by rounding.
RECLUSTER_EPS = 1e-9

# Cells of sorted neighbouring rows that ``_unique_rows`` compares at once.
UNIQUE_BLOCK = 16384


@dataclass(frozen=True, eq=False)
class ObservationClass:
    """One class of a class set, as ``ObservationClassSet.classes`` gives it:
    its read-only row of ``representatives`` and its member secrets,
    ascending, in a read-only array."""

    representative: np.ndarray
    members: np.ndarray

    @property
    def size(self) -> int:
        return self.members.size


@dataclass(frozen=True, eq=False)
class ObservationClassSet:
    """Ordered observation classes of a set of secrets, and the prices of
    moves between them.

    ``secrets`` is one read-only id array, checked as a dataset checks its
    own, and ``labels[i]`` is the class id of ``secrets[i]``, read-only, in
    the narrowest unsigned type.  A class's position is its id.
    ``representatives[c]`` is class c's function on the grid (finite and
    non-negative, one read-only row per class), and classes are sorted by
    ascending representative mean.  Every class has at least one member.
    ``sizes[c]`` is its member count, the labels' bincount as floats.
    ``baseline_mean`` is the dataset's mean execution time.  ``penalty`` is
    ``penalty_matrix`` of the representatives and that mean, computed here
    and read-only: ``penalty[i, j]`` prices elevating class i to class j,
    exactly 0 on the diagonal, finite and non-negative above it, and +inf
    below it.
    """

    grid: PublicGrid
    secrets: np.ndarray
    labels: np.ndarray
    representatives: np.ndarray
    baseline_mean: float
    sizes: np.ndarray = field(init=False, repr=False)
    penalty: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        secrets = secret_ids(self.secrets)
        reps = np.array(self.representatives, dtype=float)
        if not len(reps):
            raise ValueError("class set must contain at least one class")
        if reps.ndim != 2 or reps.shape[1] != len(self.grid):
            raise ValueError("representatives must align with the public grid")
        if not np.all(np.isfinite(reps)):
            raise ValueError("representative times must be finite")
        if np.any(reps < 0):
            raise ValueError("representative times must be non-negative")
        k = len(reps)
        labels = np.asarray(self.labels)
        if labels.shape != secrets.shape or labels.dtype.kind not in "iu":
            raise ValueError("labels must be one integer class id per secret")
        if labels.min() < 0 or labels.max() >= k:
            raise ValueError(f"class ids must be in [0, {k - 1}]")
        labels = labels.astype(np.min_scalar_type(k - 1))
        sizes = np.bincount(labels, minlength=k).astype(float)
        empty = np.flatnonzero(sizes == 0).tolist()
        if empty:
            raise ValueError(f"observation classes {empty} have no members")
        pen = penalty_matrix(reps, self.baseline_mean)
        for arr in (labels, reps, sizes, pen):
            arr.flags.writeable = False
        object.__setattr__(self, "secrets", secrets)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "representatives", reps)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "penalty", pen)

    @property
    def k(self) -> int:
        return len(self.representatives)

    @property
    def total_size(self) -> int:
        return self.secrets.size

    @property
    def classes(self) -> tuple[ObservationClass, ...]:
        """Every class, in id order, derived from the labels on each access."""
        # By secret, then stably by label: each class's members ascending.
        order = np.argsort(self.secrets, kind="stable")
        members = self.secrets[order[np.argsort(self.labels[order], kind="stable")]]
        members.flags.writeable = False
        ends = np.cumsum(self.sizes.astype(np.intp))[:-1]
        return tuple(map(ObservationClass, self.representatives, np.split(members, ends)))


def _unique_rows(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order and each row's index among them.

    Same result as ``np.unique(times, axis=0, return_inverse=True)``, from
    one stable lexsort and a comparison of neighbours in that order.  The
    neighbours are gathered ``UNIQUE_BLOCK`` cells at a time, and only the
    distinct rows are gathered whole, so no sorted copy of ``times`` is made.
    """
    order = np.lexsort(times.T[::-1])
    n = len(order)
    starts = np.ones(n, dtype=bool)
    step = max(1, UNIQUE_BLOCK // times.shape[1])
    for lo in range(0, n - 1, step):
        rows = times[order[lo : lo + step + 1]]
        starts[lo + 1 : lo + len(rows)] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return times[order[starts]], inverse


def _mean_l1_matrix(rows: np.ndarray) -> np.ndarray:
    n, p = rows.shape
    dist = np.zeros((n, n))
    # One buffer for every row's differences; add.reduce then / p is what
    # mean computes, so entries equal a full-row mean bit for bit.
    buf = np.empty((max(n - 1, 0), p))
    for i in range(n - 1):
        diff = buf[: n - 1 - i]
        np.subtract(rows[i + 1:], rows[i], out=diff)
        np.abs(diff, out=diff)
        upper = np.add.reduce(diff, axis=1) / p
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


# Relative slack on the mean cut and the radius test.  Times are finite and
# non-negative, so a computed row mean or mean-L1 distance, a P-term sum,
# is within about (P + 1) u of exact relative (u = 2^-53); 1e-9 covers that
# for any grid below 10^6 points.
_ROUNDING = 1e-9


def _linkage_groups(rows: np.ndarray, epsilon: float) -> list[np.ndarray]:
    """Complete-linkage groups of non-negative ``rows`` at epsilon.

    The same partition as ``_complete_linkage_groups`` over the full
    ``_mean_l1_matrix(rows)``, computed block by block (see the module
    docstring).  Each group holds row indices.
    """
    with np.errstate(over="ignore"):
        means = rows.mean(axis=1)
    order = np.argsort(means, kind="stable")
    ordered = means[order]
    # A row sum near the float maximum overflows to inf although its
    # distances are finite.  Those means sort last, so cutting only among
    # the finite ones never cuts next to a non-finite mean.
    finite = ordered[np.isfinite(ordered)]
    gap = epsilon + _ROUNDING * (epsilon + finite.max(initial=0.0))
    cuts = np.flatnonzero(np.diff(finite) > gap) + 1
    groups = []
    for block in np.split(order, cuts):
        block = np.sort(block)
        radius = np.abs(rows[block] - rows[block[0]]).mean(axis=1).max()
        if 2 * radius <= epsilon * (1 - _ROUNDING):
            groups.append(block)
        else:
            dist = _mean_l1_matrix(rows[block])
            groups.extend(block[g] for g in _complete_linkage_groups(dist, epsilon))
    return groups


def penalty_matrix(representatives: np.ndarray, baseline_mean: float) -> np.ndarray:
    """Relative cost of lifting representative i onto representative j.

    ``representatives`` holds one function per row (k x grid points).  For
    i <= j the entry is mean_p(max(0, rep_j(p) - rep_i(p))) divided by
    ``baseline_mean``; for i > j it is +inf.  The diagonal is exactly zero.
    A baseline that is not positive and finite, or an entry above the
    diagonal that overflows, is a ValueError.
    """
    if not 0 < baseline_mean < math.inf:
        raise ValueError("baseline mean must be positive and finite")
    v = np.asarray(representatives, dtype=float)
    k = v.shape[0]
    pen = np.full((k, k), np.inf)
    with np.errstate(over="ignore"):
        for i in range(k):
            pen[i, i] = 0.0
            gap = np.maximum(0.0, v[i + 1 :] - v[i])
            pen[i, i + 1 :] = gap.mean(axis=1) / baseline_mean
    if not np.all(np.isfinite(pen[np.triu_indices(k, 1)])):
        raise ValueError("a move's penalty overflows: the baseline mean is too small")
    return pen


def cluster_functions(dataset: TimingDataset, epsilon: float) -> ObservationClassSet:
    """Build the observation classes of a dataset at tolerance epsilon."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    times = dataset.times
    # Identical rows always merge first at distance zero and never change a
    # complete-linkage distance, so collapse them before the linkage.
    uniq, inverse = _unique_rows(times)
    groups = _linkage_groups(uniq, float(epsilon))
    group_of = np.empty(len(uniq), dtype=np.min_scalar_type(len(groups) - 1))
    for g, rows in enumerate(groups):
        group_of[rows] = g
    group = group_of[inverse]
    # Each group's rows ascending: one stable sort of the group ids.
    order = np.argsort(group, kind="stable")
    reps, keys = [], []
    for rows in np.split(order, np.cumsum(np.bincount(group))[:-1]):
        rep = times[rows].mean(axis=0)
        reps.append(rep)
        keys.append((float(rep.mean()), dataset.secrets[rows].min()))
    # Class ids by ascending representative mean, then smallest member.
    ranked = sorted(range(len(groups)), key=keys.__getitem__)
    label_of = np.empty(len(groups), dtype=np.intp)
    label_of[ranked] = np.arange(len(groups))
    return ObservationClassSet(
        dataset.grid, dataset.secrets, label_of[group],
        [reps[g] for g in ranked], float(times.mean()),
    )


def classset_to_json(cs: ObservationClassSet) -> dict:
    """Schema: {grid, classes: [{id, size, members, representative}], penalty, total_size}.

    Infinite penalty entries serialize as null.
    """
    penalty = [
        [None if math.isinf(v) else float(v) for v in row] for row in cs.penalty
    ]
    return {
        "grid": cs.grid.points.tolist(),
        "classes": [
            {
                "id": i,
                "size": c.size,
                "members": c.members.tolist(),
                "representative": c.representative.tolist(),
            }
            for i, c in enumerate(cs.classes)
        ],
        "penalty": penalty,
        "total_size": cs.total_size,
    }
