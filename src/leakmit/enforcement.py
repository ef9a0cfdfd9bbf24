"""Runtime enforcement: classify an execution, then pad it to its target.

A CART-style decision tree is trained on per-execution features
(simulated instrumentation counters for the synthetic benchmarks, or
time-derived ratios as a fallback) labeled with observation classes.  All
features of a dataset live in one ``(n_secrets, n_grid, n_features)`` array.

The tree sorts each feature once per tree, stably, and grows on index arrays
into those orders, the presorting of SLIQ (Mehta, Agrawal & Rissanen, EDBT
1996): a node hands each child the rows of its orders that fall on the
child's side.  A stable filter of a stable order is the stable order of the
child's rows, so no node sorts or copies its rows again.  The split search
reads a feature through the node's order, ``SCAN_BLOCK`` rows at a time, to
find the cuts, and scores them ``SPLIT_BLOCK`` at a time from prefix class
counts (Breiman et al. 1984, CART): a class's left count at a cut is its
count at the previous block's last cut plus how many of its rows lie in
between, one ``searchsorted`` per class, and the node totals minus them are
the right counts.  So the search holds one block of counts, never a cuts x
classes matrix, and the lowest ``(impurity, feature, threshold)`` wins.

At enforcement time each secret takes one target class from its policy row:
a randomized policy draws it from a seeded generator, and a deterministic
one reads its point mass without one.  The tree classifies every execution,
and the execution is padded by the gap between the predicted class
representative and the target representative.  Executions are classified
and padded ``PAD_BLOCK`` at a time, in whole secrets, into one copy of the
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import RECLUSTER_EPS, ObservationClassSet, cluster_functions
from .entropy import EntropyMeasure, entropy
from .policy import MitigationPolicy
from .timing import TimingDataset, relative_overhead, secret_ids

__all__ = [
    "MAX_DEPTH",
    "FeatureTable",
    "TreeLeaf",
    "TreeSplit",
    "DecisionTree",
    "learn_tree",
    "mod_exp_counts",
    "branch_loop_counts",
    "counter_features",
    "timing_features",
    "training_samples",
    "EnforcementReport",
    "enforce",
    "report_to_json",
    "tree_to_json",
]

# Cuts whose class counts and Gini values the split search computes at once.
# It bounds the (cuts x classes) temporaries on features with many distinct
# values.
SPLIT_BLOCK = 4096

# Rows of a node's order whose feature values the split search reads at once
# to find the cuts.
SCAN_BLOCK = 16384

# Executions that ``enforce`` classifies and pads at once, rounded to whole
# secrets.  It bounds the prediction and delay temporaries.
PAD_BLOCK = 16384

# Deepest tree ``learn_tree`` grows.  Growing the tree, and writing it out
# as JSON, recurse once per level, so the cap stays well below the
# interpreter's recursion limit (1 000 by default).
MAX_DEPTH = 256


@dataclass(frozen=True)
class FeatureTable:
    """Features of every execution of a dataset.

    ``values[i, p, f]`` is feature ``names[f]`` of ``secrets[i]`` at grid
    point ``p``.  The array is frozen, finite and non-negative, and
    ``secrets`` is the dataset's read-only id array.
    """

    names: tuple[str, ...]
    values: np.ndarray
    secrets: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        secrets = secret_ids(self.secrets)
        values = np.array(self.values, dtype=float)
        if values.ndim != 3 or values.shape[::2] != (secrets.size, len(names)):
            raise ValueError("feature values must be n_secrets x n_grid x n_features")
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise ValueError("feature values must be finite and non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "secrets", secrets)


@dataclass(frozen=True)
class TreeLeaf:
    class_id: int


@dataclass(frozen=True)
class TreeSplit:
    feature: int
    threshold: float
    left: "TreeSplit | TreeLeaf"
    right: "TreeSplit | TreeLeaf"


@dataclass(frozen=True)
class DecisionTree:
    root: TreeSplit | TreeLeaf
    feature_names: tuple[str, ...]
    train_accuracy: float

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class id of every row of an ``(N, n_features)`` array."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(self.feature_names):
            raise ValueError("predict expects an n_samples x n_features array")
        out = np.empty(x.shape[0], dtype=int)
        pending = [(self.root, np.arange(x.shape[0]))]
        while pending:
            node, rows = pending.pop()
            if isinstance(node, TreeLeaf):
                out[rows] = node.class_id
                continue
            left = x[rows, node.feature] <= node.threshold
            pending.append((node.left, rows[left]))
            pending.append((node.right, rows[~left]))
        return out


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of class counts along the last axis.

    A row must not be empty.  Counts are exact integers, so a row's value
    is bit for bit what the same formula gives on that row alone.
    """
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p * p).sum(axis=-1)


def _best_cut(
    column: np.ndarray, order: np.ndarray, y: np.ndarray, totals: np.ndarray
) -> tuple[float, float] | None:
    """``(impurity, threshold)`` of the lowest-impurity cut of one feature.

    ``column`` is the feature of every row and ``order`` the node's rows
    sorted by it.  A cut at ``c`` puts the rows ``order[:c]`` on the left; it
    must fall between two different values, and its threshold is their
    midpoint.  The first cut wins a tie.  The column is read ``SCAN_BLOCK``
    rows of the order at a time.  The cuts are scored ``SPLIT_BLOCK`` at a
    time: a block's left counts are the counts at the previous block's last
    cut plus those of the rows from there to the cut, so the search holds
    one block of class counts, never a cuts x classes matrix.
    """
    n = order.size
    # steps[i]: the values at order[i] and order[i + 1] differ.
    steps = np.empty(n - 1, dtype=bool)
    for lo in range(0, n - 1, SCAN_BLOCK):
        xs = column[order[lo : lo + SCAN_BLOCK + 1]]
        np.not_equal(xs[1:], xs[:-1], out=steps[lo : lo + SCAN_BLOCK])
    cuts = np.flatnonzero(steps)
    cuts += 1
    if cuts.size == 0:
        return None
    present = np.flatnonzero(totals)
    best = None
    # Left counts at the previous block's last cut, and where that cut is.
    running, lo = None, 0
    for start in range(0, cuts.size, SPLIT_BLOCK):
        cut = cuts[start : start + SPLIT_BLOCK]
        hi = int(cut[-1])
        ys = y[order[lo:hi]]
        at = cut - lo if lo else cut
        # Class c's left count at a cut is the number of its rows before it.
        left = np.zeros((cut.size, totals.size), dtype=np.intp)
        for c in present:
            left[:, c] = np.searchsorted(np.flatnonzero(ys == c), at)
        if running is not None:
            left += running
        impurity = (cut * _gini(left) + (n - cut) * _gini(totals - left)) / n
        i = int(np.argmin(impurity))
        if best is None or impurity[i] < best[0]:
            best = (float(impurity[i]), int(cut[i]))
        running, lo = left[-1], hi
    value, c = best
    return value, _midpoint(float(column[order[c - 1]]), float(column[order[c]]))


def _midpoint(a: float, b: float) -> float:
    """(a + b) / 2, or a / 2 + b / 2 where the sum overflows to inf."""
    mid = (a + b) / 2.0
    return mid if math.isfinite(mid) else a / 2.0 + b / 2.0


def _grow(x: np.ndarray, y: np.ndarray, orders: list[np.ndarray], depth: int):
    """The subtree grown from the rows in ``orders`` and how many of them the
    leaf majorities label correctly.

    ``orders[f]`` lists the node's rows of ``(x, y)`` sorted by feature f,
    stably.  The node empties ``orders`` once its children have theirs, so
    the recursion holds the orders of the current node and of the pending
    right siblings on its path, not of every ancestor.
    """
    # With no features the root is the only node, and it holds every row.
    counts = np.bincount(y[orders[0]] if orders else y)
    # np.argmax takes the smallest id on ties.
    majority = int(np.argmax(counts))
    leaf = TreeLeaf(majority), int(counts[majority])
    parent_gini = float(_gini(counts))
    if depth >= MAX_DEPTH or parent_gini == 0.0:
        return leaf
    best = None
    scored = [_best_cut(x[:, f], order, y, counts) for f, order in enumerate(orders)]
    for f, found in enumerate(scored):
        if found is not None and (best is None or found[0] < best[0]):
            best = (*found, f)
    if best is None or best[0] >= parent_gini - 1e-12:
        return leaf
    _, threshold, f = best
    left, right = _partition(x, orders, f, threshold)
    left, left_hits = _grow(x, y, left, depth + 1)
    right, right_hits = _grow(x, y, right, depth + 1)
    return TreeSplit(f, float(threshold), left, right), left_hits + right_hits


def _partition(x: np.ndarray, orders: list[np.ndarray], f: int, threshold: float):
    """The rows of each order with ``x[:, f] <= threshold``, and the rest,
    both in their order.  ``orders`` is emptied."""
    left, right = [], []
    for order in orders:
        goes_left = x[order, f] <= threshold
        left.append(order[goes_left])
        right.append(order[~goes_left])
    orders.clear()
    return left, right


def learn_tree(samples: tuple[np.ndarray, np.ndarray, Sequence[str]]) -> DecisionTree:
    """Fit a Gini-split CART tree on ``(x, y, feature names)``.

    ``x`` is an ``(N, n_features)`` finite feature array and ``y`` the ``N``
    class ids, as :func:`training_samples` returns them.  A node becomes a
    leaf (its majority class, the smallest id on ties) when it is pure, when
    no cut lowers its Gini impurity by more than 1e-12, or at ``MAX_DEPTH``.
    Otherwise it splits at the midpoint of the cut with the lowest weighted
    impurity; ties go to the lower feature, then the lower threshold.
    """
    x, y, names = samples
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        y = y.astype(int)
    names = tuple(names)
    if y.size == 0:
        raise ValueError("need at least one training sample")
    if y.ndim != 1 or x.shape != (y.size, len(names)):
        raise ValueError("x must be n_samples x n_features, y one id per sample")
    if np.any(y < 0):
        raise ValueError("class ids must be non-negative")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature values must be finite")
    # Ids in the narrowest type that holds them, as training_samples gives
    # them: each node gathers its labels once per feature.
    labels = y.astype(np.min_scalar_type(int(y.max())), copy=False)
    orders = [np.argsort(column, kind="stable") for column in x.T]
    root, hits = _grow(x, labels, orders, 0)
    return DecisionTree(root, names, hits / y.size)


def mod_exp_counts(dataset: TimingDataset) -> np.ndarray:
    """Inner-loop iteration counts setbits(secret) * y for the modexp model.

    The set bits of |secret| are counted by shifting all secrets at once.
    """
    rest = np.abs(dataset.secrets)
    if rest.dtype == np.int64:
        rest = rest.view(np.uint64)  # as unsigned, |-2**63| fits too
    setbits = np.zeros_like(rest)
    while rest.any():
        setbits += rest & 1
        rest >>= 1
    return setbits.astype(float)[:, None] * dataset.grid.points[None, :]


def branch_loop_counts(
    dataset: TimingDataset, group_sizes: Sequence[int], slopes: Sequence[float]
) -> np.ndarray:
    """Loop iteration counts slope(secret) * y for the branch-loop model."""
    slope_per_secret = np.repeat(
        np.asarray(slopes, dtype=float), [int(g) for g in group_sizes]
    )
    if slope_per_secret.size != dataset.n_secrets:
        raise ValueError("group sizes do not cover the dataset secrets")
    return slope_per_secret[:, None] * dataset.grid.points[None, :]


def counter_features(dataset: TimingDataset, counts: np.ndarray) -> FeatureTable:
    """Normalize raw counters by the public magnitude so features are stable."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != dataset.times.shape:
        raise ValueError("counts must be n_secrets x n_grid_points")
    per_unit = counts / dataset.grid.points
    del counts  # freed here when the caller passed a temporary
    return FeatureTable(("iterations_per_unit",), per_unit[:, :, None], dataset.secrets)


def timing_features(dataset: TimingDataset) -> FeatureTable:
    """Fallback features when no instrumentation model is available."""
    low = float(dataset.grid.points[0])  # the grid ascends
    if low <= 0:
        raise ValueError(f"time_per_unit needs positive public values, got {low!r}")
    per_unit = dataset.times / dataset.grid.points
    return FeatureTable(("time_per_unit",), per_unit[:, :, None], dataset.secrets)


def _labels(classes: ObservationClassSet, secrets: np.ndarray, whose: str) -> np.ndarray:
    """The class id of each of ``secrets``: the class set's labels, once its
    secrets are known to be these, in this order."""
    if not np.array_equal(classes.secrets, secrets):
        raise ValueError(f"the class set's secrets are not the {whose} secrets, in order")
    return classes.labels


def training_samples(
    features: FeatureTable, classes: ObservationClassSet
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """One labeled sample per execution (secret, grid point), secret-major.

    Returns ``(x, y, names)``: the ``(N, n_features)`` feature array, the
    ``N`` class ids in the narrowest unsigned type, and the feature names.
    """
    n_secrets, n_grid, n_features = features.values.shape
    x = features.values.reshape(n_secrets * n_grid, n_features)
    y = np.repeat(_labels(classes, features.secrets, "features'"), n_grid)
    return x, y, features.names


@dataclass(frozen=True)
class EnforcementReport:
    realized_overhead: float
    misclassification_rate: float
    classes_after: ObservationClassSet
    entropies: tuple[tuple[EntropyMeasure, float, float], ...]

    @property
    def n_classes_after(self) -> int:
        return self.classes_after.k


def _draw_targets(
    policy: MitigationPolicy, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Target class of each secret, given the class id of each secret.

    One uniform draw per secret counts the entries of its class's normalised
    CDF that are <= the draw, one ``searchsorted(side="right")`` per class:
    the same CDF, draws and search as ``rng.choice(k, p=row / row.sum())``
    called once per secret.  On a point-mass row the CDF steps from 0 to 1 at
    the mass, so every draw lands there.
    """
    matrix = policy.matrix
    u = rng.random(labels.size)
    cdf = np.cumsum(matrix / matrix.sum(axis=1, keepdims=True), axis=1)
    cdf /= cdf[:, -1:]
    targets = np.empty(labels.size, dtype=np.intp)
    for c, row in enumerate(cdf):
        mine = labels == c
        targets[mine] = np.searchsorted(row, u[mine], side="right")
    return targets


def _targets(policy: MitigationPolicy, labels: np.ndarray, seed: int) -> np.ndarray:
    """Target class of each secret: drawn from ``seed`` for a randomized
    policy, and read off the point masses, with no generator, for a
    deterministic one; the mass is where ``_draw_targets`` lands."""
    if policy.deterministic:
        return policy.matrix.argmax(axis=1)[labels]
    return _draw_targets(policy, labels, np.random.default_rng(seed))


def enforce(
    dataset: TimingDataset,
    classes: ObservationClassSet,
    policy: MitigationPolicy,
    tree: DecisionTree,
    seed: int,
    features: FeatureTable,
    epsilon: float = RECLUSTER_EPS,
) -> tuple[TimingDataset, EnforcementReport]:
    """Apply a policy through the classifier and measure what actually happened.

    Each secret takes its target class once, drawn from ``seed`` only for a
    randomized policy (a deterministic one needs no generator); every
    execution is padded by the representative gap between the predicted
    class and the target, and the padded dataset is re-clustered to report
    the realized class structure.
    """
    if policy.k != classes.k:
        raise ValueError(
            f"policy is {policy.k} x {policy.k} but there are {classes.k} classes"
        )
    n_grid = len(dataset.grid)
    if (not np.array_equal(features.secrets, dataset.secrets)
            or features.values.shape[1] != n_grid):
        raise ValueError("features must cover the dataset secrets and grid")
    labels = _labels(classes, dataset.secrets, "dataset's")
    reps = classes.representatives
    targets = _targets(policy, labels, seed)

    points = np.arange(n_grid)
    padded = np.array(dataset.times)
    wrong = 0
    step = max(1, PAD_BLOCK // n_grid)
    for lo in range(0, dataset.n_secrets, step):
        hi = lo + step
        block = features.values[lo:hi]
        x = block.reshape(block.shape[0] * n_grid, block.shape[2])
        pred = tree.predict(x).reshape(-1, n_grid)
        wrong += int(np.count_nonzero(pred != labels[lo:hi, None]))
        padded[lo:hi] += np.maximum(
            0.0, reps[targets[lo:hi, None], points] - reps[pred, points]
        )
    mitigated = dataset.with_times(padded)
    del padded
    overhead = relative_overhead(dataset, mitigated)
    after = cluster_functions(mitigated, epsilon)
    entropies = tuple(
        (m, entropy(classes.sizes, m), entropy(after.sizes, m))
        for m in EntropyMeasure
    )
    report = EnforcementReport(
        realized_overhead=overhead,
        misclassification_rate=wrong / dataset.times.size,
        classes_after=after,
        entropies=entropies,
    )
    return mitigated, report


def report_to_json(report: EnforcementReport) -> dict:
    return {
        "realized_overhead": report.realized_overhead,
        "misclassification_rate": report.misclassification_rate,
        "classes_after": report.n_classes_after,
        "class_sizes_after": report.classes_after.sizes.astype(int).tolist(),
        "entropies": [
            {
                "measure": m.value,
                "entropy_before": before,
                "entropy_after": after,
            }
            for m, before, after in report.entropies
        ],
    }


def _node_to_json(node) -> dict:
    if isinstance(node, TreeLeaf):
        return {"kind": "leaf", "class_id": node.class_id}
    return {
        "kind": "split",
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def tree_to_json(tree: DecisionTree) -> dict:
    return {
        "feature_names": list(tree.feature_names),
        "train_accuracy": tree.train_accuracy,
        "root": _node_to_json(tree.root),
    }
