"""Runtime enforcement: classify an execution, then pad it to its target.

A CART-style decision tree is trained on one feature per execution
(a simulated instrumentation counter for the synthetic benchmarks, or a
time-derived ratio as a fallback) labeled with observation classes.  The
feature of a dataset lives in one ``(n_secrets, n_grid)`` array.

The tree sorts the feature once per tree, stably, and grows on index arrays
into that order, the presorting of SLIQ (Mehta, Agrawal & Rissanen, EDBT
1996): a node hands each child the rows of its order that fall on the
child's side.  A stable filter of a stable order is the stable order of the
child's rows, so no node sorts or copies its rows again.  The split search
scores a node's cuts in blocks from prefix class counts (Breiman et al.
1984, CART), so it holds one block of counts, never a cuts x classes
matrix, and the lowest ``(impurity, threshold)`` wins.  A tree on one
feature cuts the line into one interval per leaf, so it predicts by looking
a value up among its thresholds, not by walking it down the nodes.

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
from dataclasses import dataclass, field
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

# Deepest tree ``learn_tree`` grows.  Growing the tree, listing its
# intervals, and writing it out as JSON recurse once per level, so the cap stays well below the
# interpreter's recursion limit (1 000 by default).
MAX_DEPTH = 256


@dataclass(frozen=True)
class FeatureTable:
    """The feature of every execution of a dataset.

    ``values[i, p]`` is feature ``name`` of ``secrets[i]`` at grid point
    ``p``.  The array is frozen, finite and non-negative, and ``secrets`` is
    the dataset's read-only id array.
    """

    name: str
    values: np.ndarray
    secrets: np.ndarray

    def __post_init__(self):
        secrets = secret_ids(self.secrets)
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != secrets.size:
            raise ValueError("feature values must be n_secrets x n_grid")
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise ValueError("feature values must be finite and non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "secrets", secrets)


@dataclass(frozen=True)
class TreeLeaf:
    class_id: int


@dataclass(frozen=True)
class TreeSplit:
    threshold: float
    left: "TreeSplit | TreeLeaf"
    right: "TreeSplit | TreeLeaf"


@dataclass(frozen=True)
class DecisionTree:
    """A tree on one feature, and the intervals its leaves cover.

    A split sends values at or below its threshold left.  In order, the
    thresholds rise strictly: a left subtree's lie below its parent's, a
    right subtree's above.  So the number of thresholds below a value is the
    in-order index of the leaf a walk down the tree takes it to.
    """

    root: TreeSplit | TreeLeaf
    feature_name: str
    train_accuracy: float
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)
    leaves: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        thresholds, leaves = [], []
        _in_order(self.root, thresholds, leaves)
        thresholds = np.array(thresholds, dtype=float)
        if not np.all(thresholds[1:] > thresholds[:-1]):
            raise ValueError("the tree's thresholds must rise from left to right")
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "leaves", np.array(leaves, dtype=int))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class id of every feature value in ``x``, in its shape."""
        return self.leaves[np.searchsorted(self.thresholds, x, side="left")]


def _in_order(node, thresholds: list, leaves: list) -> None:
    if isinstance(node, TreeLeaf):
        leaves.append(node.class_id)
        return
    _in_order(node.left, thresholds, leaves)
    thresholds.append(node.threshold)
    _in_order(node.right, thresholds, leaves)


def _gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of class counts along the last axis.

    A row must not be empty.  Counts are exact integers, so a row's value
    is bit for bit what the same formula gives on that row alone.
    """
    p = counts / counts.sum(axis=-1, keepdims=True)
    return 1.0 - (p * p).sum(axis=-1)


def _best_cut(
    x: np.ndarray, order: np.ndarray, y: np.ndarray, totals: np.ndarray
) -> tuple[float, float] | None:
    """``(impurity, threshold)`` of the node's lowest-impurity cut.

    ``x`` is the feature of every row and ``order`` the node's rows sorted
    by it.  A cut at ``c`` puts the rows ``order[:c]`` on the left; it
    must fall between two different values, and its threshold is their
    midpoint.  The first cut wins a tie.  The feature is read ``SCAN_BLOCK``
    rows of the order at a time.  The cuts are scored ``SPLIT_BLOCK`` at a
    time: a block's left counts are the counts at the previous block's last
    cut plus those of the rows from there to the cut, so the search holds
    one block of class counts, never a cuts x classes matrix.
    """
    n = order.size
    # steps[i]: the values at order[i] and order[i + 1] differ.
    steps = np.empty(n - 1, dtype=bool)
    for lo in range(0, n - 1, SCAN_BLOCK):
        xs = x[order[lo : lo + SCAN_BLOCK + 1]]
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
    return value, _midpoint(float(x[order[c - 1]]), float(x[order[c]]))


def _midpoint(a: float, b: float) -> float:
    """A threshold ``t`` between ``a < b`` with ``a <= t < b``: (a + b) / 2,
    or a / 2 + b / 2 where the sum overflows to inf, or ``a`` where the
    midpoint rounds onto ``b`` (adjacent or subnormal floats)."""
    mid = (a + b) / 2.0
    if not math.isfinite(mid):
        mid = a / 2.0 + b / 2.0
    return mid if mid < b else a


def _grow(x: np.ndarray, y: np.ndarray, rows: list[np.ndarray], depth: int):
    """The subtree grown from the node's rows and how many of them the leaf
    majorities label correctly.

    ``rows`` holds one array, the node's rows of ``(x, y)`` sorted by ``x``,
    stably.  The node takes it out, so the recursion holds the order of the
    current node and of the pending right siblings on its path, not of
    every ancestor.
    """
    order = rows.pop()
    counts = np.bincount(y[order])
    # np.argmax takes the smallest id on ties.
    majority = int(np.argmax(counts))
    leaf = TreeLeaf(majority), int(counts[majority])
    parent_gini = float(_gini(counts))
    if depth >= MAX_DEPTH or parent_gini == 0.0:
        return leaf
    best = _best_cut(x, order, y, counts)
    if best is None or best[0] >= parent_gini - 1e-12:
        return leaf
    _, threshold = best
    goes_left = x[order] <= threshold
    left, right = [order[goes_left]], [order[~goes_left]]
    del order, goes_left
    left, left_hits = _grow(x, y, left, depth + 1)
    right, right_hits = _grow(x, y, right, depth + 1)
    return TreeSplit(threshold, left, right), left_hits + right_hits


def learn_tree(samples: tuple[np.ndarray, np.ndarray, str]) -> DecisionTree:
    """Fit a Gini-split CART tree on ``(x, y, feature name)``.

    ``x`` holds the finite feature value and ``y`` the class id of each of
    ``N`` samples, as :func:`training_samples` returns them.  A node becomes
    a leaf (its majority class, the smallest id on ties) when it is pure,
    when no cut lowers its Gini impurity by more than 1e-12, or at
    ``MAX_DEPTH``.  Otherwise it splits at the midpoint of the cut with the
    lowest weighted impurity; ties go to the lower threshold.
    """
    x, y, name = samples
    x = np.asarray(x, dtype=float)
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        y = y.astype(int)
    if y.size == 0:
        raise ValueError("need at least one training sample")
    if y.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must hold one feature value and one class id per sample")
    if np.any(y < 0):
        raise ValueError("class ids must be non-negative")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature values must be finite")
    # Ids in the narrowest type that holds them, as training_samples gives
    # them: each node gathers its labels once.
    labels = y.astype(np.min_scalar_type(int(y.max())), copy=False)
    root, hits = _grow(x, labels, [np.argsort(x, kind="stable")], 0)
    return DecisionTree(root, name, hits / y.size)


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
    return FeatureTable("iterations_per_unit", per_unit, dataset.secrets)


def timing_features(dataset: TimingDataset) -> FeatureTable:
    """Fallback features when no instrumentation model is available."""
    low = float(dataset.grid.points[0])  # the grid ascends
    if low <= 0:
        raise ValueError(f"time_per_unit needs positive public values, got {low!r}")
    with np.errstate(over="ignore"):
        per_unit = dataset.times / dataset.grid.points
    if not np.all(np.isfinite(per_unit)):
        at = float(dataset.grid.points[np.isinf(per_unit).any(axis=0)][0])
        raise ValueError(f"time_per_unit overflows to inf at public value {at!r}")
    return FeatureTable("time_per_unit", per_unit, dataset.secrets)


def _labels(classes: ObservationClassSet, secrets: np.ndarray, whose: str) -> np.ndarray:
    """The class id of each of ``secrets``: the class set's labels, once its
    secrets are known to be these, in this order."""
    if not np.array_equal(classes.secrets, secrets):
        raise ValueError(f"the class set's secrets are not the {whose} secrets, in order")
    return classes.labels


def training_samples(
    features: FeatureTable, classes: ObservationClassSet
) -> tuple[np.ndarray, np.ndarray, str]:
    """One labeled sample per execution (secret, grid point), secret-major.

    Returns ``(x, y, name)``: the ``N`` feature values, the ``N`` class ids
    in the narrowest unsigned type, and the feature name.
    """
    x = features.values.reshape(-1)
    y = np.repeat(_labels(classes, features.secrets, "features'"), features.values.shape[1])
    return x, y, features.name


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
        pred = tree.predict(features.values[lo:hi])
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
        "feature": 0,
        "threshold": node.threshold,
        "left": _node_to_json(node.left),
        "right": _node_to_json(node.right),
    }


def tree_to_json(tree: DecisionTree) -> dict:
    return {
        "feature_names": [tree.feature_name],
        "train_accuracy": tree.train_accuracy,
        "root": _node_to_json(tree.root),
    }
