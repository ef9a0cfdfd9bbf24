"""Mitigation policies: row-stochastic elevation maps over observation classes.

A policy is a k x k matrix whose row i gives the probability of reporting a
secret from class i as class j.  Moves must respect the class order (j >= i,
padding only adds delay), so entries below the diagonal are structurally
zero.  A policy checks its matrix once, at construction, and a
deterministic policy is one whose rows are point masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import ObservationClassSet
from .entropy import EntropyMeasure, entropy
from .errors import InfeasiblePolicyError

__all__ = [
    "MitigationPolicy",
    "identity_policy",
    "full_merge_policy",
    "blocks_policy",
    "expected_sizes",
    "expected_overhead",
    "EntropyReport",
    "build_report",
    "policy_to_json",
    "sanitize_matrix",
]

ROW_TOL = 1e-9
DUST_TOL = 1e-9  # solver output entries smaller in magnitude are rounding dust
BUDGET_TOL = 1e-9  # a policy is within budget when its overhead is <= delta + this
# Classes any solver takes on.  Past this the solvers' time and memory run
# away (one 2-vCPU core: the min-guess DP at delta 0.5 takes 1.1 s at k 100
# and 16 s at k 200; local search, guessing at delta 0.3 with 2 starts, 12 s
# and 198 MB at k 80; the B&B's link rows alone hold about k^3 floats, 33 GB
# at k 1 600), so a larger set is refused before any work.  It caps the
# size of a program, not the B&B's node count.
MAX_CLASSES = 100


@dataclass(frozen=True)
class MitigationPolicy:
    """Row-stochastic, upward-only class-elevation matrix.

    Construction raises ``InfeasiblePolicyError`` unless the matrix is square
    and finite, every entry lies in [0, 1] and at most ``ROW_TOL`` below the
    diagonal, and every row sums to 1 within ``ROW_TOL``.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InfeasiblePolicyError("policy matrix must be square")
        violations = [
            f"entry ({i},{j}) = {float(mat[i, j])!r} is not finite"
            for i, j in np.argwhere(~np.isfinite(mat))
        ]
        if not violations:
            row_sums = mat.sum(axis=1)
            violations += [
                f"row {i} sums to {float(row_sums[i])!r}"
                for i in np.flatnonzero(np.abs(row_sums - 1.0) > ROW_TOL)
            ]
            violations += [
                f"entry ({i},{j}) = {float(mat[i, j])!r} outside [0, 1]"
                for i, j in np.argwhere((mat < -ROW_TOL) | (mat > 1.0 + ROW_TOL))
            ]
            violations += [
                f"order violated at ({i},{j})"
                for i, j in np.argwhere(np.tril(mat, -1) > ROW_TOL)
            ]
        if violations:
            raise InfeasiblePolicyError("; ".join(violations))
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    @property
    def deterministic(self) -> bool:
        """Every row is a point mass: each entry is exactly 0 or 1."""
        return bool(np.all((self.matrix == 0.0) | (self.matrix == 1.0)))


def check_class_count(classes: ObservationClassSet) -> None:
    """Refuse more than ``MAX_CLASSES`` classes with a ValueError."""
    if classes.k > MAX_CLASSES:
        raise ValueError(
            f"a solver takes at most {MAX_CLASSES} classes, got k = {classes.k}; "
            "a larger --epsilon merges more secrets into one class"
        )


def identity_policy(k: int) -> MitigationPolicy:
    return MitigationPolicy(np.eye(int(k)))


def full_merge_policy(k: int) -> MitigationPolicy:
    """Send every class to the top class."""
    mat = np.zeros((int(k), int(k)))
    mat[:, -1] = 1.0
    return MitigationPolicy(mat)


def blocks_policy(blocks, k: int) -> MitigationPolicy:
    """Deterministic policy elevating each contiguous block to its top class.

    ``blocks`` is a sequence of (lo, hi) index pairs, inclusive, covering
    0..k-1 in order.
    """
    mat = np.zeros((k, k))
    covered = 0
    for lo, hi in blocks:
        if lo != covered or hi < lo or hi >= k:
            raise ValueError("blocks must partition 0..k-1 in order")
        mat[lo : hi + 1, hi] = 1.0
        covered = hi + 1
    if covered != k:
        raise ValueError("blocks must cover all classes")
    return MitigationPolicy(mat)


def expected_sizes(policy: MitigationPolicy, sizes) -> np.ndarray:
    """Expected post-mitigation class sizes: C_j = sum_{i<=j} B_i * mu[i, j]."""
    b = np.asarray(sizes, dtype=float).ravel()
    if b.size != policy.k:
        raise ValueError("sizes length must match policy dimension")
    return np.clip(b @ policy.matrix, 0.0, None)


def expected_overhead(policy: MitigationPolicy, classes: ObservationClassSet) -> float:
    """Size-weighted mean move penalty: (1/B) * sum B_i * mu[i, j] * penalty[i, j]."""
    mat = policy.matrix
    pen = classes.penalty
    # Below the diagonal moves cost +inf and a policy holds at most ROW_TOL;
    # entries that small are left unpriced.
    weighted = mat * np.where(mat > ROW_TOL, pen, 0.0)
    b = classes.sizes
    return float((b[:, None] * weighted).sum() / b.sum())


@dataclass(frozen=True)
class EntropyReport:
    """Before/after leakage summary for one synthesized or applied policy."""

    measure: EntropyMeasure
    entropy_before: float
    entropy_after: float
    expected_sizes: tuple[float, ...]
    expected_overhead: float
    delta_bound: float


def build_report(
    policy: MitigationPolicy,
    classes: ObservationClassSet,
    measure: EntropyMeasure | str,
    delta: float,
) -> EntropyReport:
    measure = EntropyMeasure(measure)
    sizes = classes.sizes
    post = expected_sizes(policy, sizes)
    if abs(float(post.sum()) - float(sizes.sum())) > 1e-6:
        raise InfeasiblePolicyError("expected sizes do not conserve total size")
    overhead = expected_overhead(policy, classes)
    if overhead > delta + BUDGET_TOL:
        raise InfeasiblePolicyError(
            f"expected overhead {overhead!r} exceeds budget {delta!r}"
        )
    return EntropyReport(
        measure=measure,
        entropy_before=entropy(sizes, measure),
        entropy_after=entropy(post, measure),
        expected_sizes=tuple(float(c) for c in post),
        expected_overhead=overhead,
        delta_bound=float(delta),
    )


def policy_to_json(
    policy: MitigationPolicy, report: EntropyReport, diagnostics: dict | None = None
) -> dict:
    """Schema: {k, deterministic, matrix, measure, delta, expected_sizes,
    entropy_before, entropy_after, overhead} plus optional diagnostics."""
    data = {
        "k": policy.k,
        "deterministic": policy.deterministic,
        "matrix": [[float(v) for v in row] for row in policy.matrix],
        "measure": report.measure.value,
        "delta": None if np.isinf(report.delta_bound) else float(report.delta_bound),
        "expected_sizes": [float(c) for c in report.expected_sizes],
        "entropy_before": report.entropy_before,
        "entropy_after": report.entropy_after,
        "overhead": report.expected_overhead,
    }
    if diagnostics is not None:
        data["diagnostics"] = diagnostics
    return data


def sanitize_matrix(matrix: np.ndarray) -> np.ndarray:
    """Clean solver output: zero the forbidden triangle and dust entries, then
    absorb the row-sum deficit into each row's largest entry so the other
    probabilities (and the budget they price) stay untouched."""
    mat = np.array(matrix, dtype=float)
    k = mat.shape[0]
    mat[np.tril_indices(k, -1)] = 0.0
    mat[np.abs(mat) < DUST_TOL] = 0.0
    mat = np.clip(mat, 0.0, 1.0)
    row_sums = mat.sum(axis=1)
    if np.any(row_sums <= 0):
        raise InfeasiblePolicyError("a policy row lost all probability mass")
    mat[np.arange(k), np.argmax(mat, axis=1)] += 1.0 - row_sums
    return np.clip(mat, 0.0, 1.0)
