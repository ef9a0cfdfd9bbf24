"""Leakage metrics over observation-class sizes.

All three measures read a vector of class sizes (reals, so expected sizes
under a randomized policy are welcome) and report how much uncertainty about
the secret survives once the attacker has pinned down the class:

* shannon:   (1/B) * sum_i B_i * log2(B_i)
* guessing:  (1/(2B)) * sum_i B_i**2 + 1/2
* minguess:  min over non-empty classes of (B_i + 1) / 2

with B the total size.  Empty classes contribute nothing.

``MEASURES`` is the one home of these formulas.  The solvers optimize a
measure's raw value (sum B_i log2 B_i, sum B_i**2, or the smallest class
size) and map it onto the entropy scale with the row's ``finalize``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = ["EntropyMeasure", "MeasureRow", "MEASURES", "entropy", "post_policy_entropy"]


class EntropyMeasure(str, Enum):
    SHANNON = "shannon"
    GUESSING = "guessing"
    MINGUESS = "minguess"


@dataclass(frozen=True)
class MeasureRow:
    """How one measure is computed.

    ``term`` maps positive class sizes (scalar or array) to their per-class
    contributions; ``combine`` folds two raw values on Python floats (``+`` or
    ``min``); ``finalize(raw, B)`` rescales a raw value with total size B onto
    the entropy scale; ``slope`` is d term / d size for gradient ascent, or
    None for min-guess.
    """

    term: Callable
    combine: Callable[[float, float], float]
    finalize: Callable[[float, float], float]
    slope: Callable | None

    def raw(self, sizes: np.ndarray) -> float:
        """Raw value of a size vector: its non-empty classes' terms, folded."""
        return float(self.raw_rows(sizes[None])[0])

    def raw_rows(self, sizes: np.ndarray) -> np.ndarray:
        """``raw`` of every row of an (n, k) stack of size vectors, bit for bit.

        Rows are grouped by their number m of positive classes, and each
        group's positives are folded as contiguous (g, m) rows.  A row sum
        equals the 1-D sum of the same m values; a zero-padded row would
        group NumPy's pairwise summation differently once m >= 8.
        """
        pos = sizes > 0
        counts = pos.sum(axis=1)
        listed = counts.tolist()
        out = np.empty(len(sizes))
        for m in set(listed):
            rows = counts == m
            terms = self.term(sizes[rows][pos[rows]].reshape(listed.count(m), m))
            out[rows] = terms.min(axis=1) if self.combine is min else terms.sum(axis=1)
        return out


MEASURES: dict[EntropyMeasure, MeasureRow] = {
    EntropyMeasure.SHANNON: MeasureRow(
        term=lambda b: b * np.log2(b),
        combine=operator.add,
        finalize=lambda raw, total: raw / total,
        slope=lambda c: np.log2(np.maximum(c, 1e-12)) + 1.0 / np.log(2.0),
    ),
    EntropyMeasure.GUESSING: MeasureRow(
        term=lambda b: b * b,
        combine=operator.add,
        finalize=lambda raw, total: raw / (2.0 * total) + 0.5,
        slope=lambda c: 2.0 * c,
    ),
    EntropyMeasure.MINGUESS: MeasureRow(
        term=lambda b: b,
        combine=min,
        finalize=lambda raw, total: (raw + 1.0) / 2.0,
        slope=None,
    ),
}


def entropy(sizes, measure: EntropyMeasure | str) -> float:
    """Evaluate one leakage measure on a vector of class sizes."""
    row = MEASURES[EntropyMeasure(measure)]
    b = np.asarray(sizes, dtype=float).ravel()
    if b.size == 0:
        raise ValueError("sizes must be non-empty")
    if not np.all(np.isfinite(b)):
        raise ValueError("class sizes must be finite")
    if np.any(b < 0):
        raise ValueError("class sizes must be non-negative")
    total = float(b.sum())
    if total <= 0:
        raise ValueError("at least one class size must be positive")
    return float(row.finalize(row.raw(b), total))


def post_policy_entropy(policy, classes, measure: EntropyMeasure | str) -> float:
    """Entropy of the expected class sizes induced by a mitigation policy."""
    from .policy import expected_sizes

    return entropy(expected_sizes(policy, classes.sizes), measure)
