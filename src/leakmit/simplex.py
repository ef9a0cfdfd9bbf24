"""Dense two-phase simplex for the small linear programs used by synthesis.

Solves

    max (or min) c.x
    s.t. a_ub @ x <= b_ub
         a_eq @ x == b_eq
         lo <= x <= hi   (lo finite, hi may be None for +inf)

with a classic tableau method: finite upper bounds become extra rows, lower
bounds are shifted out, rows are normalized to non-negative right-hand sides,
and artificials are introduced for equality and flipped rows.  Phase one
minimizes the artificial mass; phase two optimizes the caller's objective.
Dantzig pricing is used until the objective stalls, then Bland's rule takes
over so degenerate programs cannot cycle.  Problem data here is small and
rationally scaled, so the default tolerances resolve vertices to ~1e-9.

A pivot is one rank-1 update: after the pivot row is scaled, every other row
whose pivot-column entry is non-zero subtracts that entry times the pivot row,
in a single fancy-indexed array expression.  Rows with a zero there are left
untouched, so each entry sees the same float operations as an explicit row
loop would perform.  Non-finite problem data is rejected up front; only an
upper bound may be infinite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError

__all__ = ["LpResult", "solve_lp"]

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8
COST_TOL = 1e-10
STALL_LIMIT = 60
MAX_ITERS = 50_000


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    touched = np.abs(tableau[:, col]) > 0.0
    touched[row] = False
    rows = touched.nonzero()[0]
    tableau[rows] -= tableau[rows, col][:, None] * pivot_row
    basis[row] = col


def _reduced_costs(tableau: np.ndarray, basis: np.ndarray, costs: np.ndarray):
    z = costs[basis] @ tableau[:, :-1] - costs
    obj = float(costs[basis] @ tableau[:, -1])
    return z, obj


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    costs: np.ndarray,
    allowed: np.ndarray,
) -> str:
    """Maximize costs.x in place.  Returns "optimal" or "unbounded"."""
    z, obj = _reduced_costs(tableau, basis, costs)
    stall = 0
    for _ in range(MAX_ITERS):
        candidates = (allowed & (z < -COST_TOL)).nonzero()[0]
        if not candidates.size:
            return "optimal"
        if stall <= STALL_LIMIT:
            col = int(candidates[z[candidates].argmin()])
        else:
            col = int(candidates[0])  # Bland's rule: smallest improving index
        column = tableau[:, col]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return "unbounded"
        # Ratio test over the rows with a positive pivot-column entry.
        ratios = tableau[rows, -1] / column[rows]
        tie_rows = rows[ratios <= ratios.min() + 1e-12]
        # Anti-cycling tie break: leave the smallest basis index.
        row = int(tie_rows[basis[tie_rows].argmin()])
        _pivot(tableau, basis, row, col)
        z, new_obj = _reduced_costs(tableau, basis, costs)
        stall = stall + 1 if new_obj <= obj + 1e-12 else 0
        obj = new_obj
    raise SolverError("simplex iteration limit exceeded")


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=None,
    maximize: bool = True,
) -> LpResult:
    """Solve the linear program described in the module docstring."""
    c = np.asarray(c, dtype=float).ravel()
    n = c.size
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise ValueError("constraint matrix shapes do not match")
    data = {"c": c, "a_ub": a_ub, "b_ub": b_ub, "a_eq": a_eq, "b_eq": b_eq}
    for name, arr in data.items():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    if bounds is None:
        bounds = [(0.0, None)] * n
    lo = np.asarray([b[0] for b in bounds], dtype=float)
    hi = np.asarray(
        [np.inf if b[1] is None else float(b[1]) for b in bounds], dtype=float
    )
    if not np.isfinite(lo).all():
        raise ValueError("lower bounds must be finite")
    if np.isnan(hi).any():
        raise ValueError("upper bounds must be a number or None")
    if np.any(hi < lo - FEAS_TOL):
        return LpResult("infeasible", None, np.nan)

    sign = 1.0 if maximize else -1.0
    obj = sign * c

    # Shift x = y + lo so y >= 0; finite upper bounds become <= rows.
    b_ub_s = b_ub - a_ub @ lo
    b_eq_s = b_eq - a_eq @ lo
    finite_ub = np.flatnonzero(np.isfinite(hi))
    if finite_ub.size:
        rows = np.zeros((finite_ub.size, n))
        rows[np.arange(finite_ub.size), finite_ub] = 1.0
        a_ub_s = np.vstack([a_ub, rows])
        b_ub_s = np.concatenate([b_ub_s, hi[finite_ub] - lo[finite_ub]])
    else:
        a_ub_s = a_ub

    m_ub, m_eq = a_ub_s.shape[0], a_eq.shape[0]
    m = m_ub + m_eq
    rows_a = np.vstack([a_ub_s, a_eq]) if m else np.zeros((0, n))
    rhs = np.concatenate([b_ub_s, b_eq_s])
    flip = rhs < 0
    rows_a[flip] = -rows_a[flip]
    rhs[flip] = -rhs[flip]
    # +1 keeps <=, -1 marks a flipped (>=) row
    ineq_dirs = np.where(flip[:m_ub], -1.0, 1.0)

    needs_artificial = np.ones(m, dtype=bool)
    needs_artificial[:m_ub] = flip[:m_ub]
    art_rows = needs_artificial.nonzero()[0]
    n_slack = m_ub
    n_art = art_rows.size
    width = n + n_slack + n_art
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)

    tableau = np.zeros((m, width + 1))
    tableau[:, :n] = rows_a
    tableau[np.arange(m_ub), slack_cols] = ineq_dirs
    tableau[art_rows, art_cols] = 1.0
    tableau[:, -1] = rhs

    basis = np.empty(m, dtype=int)
    basis[:m_ub] = slack_cols
    basis[art_rows] = art_cols

    allowed = np.ones(width, dtype=bool)
    if n_art:
        phase1 = np.zeros(width)
        phase1[n + n_slack :] = -1.0
        status = _run_simplex(tableau, basis, phase1, allowed)
        if status != "optimal":
            raise SolverError("phase one cannot be unbounded")
        _, p1_obj = _reduced_costs(tableau, basis, phase1)
        if p1_obj < -FEAS_TOL:
            return LpResult("infeasible", None, np.nan)
        # Drive leftover artificials out of the basis, dropping redundant rows.
        keep = np.ones(m, dtype=bool)
        for r in range(m):
            if basis[r] >= n + n_slack:
                pivot_cols = np.flatnonzero(
                    np.abs(tableau[r, : n + n_slack]) > PIVOT_TOL
                )
                if pivot_cols.size:
                    _pivot(tableau, basis, r, int(pivot_cols[0]))
                else:
                    keep[r] = False
        tableau = tableau[keep]
        basis = basis[keep]
        allowed[n + n_slack :] = False

    full_costs = np.zeros(width)
    full_costs[:n] = obj
    status = _run_simplex(tableau, basis, full_costs, allowed)
    if status == "unbounded":
        return LpResult("unbounded", None, np.nan)

    y = np.zeros(width)
    y[basis] = tableau[:, -1]
    x = y[:n] + lo
    return LpResult("optimal", x, float(c @ x))
