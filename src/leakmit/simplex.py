"""Dense two-phase simplex for the small linear programs used by synthesis.

Solves

    max (or min) c.x
    s.t. a_ub @ x <= b_ub
         a_eq @ x == b_eq
         lo <= x <= hi   (lo finite, hi may be None for +inf)

with a classic tableau method: finite upper bounds become extra rows, lower
bounds are shifted out, rows are normalized to non-negative right-hand sides,
and artificials are introduced for equality and flipped rows.  Phase one
minimizes the artificial mass, then drops the artificial columns; phase two
optimizes the caller's objective.
Dantzig pricing is used until the objective stalls, then Bland's rule takes
over so degenerate programs cannot cycle.  Problem data here is small and
rationally scaled, so the default tolerances resolve vertices to ~1e-9.

A pivot is one rank-1 update: after the pivot row is scaled, every other row
whose pivot-column entry is non-zero subtracts that entry times the pivot row,
in a single fancy-indexed array expression.  Rows with a zero there are left
untouched, so each entry sees the same float operations as an explicit row
loop would perform.  Non-finite problem data is rejected up front; only an
upper bound may be infinite.

Warm start: an optimal solve returns its final basis.  A later program with
the same constraint matrix and the same pattern of finite upper bounds (only
right-hand sides and bound values differ, as between a branch-and-bound node
and its children) can pass that basis back.  Its tableau is rebuilt with one
dense solve, B^-1 [A | I | b], over the structural and slack columns; a dual
simplex (Bland's rule for the leaving row, smallest index among tied
entering columns) restores primal feasibility, and the primal simplex cleans
up.  The dual ratio test skips pivots smaller than ``DUAL_PIVOT_TOL``: on
the min-guess programs a 4e-10 pivot there blew the right-hand side up to
1e11 and left a numerically singular basis.  A basis of the wrong shape, a
singular basis, a leaving row with only such tiny pivots, or a dual phase
that reaches ``DUAL_MAX_ITERS`` falls back to the cold solve, the same
float operations as a solve without a basis.

Prepared starts: work that several solves repeat is done once and passed
to each through ``basis=`` as a ``Start``, which also carries the program's
standard form, so the solve skips rebuilding it.  ``warm_starts`` rebuilds
one basis for several right-hand sides in a single dense solve against
[A | I | b_0 | b_1 | ...] (the children of a branch-and-bound node); a
basis passed as an array is the one-right-hand-side case.  ``phase_one``
solves phase one once for constraints that many objectives share (the
vertex jumps of a local search); each solve copies its tableau and runs
phase two.  Either way a solve returns the bits it returns on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverError

__all__ = ["LpResult", "Start", "phase_one", "solve_lp", "warm_starts"]

PIVOT_TOL = 1e-10
FEAS_TOL = 1e-8
COST_TOL = 1e-10
STALL_LIMIT = 60
MAX_ITERS = 50_000
DUAL_MAX_ITERS = 5_000
DUAL_PIVOT_TOL = 1e-7


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float
    # Final basis of an optimal solve (column per tableau row), for warm starts
    basis: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Start:
    """A program in standard form and the tableau its solve begins from.

    The standard form is the one ``solve_lp`` builds: y = x - lo >= 0 and
    ``rows_a @ y`` <= ``rhs`` over the first ``m_ub`` rows (the caller's
    inequalities, then the finite upper bounds), == over the rest.
    ``tableau`` and ``basis`` are phase one's feasible tableau when
    ``feasible``, which the solve copies straight into phase two, or
    B^-1 [A | I | rhs] at a given basis, which it checks and hands to the
    dual simplex.  Without a tableau the program is solved cold.
    """

    rows_a: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    m_ub: int
    tableau: np.ndarray | None = None
    basis: np.ndarray | None = None
    feasible: bool = False


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
) -> str:
    """Maximize costs.x in place.  Returns "optimal" or "unbounded"."""
    z, obj = _reduced_costs(tableau, basis, costs)
    stall = 0
    for _ in range(MAX_ITERS):
        candidates = (z < -COST_TOL).nonzero()[0]
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


def _cold_start(rows_a: np.ndarray, rhs: np.ndarray, m_ub: int):
    """Phase one from the slack and artificial basis.

    Returns ``(tableau, basis)`` over the structural and slack columns at a
    feasible basis, or "infeasible".  Every artificial has left the basis or
    its redundant row was dropped, so its column goes too.  The inputs stay
    untouched: rows with a negative right-hand side are flipped in copies.
    """
    m, n = rows_a.shape
    flip = rhs < 0
    rows_a = np.where(flip[:, None], -rows_a, rows_a)
    rhs = np.where(flip, -rhs, rhs)
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

    if n_art:
        phase1 = np.zeros(width)
        phase1[n + n_slack :] = -1.0
        status = _run_simplex(tableau, basis, phase1)
        if status != "optimal":
            raise SolverError("phase one cannot be unbounded")
        _, p1_obj = _reduced_costs(tableau, basis, phase1)
        if p1_obj < -FEAS_TOL:
            return "infeasible"
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
        columns = np.r_[: n + n_slack, width]
        tableau = tableau[np.ix_(keep, columns)]
        basis = basis[keep]
    return tableau, basis


def _refactor(forms: list[Start], basis) -> list[Start]:
    """Every form with the tableau of ``basis``, from one dense solve.

    The forms share their constraint rows and differ only in right-hand
    sides, so one ``np.linalg.solve`` of B against [A | I | rhs_0 | rhs_1 |
    ...] serves them all; each start gets the shared columns and its own
    right-hand side.  Appending right-hand-side columns to a LAPACK solve
    leaves every other column's bits as they are, so each tableau holds the
    bits of a solve of its own [A | I | rhs]; a column solved alone would
    not.  A basis of the wrong shape, with a repeated column or singular
    leaves the forms as they are, to be solved cold.
    """
    rows_a, m_ub = forms[0].rows_a, forms[0].m_ub
    m, n = rows_a.shape
    width = n + m_ub
    basis = np.array(basis, dtype=int)  # the caller's basis stays untouched
    if basis.shape != (m,) or not np.all((basis >= 0) & (basis < width)):
        return forms
    if np.bincount(basis, minlength=width).max(initial=0) > 1:
        return forms  # a repeated column
    full = np.zeros((m, width + len(forms)))
    full[:, :n] = rows_a
    full[np.arange(m_ub), n + np.arange(m_ub)] = 1.0
    full[:, width:] = np.column_stack([form.rhs for form in forms])
    try:
        solved = np.linalg.solve(full[:, basis], full)
    except np.linalg.LinAlgError:
        return forms
    shared = solved[:, :width]
    return [
        replace(form, tableau=np.hstack([shared, solved[:, [width + i]]]), basis=basis)
        for i, form in enumerate(forms)
    ]


def _warm_start(tableau: np.ndarray, basis: np.ndarray, obj: np.ndarray):
    """The refactorized tableau made primal feasible by the dual simplex.

    Works in place on ``tableau`` and ``basis``.  Returns ``(tableau,
    basis)``, "infeasible" when a row proves the program has no solution,
    or None when the basis is of no use here (numerically singular, only
    tiny pivots in a leaving row, or the dual phase hit its iteration cap);
    the caller then solves cold.  A reduced cost below zero (roundoff, or a
    basis from another objective) counts as zero in the ratio test; the
    primal simplex that follows mends it.
    """
    m = basis.size
    identity = np.eye(m)
    if not (
        np.isfinite(tableau).all()
        and np.abs(tableau[:, basis] - identity).max(initial=0.0) <= FEAS_TOL
    ):
        return None  # numerically singular
    tableau[:, basis] = identity

    costs = np.zeros(tableau.shape[1] - 1)
    costs[: obj.size] = obj
    z, _ = _reduced_costs(tableau, basis, costs)
    for _ in range(DUAL_MAX_ITERS):
        short = (tableau[:, -1] < -FEAS_TOL).nonzero()[0]
        if not short.size:
            return tableau, basis
        # Bland's rule: the smallest basic index leaves.
        row = int(short[basis[short].argmin()])
        entries = tableau[row, :-1]
        cols = (entries < -DUAL_PIVOT_TOL).nonzero()[0]
        if not cols.size:
            if np.any(entries < -PIVOT_TOL):
                return None  # only tiny pivots: not worth the error
            return "infeasible"  # a negative row of non-negative terms
        ratios = np.maximum(z[cols], 0.0) / -entries[cols]
        col = int(cols[(ratios <= ratios.min() + 1e-12).argmax()])
        _pivot(tableau, basis, row, col)
        z, _ = _reduced_costs(tableau, basis, costs)
    return None


def _standard_form(n: int, a_ub, b_ub, a_eq, b_eq, bounds) -> Start | None:
    """Check the constraints of an n-variable program and shift them out.

    With x = y + lo, y >= 0, finite upper bounds become <= rows after the
    caller's inequalities.  None when an upper bound lies below its lower
    bound: the program is infeasible.
    """
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float).ravel()
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    if a_ub.shape != (b_ub.size, n) or a_eq.shape != (b_eq.size, n):
        raise ValueError("constraint matrix shapes do not match")
    data = {"a_ub": a_ub, "b_ub": b_ub, "a_eq": a_eq, "b_eq": b_eq}
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
        return None

    b_ub_s = b_ub - a_ub @ lo
    b_eq_s = b_eq - a_eq @ lo
    finite_ub = np.flatnonzero(np.isfinite(hi))
    bound_rows = np.zeros((finite_ub.size, n))
    bound_rows[np.arange(finite_ub.size), finite_ub] = 1.0
    rows_a = np.vstack([a_ub, bound_rows, a_eq])
    rhs = np.concatenate([b_ub_s, hi[finite_ub] - lo[finite_ub], b_eq_s])
    return Start(rows_a, rhs, lo, b_ub.size + finite_ub.size)


def phase_one(a_ub, b_ub, a_eq, b_eq, bounds) -> Start | None:
    """A start for every objective over these constraints: phase one's
    feasible tableau.

    Phase one never reads the objective, so ``solve_lp(c, ..., basis=start)``
    with any ``c`` copies this tableau and runs phase two alone, the float
    operations of its cold solve after phase one.  An infeasible program
    gets a start without a tableau, and None when a bound pair is crossed;
    both solve cold.
    """
    form = _standard_form(len(bounds), a_ub, b_ub, a_eq, b_eq, bounds)
    if form is None:
        return None
    found = _cold_start(form.rows_a, form.rhs, form.m_ub)
    if found == "infeasible":
        return form
    tableau, basis = found
    return replace(form, tableau=tableau, basis=basis, feasible=True)


def warm_starts(a_ub, b_ub, a_eq, b_eq, bounds_list, basis) -> list[Start | None]:
    """One start per entry of ``bounds_list``, all from one refactorization
    of ``basis``.

    The programs share the constraint matrix and the pattern of finite upper
    bounds and differ only in bound values, as the children of one
    branch-and-bound node do.  ``solve_lp(c, ..., bounds_list[i],
    basis=starts[i])`` then answers as ``basis=basis`` would, without a
    refactorization of its own.  An entry is None when its bound pair is
    crossed; it solves cold.
    """
    forms = [
        _standard_form(len(bounds), a_ub, b_ub, a_eq, b_eq, bounds)
        for bounds in bounds_list
    ]
    live = [form for form in forms if form is not None]
    starts = iter(_refactor(live, basis) if live else ())
    return [None if form is None else next(starts) for form in forms]


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    bounds=None,
    maximize: bool = True,
    basis=None,
) -> LpResult:
    """Solve the linear program described in the module docstring.

    ``basis`` is the ``LpResult.basis`` of an earlier solve whose program
    differs from this one only in right-hand sides and bound values; the
    solve then warm-starts from it (see the module docstring).  It may also
    be a ``Start`` from ``phase_one`` or ``warm_starts`` for these same
    constraints; the solve then takes the program's standard form from it,
    unchecked, as it trusts a basis.
    """
    c = np.asarray(c, dtype=float).ravel()
    if not np.isfinite(c).all():
        raise ValueError("c must be finite")
    if isinstance(basis, Start):
        start = basis
    else:
        start = _standard_form(c.size, a_ub, b_ub, a_eq, b_eq, bounds)
        if start is None:
            return LpResult("infeasible", None, np.nan)
        if basis is not None:
            start = _refactor([start], basis)[0]

    n = c.size
    sign = 1.0 if maximize else -1.0
    obj = sign * c
    found = None
    if start.tableau is not None:
        found = (start.tableau.copy(), start.basis.copy())
        if not start.feasible:
            found = _warm_start(*found, obj)
    if found is None:
        found = _cold_start(start.rows_a, start.rhs, start.m_ub)
    if found == "infeasible":
        return LpResult("infeasible", None, np.nan)
    tableau, basis = found

    width = tableau.shape[1] - 1
    full_costs = np.zeros(width)
    full_costs[:n] = obj
    status = _run_simplex(tableau, basis, full_costs)
    if status == "unbounded":
        return LpResult("unbounded", None, np.nan)

    y = np.zeros(width)
    y[basis] = tableau[:, -1]
    x = y[:n] + start.lo
    return LpResult("optimal", x, float(c @ x), basis)
