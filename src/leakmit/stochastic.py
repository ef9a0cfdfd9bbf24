"""Randomized policy synthesis over the full order-respecting polytope.

The feasible set is

    mu[i, j] >= 0 only for j >= i          (padding moves only)
    sum_j mu[i, j] == 1                    (each row is a distribution)
    (1/B) * sum_ij B_i mu[i, j] pen[i, j] <= delta

with expected class sizes C_j = sum_i B_i mu[i, j].  Both solvers build their
linear programs from one array description of this polytope,
``_upward_program``: one column per entry mu[i, j >= i] in the row-major order
of ``np.triu_indices(k)``, the row-sum equalities, and the budget row when
delta is finite.  ``_matrix_from_mu`` maps any LP vector back to a matrix.

Min-guess is maximized exactly: "the smallest non-empty class" is modeled
with one indicator per class (z_j = 1 when class j keeps mass, big-M = B) and
the resulting mixed-integer program (the upward program plus the z and m
columns and their link rows) is solved by branch and bound over the z
variables with the tableau simplex as relaxation engine, most-fractional
branching, and best-bound node order.

Shannon and guessing objectives are convex in C, so their optimum sits on a
polytope vertex; they are attacked by multi-start projected gradient ascent
whose start list always contains the identity and the deterministic-search
policy, which makes those two objectives a floor for the result.  Each
ascent step projects all k rows back onto their simplices in one batched
sort-and-threshold pass (``_project_rows``), entry for entry the float
operations of a per-row projection.  Its vertex jumps maximize the
gradient's linearization over the same polytope.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .clustering import ObservationClassSet
from .entropy import MEASURES, EntropyMeasure
from .errors import SolverError
from .policy import (
    MitigationPolicy,
    full_merge_policy,
    identity_policy,
    sanitize_matrix,
)
from .deterministic import synthesize_det
from .simplex import LpResult, solve_lp

__all__ = ["SolveDiagnostics", "synthesize_minguess", "synthesize_local"]

INT_TOL = 1e-9
STEP_TOL = 1e-8
MAX_ASCENT_ITERS = 10_000


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the solver did and how good its answer provably is.

    ``objective`` is on the raw scale of ``entropy.MEASURES`` (the measure's
    ``finalize`` maps it onto the entropy scale): the smallest non-empty
    expected class size for min-guess, sum C*log2(C) for shannon, sum C**2
    for guessing.  ``best_bound`` is an upper bound on the achievable raw
    objective.  Branch and bound reports max(incumbent, root relaxation);
    the root relaxation is usually far above the optimum, so the bound is
    loose even when the search has closed.  Local search reports the raw
    value of merging everything into one class of size B.
    """

    nodes_explored: int
    restarts: int
    best_bound: float
    objective: float
    status: str  # "optimal" | "feasible" | "budget-infeasible"


def _move_cost(classes: ObservationClassSet) -> np.ndarray:
    """Budget spent per unit of mu[i, j]: B_i * penalty[i, j] / B.

    Forbidden (downward) moves cost 0 here; the solvers never put mass there.
    """
    sizes = classes.sizes
    pen = np.where(np.isinf(classes.penalty), 0.0, classes.penalty)
    return sizes[:, None] * pen / sizes.sum()


def _upward_program(classes: ObservationClassSet, delta: float):
    """The upward-move polytope over the mu entries i <= j in ``iu`` order.

    Returns ``(iu, a_eq, b_eq, a_ub, b_ub)``: one row-sum equality per class
    and, for a finite delta, the budget row (else ``a_ub = b_ub = None``).
    """
    k = classes.k
    iu = np.triu_indices(k)
    a_eq = (iu[0] == np.arange(k)[:, None]).astype(float)
    b_eq = np.ones(k)
    if not np.isfinite(delta):
        return iu, a_eq, b_eq, None, None
    return iu, a_eq, b_eq, _move_cost(classes)[iu][None, :], np.array([float(delta)])


def _minguess_program(classes: ObservationClassSet, delta: float):
    """The upward program plus indicators and m.

    Variable layout: mu entries in ``iu`` order, then z_0..z_{k-1}, then m.
    Inequality rows: the budget row (finite delta), then per class j the
    pair m <= C_j + B * (1 - z_j), C_j <= B * z_j, then sum_j z_j >= 1.
    """
    k = classes.k
    sizes = classes.sizes
    total = sizes.sum()
    iu, a_eq, b_eq, budget, b_budget = _upward_program(classes, delta)
    n_mu = iu[0].size
    n = n_mu + k + 1
    into = iu[1] == np.arange(k)[:, None]  # [j, p]: entry p feeds class j
    z = n_mu + np.arange(k)

    # links[j, 0]: m <= C_j + B * (1 - z_j); links[j, 1]: C_j <= B * z_j
    links = np.zeros((k, 2, n))
    links[:, 0, :n_mu] = np.where(into, -sizes[iu[0]], 0.0)
    links[np.arange(k), 0, z] = total
    links[:, 0, -1] = 1.0
    links[:, 1, :n_mu] = np.where(into, sizes[iu[0]], 0.0)
    links[np.arange(k), 1, z] = -total
    survive = np.zeros((1, n))
    survive[0, z] = -1.0

    rows, rhs = [], []
    if budget is not None:
        rows.append(np.hstack([budget, np.zeros((1, k + 1))]))
        rhs.append(b_budget)
    rows += [links.reshape(2 * k, n), survive]
    rhs += [np.tile([total, 0.0], k), [-1.0]]
    c = np.zeros(n)
    c[-1] = 1.0
    a_eq = np.hstack([a_eq, np.zeros((k, k + 1))])
    return c, np.vstack(rows), np.concatenate(rhs), a_eq, b_eq, iu


def _matrix_from_mu(x: np.ndarray, iu, k: int) -> np.ndarray:
    """The k x k policy matrix whose upward entries are x's leading mu part."""
    mat = np.zeros((k, k))
    mat[iu] = x[: iu[0].size]
    return mat


def synthesize_minguess(
    classes: ObservationClassSet, delta: float
) -> tuple[MitigationPolicy, SolveDiagnostics]:
    """Exact min-guess maximization by branch and bound over the indicators."""
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    k = classes.k
    c, a_ub, b_ub, a_eq, b_eq, iu = _minguess_program(classes, delta)
    z0 = iu[0].size
    base_bounds: list[tuple[float, float | None]] = [(0.0, None)] * z0
    base_bounds += [(0.0, 1.0)] * k
    base_bounds += [(0.0, None)]

    def relax(fixes: dict[int, int]):
        bounds = list(base_bounds)
        for j, v in fixes.items():
            bounds[z0 + j] = (float(v), float(v))
        return solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)

    nodes_explored = 0
    incumbent_obj = -np.inf
    incumbent_x = None
    counter = 0
    # (-bound, tie-breaking counter, z fixes, relaxation at the node)
    heap: list[tuple[float, int, dict[int, int], LpResult]] = []

    root = relax({})
    nodes_explored += 1
    if root.status != "optimal":
        raise SolverError(f"relaxation at the root is {root.status}")
    heapq.heappush(heap, (-root.objective, counter, {}, root))
    counter += 1

    while heap:
        neg_bound, _, fixes, res = heapq.heappop(heap)
        if -neg_bound <= incumbent_obj + 1e-9:
            continue
        z_vals = res.x[z0 : z0 + k]
        frac = np.abs(z_vals - np.round(z_vals))
        if np.all(frac <= INT_TOL):
            if res.objective > incumbent_obj:
                incumbent_obj = res.objective
                incumbent_x = res.x
            continue
        branch_j = int(np.argmin(np.abs(z_vals - 0.5)))
        if frac[branch_j] <= INT_TOL:
            branch_j = int(np.argmax(frac))
        for v in (0, 1):
            child_fixes = dict(fixes)
            child_fixes[branch_j] = v
            child = relax(child_fixes)
            nodes_explored += 1
            if child.status != "optimal":
                continue
            if child.objective <= incumbent_obj + 1e-9:
                continue
            heapq.heappush(heap, (-child.objective, counter, child_fixes, child))
            counter += 1

    if incumbent_x is None:
        raise SolverError("no integral point found, identity should be feasible")

    mat = sanitize_matrix(_matrix_from_mu(incumbent_x, iu, k))
    policy = MitigationPolicy(mat, deterministic=False)
    diagnostics = SolveDiagnostics(
        nodes_explored=nodes_explored,
        restarts=0,
        best_bound=float(max(incumbent_obj, root.objective)),
        objective=float(incumbent_obj),
        status="optimal",
    )
    return policy, diagnostics


def _project_rows(mat: np.ndarray) -> np.ndarray:
    """Project every row's upward part onto {x >= 0, sum x == 1} at once.

    Row i keeps its k - i entries j >= i; everything below the diagonal is
    zero.  Sort-and-threshold (Duchi et al., ICML 2008) over all rows in one
    pass: each row's live entries sort to its front in descending order, the
    dead tail is zeroed before the running sum, rho is the last live index
    whose entry clears the running threshold, and tau = css[rho - 1] / rho.
    """
    k = mat.shape[0]
    idx = np.arange(k)
    upper = idx[:, None] <= idx
    live = upper[:, ::-1]  # row i: its first k - i sorted positions
    ks = idx + 1
    u = np.where(live, -np.sort(np.where(upper, -mat, np.inf), axis=1), 0.0)
    css = np.cumsum(u, axis=1) - 1.0
    cond = live & (u - css / ks > 0)
    rho = k - np.argmax(cond[:, ::-1], axis=1)
    tau = css[np.arange(k), rho - 1] / rho
    return np.where(upper, np.maximum(mat - tau[:, None], 0.0), 0.0)


def synthesize_local(
    classes: ObservationClassSet,
    measure: EntropyMeasure | str,
    delta: float,
    n_starts: int = 8,
    seed: int = 0,
    warm_starts: tuple[np.ndarray, ...] = (),
) -> tuple[MitigationPolicy, SolveDiagnostics]:
    """Multi-start projected gradient ascent for shannon or guessing.

    Every iterate stays feasible: rows are projected back onto their simplex
    and any budget overshoot is repaired by an exact line search toward the
    previous (feasible) iterate, which the affine budget makes closed-form.
    Deterministic for a fixed (seed, n_starts).  ``warm_starts`` accepts
    extra feasible matrices, e.g. a neighboring solve during a budget sweep.
    """
    measure = EntropyMeasure(measure)
    if measure is EntropyMeasure.MINGUESS:
        raise ValueError("use synthesize_minguess for the min-guess objective")
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    row = MEASURES[measure]
    k = classes.k
    sizes = classes.sizes
    total = sizes.sum()
    pen_cost = _move_cost(classes)
    mask = np.triu(np.ones((k, k), dtype=bool))

    def overhead(mat: np.ndarray) -> float:
        return float((mat * pen_cost).sum())

    def objective(mat: np.ndarray) -> float:
        return row.raw(sizes @ mat)

    def gradient(mat: np.ndarray) -> np.ndarray:
        g_col = row.slope(sizes @ mat)
        return np.where(mask, sizes[:, None] * g_col[None, :], 0.0)

    def ascend(start: np.ndarray) -> np.ndarray:
        # grad, norm, value and (once the repair needs it) the overhead of mu
        # are pure functions of mu, so they change only when mu does.
        mu = start
        grad = gradient(mu)
        norm = float(np.sqrt((grad * grad).sum()))
        value = objective(mu)
        mu_over = None
        step = 0.25
        for _ in range(MAX_ASCENT_ITERS):
            if norm * step < STEP_TOL:
                break
            trial = _project_rows(mu + step * grad)
            over = overhead(trial)
            if over > delta:
                if mu_over is None:
                    mu_over = overhead(mu)
                lam = (delta - mu_over) / (over - mu_over)
                lam = max(0.0, min(1.0, lam * (1.0 - 1e-12)))
                trial = mu + lam * (trial - mu)
                over = None
            trial_value = objective(trial)
            if trial_value > value + 1e-12:
                mu, value, mu_over = trial, trial_value, over
                grad = gradient(mu)
                norm = float(np.sqrt((grad * grad).sum()))
                step = min(step * 1.3, 16.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        return mu

    # The linearized jumps below optimize over the upward-move polytope; the
    # row-sum equalities already cap each variable at one.
    iu, lp_eq, lp_eq_rhs, lp_ub, lp_ub_rhs = _upward_program(classes, delta)
    lp_bounds = [(0.0, None)] * iu[0].size

    def vertex_jump(mu: np.ndarray) -> np.ndarray | None:
        """Best vertex of the feasible polytope for the gradient at mu.

        A convex objective peaks at a vertex, so following the linearization
        to its LP optimum escapes the interior points plain ascent stalls on.
        Returns None when the jump does not improve.
        """
        grad = gradient(mu)
        res = solve_lp(grad[iu], lp_ub, lp_ub_rhs, lp_eq, lp_eq_rhs, lp_bounds)
        if res.status != "optimal":
            return None
        vert = _matrix_from_mu(res.x, iu, k)
        if objective(vert) > objective(mu) + 1e-9:
            return vert
        return None

    def refine(start: np.ndarray) -> np.ndarray:
        mu = ascend(start)
        for _ in range(5):
            jumped = vertex_jump(mu)
            if jumped is None:
                break
            mu = ascend(jumped)
            if objective(mu) < objective(jumped):
                mu = jumped
        return mu

    rng = np.random.default_rng(seed)
    starts: list[np.ndarray] = [identity_policy(k).matrix.copy()]
    merge = full_merge_policy(k).matrix.copy()
    if overhead(merge) <= delta:
        starts.append(merge)
    dp_policy, _ = synthesize_det(classes, measure, delta, scan_all_r=True)
    starts.append(dp_policy.matrix.copy())
    for _ in range(int(n_starts)):
        rand = np.zeros((k, k))
        for i in range(k):
            rand[i, i:] = rng.dirichlet(np.ones(k - i))
        over = overhead(rand)
        lam = 1.0 if over <= delta else (delta / over) * (1.0 - 1e-12)
        starts.append(lam * rand + (1.0 - lam) * np.eye(k))
    for extra in warm_starts:
        extra = np.asarray(extra, dtype=float)
        if extra.shape == (k, k) and overhead(extra) <= delta + 1e-9:
            starts.append(np.clip(extra, 0.0, 1.0))

    best_mat = None
    best_obj = -np.inf
    for start in starts:
        final = refine(start)
        obj = objective(final)
        if obj > best_obj + 1e-12:
            best_obj = obj
            best_mat = final

    mat = sanitize_matrix(best_mat)
    over = overhead(mat)
    if over > delta:
        # Cleanup dust can nudge the budget; an exact pull toward the
        # zero-cost identity restores feasibility at negligible objective cost.
        lam = (delta / over) * (1.0 - 1e-12) if over > 0 else 0.0
        mat = lam * mat + (1.0 - lam) * np.eye(k)
    if overhead(mat) > delta + 1e-9:
        raise SolverError("sanitized policy slipped past the budget")
    policy = MitigationPolicy(mat, deterministic=False)
    diagnostics = SolveDiagnostics(
        nodes_explored=0,
        restarts=len(starts),
        best_bound=float(row.term(total)),
        objective=float(objective(mat)),
        status="feasible",
    )
    return policy, diagnostics
