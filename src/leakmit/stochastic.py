"""Randomized policy synthesis over the full order-respecting polytope.

The feasible set is

    mu[i, j] >= 0 only for j >= i          (padding moves only)
    sum_j mu[i, j] == 1                    (each row is a distribution)
    (1/B) * sum_ij B_i mu[i, j] pen[i, j] <= delta

with expected class sizes C_j = sum_i B_i mu[i, j].

Min-guess is maximized exactly: "the smallest non-empty class" is modeled
with one indicator per class (z_j = 1 when class j keeps mass, big-M = B) and
the resulting mixed-integer program is solved by branch and bound over the z
variables with the tableau simplex as relaxation engine, most-fractional
branching, and best-bound node order.

Shannon and guessing objectives are convex in C, so their optimum sits on a
polytope vertex; they are attacked by multi-start projected gradient ascent
whose start list always contains the identity and the deterministic-search
policy, which makes those two objectives a floor for the result.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .clustering import ObservationClassSet
from .entropy import EntropyMeasure
from .errors import SolverError
from .policy import (
    MitigationPolicy,
    full_merge_policy,
    identity_policy,
    sanitize_matrix,
)
from .deterministic import synthesize_det
from .simplex import solve_lp

__all__ = ["SolveDiagnostics", "synthesize_minguess", "synthesize_local"]

INT_TOL = 1e-9
STEP_TOL = 1e-8
MAX_ASCENT_ITERS = 10_000


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the solver did and how good its answer provably is.

    ``objective`` is on the raw scale of the solve: the smallest non-empty
    expected class size for min-guess, sum C*log2(C) for shannon, sum C**2
    for guessing.  ``best_bound`` is an upper bound on the achievable raw
    objective; for branch and bound the two match within the gap tolerance.
    """

    nodes_explored: int
    restarts: int
    best_bound: float
    objective: float
    status: str  # "optimal" | "feasible" | "budget-infeasible"


def _minguess_program(classes: ObservationClassSet, delta: float):
    """Variable layout: mu entries (i <= j), then z_0..z_{k-1}, then m."""
    k = classes.k
    sizes = classes.sizes
    total = sizes.sum()
    pen = classes.penalty
    mu_index = [(i, j) for i in range(k) for j in range(i, k)]
    n_mu = len(mu_index)
    z0 = n_mu
    m_var = n_mu + k
    n = m_var + 1

    a_eq = np.zeros((k, n))
    for p, (i, j) in enumerate(mu_index):
        a_eq[i, p] = 1.0
    b_eq = np.ones(k)

    a_ub_rows = []
    b_ub = []
    if np.isfinite(delta):
        budget = np.zeros(n)
        for p, (i, j) in enumerate(mu_index):
            budget[p] = sizes[i] * pen[i, j] / total
        a_ub_rows.append(budget)
        b_ub.append(float(delta))
    for j in range(k):
        # m <= C_j + B * (1 - z_j)
        row = np.zeros(n)
        row[m_var] = 1.0
        for p, (i, jj) in enumerate(mu_index):
            if jj == j:
                row[p] = -sizes[i]
        row[z0 + j] = total
        a_ub_rows.append(row)
        b_ub.append(float(total))
        # C_j <= B * z_j
        row = np.zeros(n)
        for p, (i, jj) in enumerate(mu_index):
            if jj == j:
                row[p] = sizes[i]
        row[z0 + j] = -total
        a_ub_rows.append(row)
        b_ub.append(0.0)
    row = np.zeros(n)
    row[z0 : z0 + k] = -1.0
    a_ub_rows.append(row)
    b_ub.append(-1.0)

    c = np.zeros(n)
    c[m_var] = 1.0
    return c, np.asarray(a_ub_rows), np.asarray(b_ub), a_eq, b_eq, mu_index, z0, m_var


def _matrix_from_mu(x: np.ndarray, mu_index, k: int) -> np.ndarray:
    mat = np.zeros((k, k))
    for p, (i, j) in enumerate(mu_index):
        mat[i, j] = x[p]
    return mat


def synthesize_minguess(
    classes: ObservationClassSet, delta: float
) -> tuple[MitigationPolicy, SolveDiagnostics]:
    """Exact min-guess maximization by branch and bound over the indicators."""
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    k = classes.k
    c, a_ub, b_ub, a_eq, b_eq, mu_index, z0, m_var = _minguess_program(classes, delta)
    n = c.size
    base_bounds: list[tuple[float, float | None]] = [(0.0, None)] * len(mu_index)
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
    heap: list[tuple[float, int, dict[int, int]]] = []

    root = relax({})
    nodes_explored += 1
    if root.status != "optimal":
        raise SolverError(f"relaxation at the root is {root.status}")
    heapq.heappush(heap, (-root.objective, counter, {}))
    node_solutions = {counter: root}
    counter += 1

    while heap:
        neg_bound, node_id, fixes = heapq.heappop(heap)
        bound = -neg_bound
        if bound <= incumbent_obj + 1e-9:
            continue
        res = node_solutions.pop(node_id)
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
            heapq.heappush(heap, (-child.objective, counter, child_fixes))
            node_solutions[counter] = child
            counter += 1

    if incumbent_x is None:
        raise SolverError("no integral point found, identity should be feasible")

    mat = sanitize_matrix(_matrix_from_mu(incumbent_x, mu_index, k))
    policy = MitigationPolicy(mat, deterministic=False)
    diagnostics = SolveDiagnostics(
        nodes_explored=nodes_explored,
        restarts=0,
        best_bound=float(max(incumbent_obj, root.objective)),
        objective=float(incumbent_obj),
        status="optimal",
    )
    return policy, diagnostics


def _raw_objective(measure: EntropyMeasure, sizes_after: np.ndarray) -> float:
    pos = sizes_after[sizes_after > 0]
    if measure is EntropyMeasure.SHANNON:
        return float((pos * np.log2(pos)).sum())
    return float((pos * pos).sum())


def _project_row_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x == 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    rho = int(np.max(ks[cond]))
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


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
    k = classes.k
    sizes = classes.sizes
    total = sizes.sum()
    pen_cost = np.where(np.isinf(classes.penalty), 0.0, classes.penalty)
    pen_cost = sizes[:, None] * pen_cost / total
    mask = np.triu(np.ones((k, k), dtype=bool))

    def overhead(mat: np.ndarray) -> float:
        return float((mat * pen_cost).sum())

    def objective(mat: np.ndarray) -> float:
        return _raw_objective(measure, sizes @ mat)

    def gradient(mat: np.ndarray) -> np.ndarray:
        col = sizes @ mat
        if measure is EntropyMeasure.SHANNON:
            g_col = np.log2(np.maximum(col, 1e-12)) + 1.0 / np.log(2.0)
        else:
            g_col = 2.0 * col
        return np.where(mask, sizes[:, None] * g_col[None, :], 0.0)

    def project_rows(mat: np.ndarray) -> np.ndarray:
        out = np.zeros_like(mat)
        for i in range(k):
            out[i, i:] = _project_row_simplex(mat[i, i:])
        return out

    def ascend(start: np.ndarray) -> np.ndarray:
        mu = start
        step = 0.25
        for _ in range(MAX_ASCENT_ITERS):
            grad = gradient(mu)
            norm = float(np.sqrt((grad * grad).sum()))
            if norm * step < STEP_TOL:
                break
            trial = project_rows(mu + step * grad)
            over = overhead(trial)
            if over > delta:
                prev_over = overhead(mu)
                lam = (delta - prev_over) / (over - prev_over)
                lam = max(0.0, min(1.0, lam * (1.0 - 1e-12)))
                trial = mu + lam * (trial - mu)
            if objective(trial) > objective(mu) + 1e-12:
                mu = trial
                step = min(step * 1.3, 16.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
        return mu

    # Shared upward-move polytope for the linearized jumps below: rows sum
    # to one, optional budget row, every variable boxed to [0, 1].
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    col_of = {p: t for t, p in enumerate(pairs)}
    lp_eq = np.zeros((k, len(pairs)))
    for (i, j), t in col_of.items():
        lp_eq[i, t] = 1.0
    lp_eq_rhs = np.ones(k)
    if np.isfinite(delta):
        lp_ub = np.array([[pen_cost[i, j] for (i, j) in pairs]])
        lp_ub_rhs = np.array([float(delta)])
    else:
        lp_ub = None
        lp_ub_rhs = None
    # the row-sum equalities already cap each variable at one
    lp_bounds = [(0.0, None)] * len(pairs)

    def vertex_jump(mu: np.ndarray) -> np.ndarray | None:
        """Best vertex of the feasible polytope for the gradient at mu.

        A convex objective peaks at a vertex, so following the linearization
        to its LP optimum escapes the interior points plain ascent stalls on.
        Returns None when the jump does not improve.
        """
        grad = gradient(mu)
        direction = np.array([grad[i, j] for (i, j) in pairs])
        res = solve_lp(direction, lp_ub, lp_ub_rhs, lp_eq, lp_eq_rhs, lp_bounds)
        if res.status != "optimal":
            return None
        vert = np.zeros((k, k))
        for (i, j), t in col_of.items():
            vert[i, j] = res.x[t]
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
    bound = (
        total * np.log2(total) if measure is EntropyMeasure.SHANNON else total * total
    )
    diagnostics = SolveDiagnostics(
        nodes_explored=0,
        restarts=len(starts),
        best_bound=float(bound),
        objective=float(objective(mat)),
        status="feasible",
    )
    return policy, diagnostics
