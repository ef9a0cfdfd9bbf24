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
with one indicator per class (z_j = 1 when class j keeps mass) and the
resulting mixed-integer program (the upward program plus the z and m columns
and their link rows) is solved by branch and bound over the z variables with
the tableau simplex as relaxation engine, most-fractional branching, and
best-bound node order.  Only classes i <= j feed class j, so the link
C_j <= P_j * z_j uses the prefix mass P_j = B_0 + ... + B_j rather than B,
and the top class can never be emptied, so z_{k-1} = 1 is a bound.  A child
differs from its parent in one z bound, which changes only right-hand sides,
so it re-solves warm from the parent's basis; open nodes keep just that
basis.  An expansion refactorizes the basis once for both children
(``simplex.warm_starts``), and each child's ``solve_lp(basis=start)`` runs
the dual and primal phases from its share, the bits of a warm solve of its
own.  Once the search closes, the winning leaf is solved once more, cold,
with every z pinned to its integral value, so the returned policy is the
bits of a cold solve and its smallest non-empty class is the reported
optimum.

Shannon and guessing objectives are convex in C, so their optimum sits on a
polytope vertex; they are attacked by multi-start projected gradient ascent
whose start list always contains the identity and the deterministic-search
policy, which makes those two objectives a floor for the result.  All starts
advance in lockstep as one (n, k, k) stack: each iteration projects every
row of every running start in one sort-and-threshold pass (``_project_rows``)
and evaluates overheads, objectives and gradients for the whole stack, while
each start keeps its own step, budget line search, accept/reject decision
and stopping point.  A rejected trial leaves a start where it was, so a start
whose last trial failed tries its next ``LADDER_RUNGS`` halvings as one
batched ladder and takes the first rung it accepts; every rung counts as a
trial toward ``MAX_ASCENT_ITERS``.  Vertex jumps maximize the gradient's
linearization over the same polytope; they run in rounds: ascend every
start, jump each stalled start, ascend the jumped starts together, at most
five rounds.  Jump LPs are memoised within one call on the gradient's bytes,
since distinct starts often stall at the same gradient, and share one phase
one (``simplex.phase_one``), solved at the first jump: it never reads the
objective.  Each start sees exactly the float operations of a lone ascent,
so the result is the bits of a start-by-start search; the batched objective
(``MeasureRow.raw_rows``) folds each start's positive classes as the 1-D
``raw`` does.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .clustering import ObservationClassSet
from .entropy import MEASURES, EntropyMeasure
from .errors import SolverError
from .policy import (
    BUDGET_TOL,
    MitigationPolicy,
    check_class_count,
    full_merge_policy,
    identity_policy,
    sanitize_matrix,
)
from .deterministic import synthesize_det
from .simplex import LpResult, phase_one, solve_lp, warm_starts

__all__ = ["SolveDiagnostics", "synthesize_minguess", "synthesize_local"]

INT_TOL = 1e-9
STEP_TOL = 1e-8
MAX_ASCENT_ITERS = 10_000
# A start whose last trial was rejected tries this many halvings at once.
LADDER_RUNGS = 4
# synthesize_local builds every start before it ascends any, n x k x k floats
# at once; more random starts than this is a mistake, not a search.
MAX_STARTS = 1_000


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the solver did and how good its answer provably is.

    ``objective`` is on the raw scale of ``entropy.MEASURES`` (the measure's
    ``finalize`` maps it onto the entropy scale): the smallest non-empty
    expected class size for min-guess, sum C*log2(C) for shannon, sum C**2
    for guessing.  ``best_bound`` is an upper bound on the achievable raw
    objective.  Branch and bound runs until no open node's relaxation beats
    the incumbent by more than 1e-9, so the bound it proves, and reports, is
    the objective itself.  Local search reports the raw value of merging
    everything into one class of size B.
    """

    nodes_explored: int
    restarts: int
    best_bound: float
    objective: float
    status: str  # "optimal" (branch and bound) | "feasible" (local search)


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
    pair m <= C_j + B * (1 - z_j), C_j <= P_j * z_j with the prefix mass
    P_j = B_0 + ... + B_j, then sum_j z_j >= 1.
    """
    k = classes.k
    sizes = classes.sizes
    total = sizes.sum()
    iu, a_eq, b_eq, budget, b_budget = _upward_program(classes, delta)
    n_mu = iu[0].size
    n = n_mu + k + 1
    into = iu[1] == np.arange(k)[:, None]  # [j, p]: entry p feeds class j
    z = n_mu + np.arange(k)

    # links[j, 0]: m <= C_j + B * (1 - z_j); links[j, 1]: C_j <= P_j * z_j
    links = np.zeros((k, 2, n))
    links[:, 0, :n_mu] = np.where(into, -sizes[iu[0]], 0.0)
    links[np.arange(k), 0, z] = total
    links[:, 0, -1] = 1.0
    links[:, 1, :n_mu] = np.where(into, sizes[iu[0]], 0.0)
    links[np.arange(k), 1, z] = -np.cumsum(sizes)
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
    """Exact min-guess maximization by branch and bound over the indicators.

    More than ``policy.MAX_CLASSES`` classes is a ValueError.
    """
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    check_class_count(classes)
    k = classes.k
    c, a_ub, b_ub, a_eq, b_eq, iu = _minguess_program(classes, delta)
    z0 = iu[0].size
    # Row k - 1 is the single entry mu[k-1, k-1] = 1: the top class keeps mass.
    base_bounds: list[tuple[float, float | None]] = [(0.0, None)] * z0
    base_bounds += [(0.0, 1.0)] * (k - 1) + [(1.0, 1.0)]
    base_bounds += [(0.0, None)]

    def node_bounds(fixes: dict[int, int]) -> list[tuple[float, float | None]]:
        bounds = list(base_bounds)
        for j, v in fixes.items():
            bounds[z0 + j] = (float(v), float(v))
        return bounds

    def relax(fixes: dict[int, int], start=None) -> LpResult:
        return solve_lp(c, a_ub, b_ub, a_eq, b_eq, node_bounds(fixes), basis=start)

    nodes_explored = 0
    incumbent_obj = -np.inf
    incumbent_z = None
    order = itertools.count()  # heap tie-break: first queued, first popped
    # (-bound, tie-breaking counter, z fixes, optimal basis, branching index)
    heap: list[tuple[float, int, dict[int, int], np.ndarray, int]] = []

    def visit(fixes: dict[int, int], start=None) -> str:
        """Solve one node: prune it, take it as incumbent, or queue it."""
        nonlocal nodes_explored, incumbent_obj, incumbent_z
        res = relax(fixes, start)
        nodes_explored += 1
        if res.status != "optimal" or res.objective <= incumbent_obj + 1e-9:
            return res.status
        z_vals = res.x[z0 : z0 + k]
        frac = np.abs(z_vals - np.round(z_vals))
        if np.all(frac <= INT_TOL):
            incumbent_obj = res.objective
            incumbent_z = np.round(z_vals).astype(int)
            return res.status
        # Every z lies in [0, 1], so the one nearest 1/2 is the most fractional.
        branch_j = int(np.argmin(np.abs(z_vals - 0.5)))
        heapq.heappush(
            heap, (-res.objective, next(order), fixes, res.basis, branch_j)
        )
        return res.status

    root_status = visit({})
    if root_status != "optimal":
        raise SolverError(f"relaxation at the root is {root_status}")

    while heap:
        neg_bound, _, fixes, basis, branch_j = heapq.heappop(heap)
        if -neg_bound <= incumbent_obj + 1e-9:
            continue
        # Both children start from one refactorization of the parent's basis.
        children = [{**fixes, branch_j: v} for v in (0, 1)]
        starts = warm_starts(
            a_ub, b_ub, a_eq, b_eq, [node_bounds(f) for f in children], basis
        )
        for child, start in zip(children, starts):
            visit(child, start)

    if incumbent_z is None:
        raise SolverError("no integral point found, identity should be feasible")
    leaf = relax(dict(enumerate(incumbent_z.tolist())))
    if leaf.status != "optimal":
        raise SolverError(f"the winning z pattern re-solves {leaf.status}")

    mat = sanitize_matrix(_matrix_from_mu(leaf.x, iu, k))
    policy = MitigationPolicy(mat)
    diagnostics = SolveDiagnostics(
        nodes_explored=nodes_explored,
        restarts=0,
        best_bound=float(leaf.objective),
        objective=float(leaf.objective),
        status="optimal",
    )
    return policy, diagnostics


@functools.cache
def _row_masks(k: int):
    """For k x k matrices: the upper triangle, its complement, each row's
    live sorted positions (row i: the first k - i), their complement, and
    1..k.  Read-only, shared by every projection of that size."""
    idx = np.arange(k)
    upper = idx[:, None] <= idx
    live = upper[:, ::-1].copy()
    masks = (upper, ~upper, live, ~live, idx + 1)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _project_rows(stack: np.ndarray) -> np.ndarray:
    """Project every row's upward part onto {x >= 0, sum x == 1} at once.

    ``stack`` holds n k x k matrices.  Row i of each keeps its k - i entries
    j >= i; everything below the diagonal is zero.  Sort-and-threshold (Duchi
    et al., ICML 2008) over all rows of all matrices in one pass: each row's
    live entries sort to its front in descending order, the dead tail is
    zeroed before the running sum, rho is the last live index whose entry
    clears the running threshold, and tau = css[rho - 1] / rho.  The
    temporaries of stack size are worked in place.
    """
    k = stack.shape[-1]
    upper, lower, live, dead, ks = _row_masks(k)
    u = np.negative(stack)
    np.copyto(u, np.inf, where=lower)
    u.sort(axis=-1)
    np.negative(u, out=u)
    np.copyto(u, 0.0, where=dead)
    css = np.cumsum(u, axis=-1)
    css -= 1.0
    gap = css / ks
    np.subtract(u, gap, out=gap)
    cond = gap > 0
    cond &= live
    rho = k - np.argmax(cond[..., ::-1], axis=-1)
    at_rho = css.reshape(-1, k)[np.arange(rho.size), rho.ravel() - 1]
    tau = at_rho.reshape(rho.shape) / rho
    out = stack - tau[..., None]
    np.maximum(out, 0.0, out=out)
    np.copyto(out, 0.0, where=lower)
    return out


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
    ``n_starts`` outside 0..``MAX_STARTS``, or more than
    ``policy.MAX_CLASSES`` classes, is a ValueError.
    """
    measure = EntropyMeasure(measure)
    if measure is EntropyMeasure.MINGUESS:
        raise ValueError("use synthesize_minguess for the min-guess objective")
    if not delta >= 0:
        raise ValueError("delta must be >= 0")
    n_starts = int(n_starts)
    if not 0 <= n_starts <= MAX_STARTS:
        raise ValueError(f"n_starts must be in 0..{MAX_STARTS}, got {n_starts}")
    check_class_count(classes)
    row = MEASURES[measure]
    k = classes.k
    sizes = classes.sizes
    total = sizes.sum()
    pen_cost = _move_cost(classes)
    mask = np.triu(np.ones((k, k), dtype=bool))

    # Each helper maps a stack of n matrices to n results; every result is
    # the bits the same helper gives a stack of that one matrix.
    def overhead(stack: np.ndarray) -> np.ndarray:
        return (stack * pen_cost).reshape(len(stack), k * k).sum(axis=1)

    def objective(stack: np.ndarray) -> np.ndarray:
        return row.raw_rows(sizes @ stack)

    def gradient(stack: np.ndarray) -> np.ndarray:
        g_col = row.slope(sizes @ stack)
        return np.where(mask, sizes[:, None] * g_col[:, None, :], 0.0)

    def grad_norm(grad: np.ndarray) -> np.ndarray:
        return np.sqrt((grad * grad).reshape(len(grad), k * k).sum(axis=1))

    def ascend(stack: np.ndarray):
        """Ascend from every matrix of the stack in lockstep.

        Each start keeps its own step, objective value, gradient norm,
        (NaN until the repair needs it) overhead and trial count.  A
        rejected trial changes nothing but the step, so a start whose last
        trial was rejected tries its next ``LADDER_RUNGS`` halvings at once
        and takes the first rung it accepts; a start that just moved tries
        one step.  A rung runs only where a lone ascent would still try it.
        Returns the final iterates with their values and gradients.
        """
        mu = stack.copy()
        grad = gradient(mu)
        norm = grad_norm(grad)
        value = objective(mu)
        mu_over = np.full(len(mu), np.nan)
        step = np.full(len(mu), 0.25)
        trials = np.zeros(len(mu), dtype=int)
        rejected = np.zeros(len(mu), dtype=bool)
        rung = np.arange(LADDER_RUNGS)
        halving = 0.5**rung
        for _ in range(MAX_ASCENT_ITERS):
            steps = step[:, None] * halving
            tries = ~((norm[:, None] * steps < STEP_TOL) | (steps < 1e-12))
            tries &= rung < np.where(rejected, LADDER_RUNGS, 1)[:, None]
            tries &= trials[:, None] + rung < MAX_ASCENT_ITERS
            tries = np.logical_and.accumulate(tries, axis=1)
            run, run_rung = tries.nonzero()  # each start's rungs, in order
            if not run.size:
                break
            cur, cur_step = mu[run], steps[run, run_rung]
            trial = _project_rows(cur + cur_step[:, None, None] * grad[run])
            over = overhead(trial)
            repair = over > delta
            if repair.any():
                fix = run[repair]
                lazy = fix[np.isnan(mu_over[fix])]
                mu_over[lazy] = overhead(mu[lazy])
                base, base_over = cur[repair], mu_over[fix]
                # A start already past the line (a warm start within BUDGET_TOL)
                # whose trial costs exactly as much gets lam = -inf -> 0.
                with np.errstate(divide="ignore"):
                    lam = (delta - base_over) / (over[repair] - base_over)
                lam = np.maximum(0.0, np.minimum(1.0, lam * (1.0 - 1e-12)))
                trial[repair] = base + lam[:, None, None] * (trial[repair] - base)
                over[repair] = np.nan
            trial_value = objective(trial)
            # A start moves to its first accepted rung; one that accepts
            # none has halved its step once per rung.
            accepted = np.zeros_like(tries)
            accepted[run, run_rung] = trial_value > value[run] + 1e-12
            row_of = np.zeros(tries.shape, dtype=int)
            row_of[run, run_rung] = np.arange(run.size)
            moves = accepted.any(axis=1)
            stuck = (tries.any(axis=1) & ~moves).nonzero()[0]
            tried = tries[stuck].sum(axis=1)
            trials[stuck] += tried
            step[stuck] *= 0.5**tried
            rejected[stuck] = True
            if moves.any():  # most steps after a jump are rejected halvings
                moved = moves.nonzero()[0]
                first = accepted[moved].argmax(axis=1)
                take = row_of[moved, first]
                new_grad = gradient(trial[take])
                mu[moved], value[moved] = trial[take], trial_value[take]
                mu_over[moved], grad[moved] = over[take], new_grad
                norm[moved] = grad_norm(new_grad)
                trials[moved] += first + 1
                step[moved] = np.minimum(cur_step[take] * 1.3, 16.0)
                rejected[moved] = False
        return mu, value, grad

    # The linearized jumps below optimize over the upward-move polytope; the
    # row-sum equalities already cap each variable at one.
    iu, lp_eq, lp_eq_rhs, lp_ub, lp_ub_rhs = _upward_program(classes, delta)
    lp_bounds = [(0.0, None)] * iu[0].size
    vertices: dict[bytes, np.ndarray] = {}
    jump_start = []  # phase one of the jump LPs, solved at the first jump

    def vertex(grad: np.ndarray) -> np.ndarray:
        """Best vertex of the feasible polytope for the gradient.

        A convex objective peaks at a vertex, so following the linearization
        to its LP optimum escapes the interior points plain ascent stalls on.
        The LP always has an optimum: the identity is feasible at zero cost,
        and the row sums bound every variable.  Starts that stall at the
        same gradient share one LP.
        """
        direction = grad[iu]
        key = direction.tobytes()
        if key not in vertices:
            if not jump_start:
                jump_start.append(
                    phase_one(lp_ub, lp_ub_rhs, lp_eq, lp_eq_rhs, lp_bounds)
                )
            res = solve_lp(
                direction, lp_ub, lp_ub_rhs, lp_eq, lp_eq_rhs, lp_bounds,
                basis=jump_start[0],
            )
            if res.status != "optimal":
                raise SolverError(f"vertex-jump LP is {res.status}")
            vertices[key] = _matrix_from_mu(res.x, iu, k)
        return vertices[key]

    rng = np.random.default_rng(seed)
    starts: list[np.ndarray] = [identity_policy(k).matrix.copy()]
    merge = full_merge_policy(k).matrix.copy()
    if overhead(merge[None])[0] <= delta:
        starts.append(merge)
    dp_policy, _ = synthesize_det(classes, measure, delta)
    starts.append(dp_policy.matrix.copy())
    rand = np.zeros((n_starts, k, k))
    for draw in rand:
        for i in range(k):
            draw[i, i:] = rng.dirichlet(np.ones(k - i))
    over = overhead(rand)
    cut = over > delta
    lam = np.ones(n_starts)
    lam[cut] = (delta / over[cut]) * (1.0 - 1e-12)
    starts += list(lam[:, None, None] * rand + (1.0 - lam)[:, None, None] * np.eye(k))
    for extra in warm_starts:
        extra = np.asarray(extra, dtype=float)
        if extra.shape == (k, k) and overhead(extra[None])[0] <= delta + BUDGET_TOL:
            starts.append(np.clip(extra, 0.0, 1.0))

    # Ascend every start, then jump every start that stalled below a better
    # vertex and ascend the jumped starts together, for at most 5 rounds.
    mu, value, grad = ascend(np.array(starts))
    live = np.arange(len(starts))
    for _ in range(5):
        verts = np.array([vertex(grad[s]) for s in live])
        better = objective(verts) > value[live] + 1e-9
        live = live[better]
        if not live.size:
            break
        mu[live], value[live], grad[live] = ascend(verts[better])

    best_mat = None
    best_obj = -np.inf
    for final, obj in zip(mu, value):
        if obj > best_obj + 1e-12:
            best_obj = obj
            best_mat = final

    mat = sanitize_matrix(best_mat)
    over = overhead(mat[None])[0]
    if over > delta:
        # Cleanup dust can nudge the budget; an exact pull toward the
        # zero-cost identity restores feasibility at negligible objective cost.
        lam = (delta / over) * (1.0 - 1e-12)
        mat = lam * mat + (1.0 - lam) * np.eye(k)
    if overhead(mat[None])[0] > delta + BUDGET_TOL:
        raise SolverError("sanitized policy slipped past the budget")
    policy = MitigationPolicy(mat)
    diagnostics = SolveDiagnostics(
        nodes_explored=0,
        restarts=len(starts),
        best_bound=float(row.term(total)),
        objective=float(row.raw(sizes @ mat)),
        status="feasible",
    )
    return policy, diagnostics
