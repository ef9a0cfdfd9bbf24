"""Independent reference implementations used to cross-check the package.

Everything here is written with plain loops and, where it matters, different
algorithms than the library (naive clustering instead of Lance-Williams,
basis enumeration instead of simplex pivoting, subset enumeration instead of
dynamic programming).  Where the library's result depends on tie order, the
earlier library algorithm is kept here verbatim as the reference.  Slow on
purpose; only run on small inputs.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from leakmit.enforcement import TreeLeaf, TreeSplit


# ---------------------------------------------------------------------------
# entropy


def shannon_oracle(sizes) -> float:
    total = sum(sizes)
    acc = 0.0
    for b in sizes:
        if b > 0:
            acc += b * math.log2(b)
    return acc / total


def guessing_oracle(sizes) -> float:
    total = sum(sizes)
    acc = 0.0
    for b in sizes:
        if b > 0:
            acc += b * b
    return acc / (2.0 * total) + 0.5


def minguess_oracle(sizes) -> float:
    positive = [b for b in sizes if b > 0]
    return min((b + 1.0) / 2.0 for b in positive)


# ---------------------------------------------------------------------------
# clustering


def mean_l1_oracle(f, g) -> float:
    f = list(f)
    g = list(g)
    return sum(abs(a - b) for a, b in zip(f, g)) / len(f)


def linkage_oracle(vectors, eps: float) -> list[frozenset[int]]:
    """Naive complete linkage: recompute the max pairwise distance between
    every cluster pair at every step.  Quadratic per merge, cubic overall."""
    clusters = [frozenset({i}) for i in range(len(vectors))]
    while len(clusters) > 1:
        best = None
        best_d = math.inf
        for a, b in itertools.combinations(range(len(clusters)), 2):
            d = max(
                mean_l1_oracle(vectors[i], vectors[j])
                for i in clusters[a]
                for j in clusters[b]
            )
            if d < best_d:
                best_d = d
                best = (a, b)
        if best_d > eps:
            break
        a, b = best
        merged = clusters[a] | clusters[b]
        clusters = [c for t, c in enumerate(clusters) if t not in (a, b)]
        clusters.append(merged)
    return clusters


def greedy_linkage_oracle(dist, eps: float) -> list[list[int]]:
    """The cubic greedy complete linkage, frozen as the tie-order reference.

    Rescans the whole working matrix for its flat argmin at every merge, so
    tied pairs merge lowest ``(i, j)`` first.  Returns the groups in order of
    their lowest member, each group in merge order.
    """
    n = dist.shape[0]
    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    groups: dict[int, list[int]] = {i: [i] for i in range(n)}
    while len(groups) > 1:
        flat = int(np.argmin(work))
        i, j = divmod(flat, n)
        if work[i, j] > eps:
            break
        a, b = (i, j) if i < j else (j, i)
        groups[a].extend(groups.pop(b))
        merged = np.maximum(work[a], work[b])
        work[a, :] = merged
        work[:, a] = merged
        work[a, a] = np.inf
        work[b, :] = np.inf
        work[:, b] = np.inf
    return [groups[g] for g in sorted(groups)]


def penalty_loop_oracle(representatives, baseline_mean: float):
    """The per-pair penalty loop, frozen as the bit-level reference for the
    row-broadcast ``penalty_matrix``."""
    reps = list(representatives)
    k = len(reps)
    pen = np.full((k, k), np.inf)
    for i in range(k):
        pen[i, i] = 0.0
        for j in range(i + 1, k):
            gap = np.maximum(0.0, reps[j].values - reps[i].values)
            pen[i, j] = float(gap.mean()) / baseline_mean
    return pen


def envelope_oracle(functions):
    n = len(functions[0])
    return [max(f[i] for f in functions) for i in range(n)]


# ---------------------------------------------------------------------------
# policies evaluated with plain loops


def post_sizes_oracle(matrix, sizes):
    k = len(sizes)
    out = [0.0] * k
    for j in range(k):
        for i in range(k):
            out[j] += sizes[i] * matrix[i][j]
    return out


def overhead_oracle(matrix, sizes, penalty) -> float:
    k = len(sizes)
    total = sum(sizes)
    acc = 0.0
    for i in range(k):
        for j in range(k):
            if matrix[i][j] > 1e-12:
                acc += sizes[i] * matrix[i][j] * penalty[i][j]
    return acc / total


# ---------------------------------------------------------------------------
# deterministic synthesis: third route, independent of the package DP and of
# its brute-force enumerator (which share block tables)


def contiguous_partitions(k: int):
    """Yield partitions of 0..k-1 into contiguous blocks as lists of (lo, hi)."""
    for cut_bits in range(1 << (k - 1)):
        blocks = []
        lo = 0
        for pos in range(k - 1):
            if cut_bits >> pos & 1:
                blocks.append((lo, pos))
                lo = pos + 1
        blocks.append((lo, k - 1))
        yield blocks


def det_best_oracle(sizes, penalty, measure: str, delta: float):
    """Best contiguous partition by exhaustive scan.

    Returns (objective, blocks) or (None, None) when nothing is feasible,
    which cannot happen while the identity partition costs zero.
    """
    total = sum(sizes)
    best_val = None
    best_blocks = None
    for blocks in contiguous_partitions(len(sizes)):
        cost = 0.0
        merged = []
        for lo, hi in blocks:
            size = 0.0
            for i in range(lo, hi + 1):
                size += sizes[i]
                cost += sizes[i] * penalty[i][hi] / total
            merged.append(size)
        if cost > delta:
            continue
        if measure == "shannon":
            val = shannon_oracle(merged)
        elif measure == "guessing":
            val = guessing_oracle(merged)
        else:
            val = minguess_oracle(merged)
        if best_val is None or val > best_val + 1e-15:
            best_val = val
            best_blocks = blocks
    return best_val, best_blocks


# ---------------------------------------------------------------------------
# linear programming: dense basis enumeration


def lp_vertex_oracle(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, bounds=None):
    """Maximize c @ x by enumerating basic solutions of the constraint system.

    Collects every inequality (rows of a_ub, plus finite variable bounds) and
    equality, then tries all subsets that pin down n variables.  Exponential;
    fine for n <= 6 or so.  Returns (best objective, best x) or (None, None)
    when no feasible basic solution exists.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    forced = []
    if a_eq is not None and len(a_eq):
        for row, b in zip(np.atleast_2d(a_eq), np.ravel(b_eq)):
            rows.append(np.asarray(row, dtype=float))
            rhs.append(float(b))
            forced.append(True)
    if a_ub is not None and len(a_ub):
        for row, b in zip(np.atleast_2d(a_ub), np.ravel(b_ub)):
            rows.append(np.asarray(row, dtype=float))
            rhs.append(float(b))
            forced.append(False)
    if bounds is None:
        bounds = [(0.0, None)] * n
    for i, (lo, hi) in enumerate(bounds):
        if lo is not None and math.isfinite(lo):
            e = np.zeros(n)
            e[i] = -1.0
            rows.append(e)
            rhs.append(-lo)
            forced.append(False)
        if hi is not None and math.isfinite(hi):
            e = np.zeros(n)
            e[i] = 1.0
            rows.append(e)
            rhs.append(float(hi))
            forced.append(False)

    a = np.array(rows)
    b = np.array(rhs)
    must = [i for i, f in enumerate(forced) if f]
    free = [i for i, f in enumerate(forced) if not f]
    need = n - len(must)
    if need < 0:
        return None, None

    def feasible(x):
        for row, bb, f in zip(a, b, forced):
            lhs = float(row @ x)
            if f:
                if abs(lhs - bb) > 1e-7:
                    return False
            elif lhs > bb + 1e-7:
                return False
        return True

    best_val = None
    best_x = None
    for extra in itertools.combinations(free, need):
        idx = must + list(extra)
        sub = a[idx]
        if np.linalg.matrix_rank(sub) < n:
            continue
        try:
            x = np.linalg.solve(sub, b[idx])
        except np.linalg.LinAlgError:
            continue
        if not feasible(x):
            continue
        val = float(c @ x)
        if best_val is None or val > best_val + 1e-12:
            best_val = val
            best_x = x
    return best_val, best_x


# ---------------------------------------------------------------------------
# minguess program: exhaustive z-pattern enumeration with one LP per pattern


def minguess_pattern_oracle(classes, delta: float, lp_solver) -> float:
    """Best min over nonzero expected sizes, maximized over all supports.

    lp_solver must have the package solve_lp signature.  The integer search
    is replaced by complete enumeration, so only the LP routine is shared
    with the implementation under test.
    """
    k = classes.k
    sizes = classes.sizes
    total = float(sizes.sum())
    pen = classes.penalty
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    col = {p: t for t, p in enumerate(pairs)}
    n = len(pairs) + 1
    best = -math.inf
    for pattern in itertools.product([0, 1], repeat=k):
        if not any(pattern):
            continue
        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for i in range(k):
            row = np.zeros(n)
            for j in range(i, k):
                row[col[(i, j)]] = 1.0
            a_eq.append(row)
            b_eq.append(1.0)
        for j in range(k):
            row = np.zeros(n)
            for i in range(j + 1):
                row[col[(i, j)]] = float(sizes[i])
            if pattern[j]:
                # m <= C_j for every selected column
                row = -row
                row[-1] = 1.0
            # else: C_j <= 0, column must stay empty
            a_ub.append(row)
            b_ub.append(0.0)
        if math.isfinite(delta):
            row = np.zeros(n)
            for (i, j), t in col.items():
                row[t] = sizes[i] * pen[i, j] / total
            a_ub.append(row)
            b_ub.append(float(delta))
        c = np.zeros(n)
        c[-1] = 1.0
        bounds = [(0.0, 1.0)] * len(pairs) + [(0.0, total)]
        res = lp_solver(
            c, np.array(a_ub), np.array(b_ub), np.array(a_eq), np.array(b_eq),
            bounds,
        )
        if res.status == "optimal" and res.objective > best:
            best = res.objective
    return best


# ---------------------------------------------------------------------------
# stochastic LP builders: the per-entry loops, frozen as the bit-level
# reference for the array-built upward-move program


def _move_cost_loop(classes) -> np.ndarray:
    sizes = classes.sizes
    pen = np.where(np.isinf(classes.penalty), 0.0, classes.penalty)
    return sizes[:, None] * pen / sizes.sum()


def minguess_program_oracle(classes, delta: float):
    """Returns ``(c, a_ub, b_ub, a_eq, b_eq, mu_index)`` exactly as the loop
    builder of the min-guess MILP produced them.  Variable layout: mu entries
    (i <= j), then z_0..z_{k-1}, then m."""
    k = classes.k
    sizes = classes.sizes
    total = sizes.sum()
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
        move_cost = _move_cost_loop(classes)
        budget = np.zeros(n)
        for p, (i, j) in enumerate(mu_index):
            budget[p] = move_cost[i, j]
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
    return c, np.asarray(a_ub_rows), np.asarray(b_ub), a_eq, b_eq, mu_index


def jump_program_oracle(classes, delta: float):
    """Returns ``(pairs, a_eq, b_eq, a_ub, b_ub)`` exactly as the vertex
    jump's loop builder produced them; ``a_ub = b_ub = None`` for an
    infinite budget."""
    k = classes.k
    pen_cost = _move_cost_loop(classes)
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
    return pairs, lp_eq, lp_eq_rhs, lp_ub, lp_ub_rhs


def jump_direction_oracle(grad: np.ndarray, pairs) -> np.ndarray:
    """The jump LP's objective: the gradient's upward entries in pair order."""
    return np.array([grad[i, j] for (i, j) in pairs])


def matrix_from_mu_oracle(x: np.ndarray, mu_index, k: int) -> np.ndarray:
    """The k x k matrix whose (i, j) entry is x at the position of (i, j)."""
    mat = np.zeros((k, k))
    for p, (i, j) in enumerate(mu_index):
        mat[i, j] = x[p]
    return mat


# ---------------------------------------------------------------------------
# solver kernels: the per-row loops, frozen as the bit-level reference for
# the rank-1 simplex pivot and the batched simplex projection


def pivot_loop_oracle(tableau: np.ndarray, basis: np.ndarray, row: int, col: int):
    """Pivot in place on (row, col), one row update at a time."""
    tableau[row] /= tableau[row, col]
    pivot_row = tableau[row]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * pivot_row
    basis[row] = col


def project_row_oracle(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x == 1}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    rho = int(np.max(ks[cond]))
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


# ---------------------------------------------------------------------------
# bucketing: boundary subset enumeration


def bucket_oracle(times, n_buckets: int):
    """Minimal total added delay over all boundary sets of the given size.

    Boundaries must come from the distinct observed values and must include
    the maximum.  Returns (delay, boundaries).
    """
    values = sorted(set(float(t) for t in times))
    top = values[-1]
    rest = values[:-1]
    n_free = min(n_buckets - 1, len(rest))
    best = None
    best_bounds = None
    for combo in itertools.combinations(rest, n_free):
        bounds = sorted(combo) + [top]
        delay = 0.0
        for t in times:
            chosen = min(b for b in bounds if b >= t)
            delay += chosen - t
        if best is None or delay < best - 1e-12:
            best = delay
            best_bounds = tuple(bounds)
    return best, best_bounds


# ---------------------------------------------------------------------------
# decision stumps: exhaustive depth-1 search


def stump_oracle(samples):
    """Best single Gini split over every feature and midpoint threshold.

    samples: list of (feature dict, label).  Returns (feature, threshold,
    accuracy) of the best stump with majority-vote leaves.
    """

    def gini(labels):
        if not labels:
            return 0.0
        counts = {}
        for y in labels:
            counts[y] = counts.get(y, 0) + 1
        total = len(labels)
        return 1.0 - sum((c / total) ** 2 for c in counts.values())

    def majority(labels):
        counts = {}
        for y in labels:
            counts[y] = counts.get(y, 0) + 1
        best_n = max(counts.values())
        return min(y for y, c in counts.items() if c == best_n)

    labels = [y for _, y in samples]
    features = sorted(samples[0][0])
    best = (None, None, -1.0)
    base_impurity = gini(labels)
    best_gain = -1.0
    for feat in features:
        xs = sorted(set(s[feat] for s, _ in samples))
        for lo, hi in zip(xs, xs[1:]):
            thr = (lo + hi) / 2.0
            left = [y for s, y in samples if s[feat] <= thr]
            right = [y for s, y in samples if s[feat] > thr]
            if not left or not right:
                continue
            w = len(left) / len(samples)
            gain = base_impurity - (w * gini(left) + (1 - w) * gini(right))
            if gain > best_gain + 1e-12:
                best_gain = gain
                ml, mr = majority(left), majority(right)
                acc = (
                    sum(1 for s, y in samples if (ml if s[feat] <= thr else mr) == y)
                    / len(samples)
                )
                best = (feat, thr, acc)
    return best


# ---------------------------------------------------------------------------
# CART: the per-row cut loop


def _loop_gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p * p).sum())


def _loop_majority(labels: np.ndarray) -> int:
    ids, counts = np.unique(labels, return_counts=True)
    return int(ids[np.argmax(counts)])  # np.argmax takes the smallest id on ties


def _loop_grow(x: np.ndarray, y: np.ndarray, depth: int, max_depth: int, min_leaf: int):
    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes)
    parent_gini = _loop_gini(counts)
    if depth >= max_depth or parent_gini == 0.0 or y.size < 2 * min_leaf:
        return TreeLeaf(_loop_majority(y))
    best = None
    for f in range(x.shape[1]):
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        left_counts = np.zeros(n_classes)
        right_counts = np.bincount(ys, minlength=n_classes).astype(float)
        n = ys.size
        for cut in range(1, n):
            left_counts[ys[cut - 1]] += 1
            right_counts[ys[cut - 1]] -= 1
            if xs[cut - 1] == xs[cut]:
                continue
            if cut < min_leaf or n - cut < min_leaf:
                continue
            impurity = (
                cut * _loop_gini(left_counts) + (n - cut) * _loop_gini(right_counts)
            ) / n
            threshold = (xs[cut - 1] + xs[cut]) / 2.0
            key = (impurity, f, threshold)
            if best is None or key < best[0]:
                best = (key, f, threshold)
    if best is None or best[0][0] >= parent_gini - 1e-12:
        return TreeLeaf(_loop_majority(y))
    _, f, threshold = best
    mask = x[:, f] <= threshold
    return TreeSplit(
        f,
        float(threshold),
        _loop_grow(x[mask], y[mask], depth + 1, max_depth, min_leaf),
        _loop_grow(x[~mask], y[~mask], depth + 1, max_depth, min_leaf),
    )


def cart_loop_oracle(x, y, max_depth: int, min_leaf: int):
    """The CART grower that walks every sorted row of a feature, frozen as the
    byte-level reference for the prefix-count split search.

    Returns the root node that ``learn_tree`` must build from ``(x, y)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=int)
    return _loop_grow(x, y, 0, int(max_depth), int(min_leaf))


def choice_loop_oracle(matrix, deterministic: bool, labels, seed: int):
    """Target class per secret, drawn with one ``rng.choice`` per secret: the
    loop the single-draw ``enforcement._draw_targets`` replaces."""
    rng = np.random.default_rng(seed)
    k = matrix.shape[0]
    rows = matrix[labels]
    if deterministic:
        return np.argmax(rows, axis=1)
    return np.asarray([rng.choice(k, p=row / row.sum()) for row in rows])
