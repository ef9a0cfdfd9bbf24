import numpy as np
import pytest

from leakmit import simplex
from leakmit.errors import SolverError
from leakmit.simplex import _pivot, phase_one, solve_lp, warm_starts

from conftest import same_lp
from oracles import lp_vertex_oracle, pivot_loop_oracle


class TestBasics:
    def test_single_bound(self):
        res = solve_lp([1.0], a_ub=[[1.0]], b_ub=[3.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.x[0] == pytest.approx(3.0)

    def test_minimize(self):
        res = solve_lp(
            [1.0], a_ub=[[-1.0]], b_ub=[-2.0], bounds=[(0.0, 10.0)],
            maximize=False,
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)

    def test_degenerate_tie_unique_objective(self):
        # both vertices of the ridge maximize; objective value is unique
        res = solve_lp(
            [1.0, 1.0],
            a_ub=[[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
            b_ub=[1.0, 1.0, 1.0],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_equality_constraint(self):
        res = solve_lp(
            [0.0, 1.0],
            a_eq=[[1.0, 1.0]],
            b_eq=[4.0],
            bounds=[(0.0, 3.0), (0.0, 3.0)],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.x.sum() == pytest.approx(4.0)

    def test_infeasible(self):
        res = solve_lp(
            [1.0],
            a_ub=[[1.0], [-1.0]],
            b_ub=[1.0, -2.0],  # x <= 1 and x >= 2
        )
        assert res.status == "infeasible"
        assert res.x is None

    @pytest.mark.parametrize("hi", [0.5, -np.inf])
    def test_upper_bound_below_lower_bound_is_infeasible(self, hi):
        # An infinite upper bound adds no row, so -inf is only caught here.
        res = solve_lp([1.0, 1.0], bounds=[(0.0, 1.0), (1.0, hi)])
        assert res.status == "infeasible"
        assert res.x is None and np.isnan(res.objective)

    def test_unbounded(self):
        res = solve_lp([1.0], a_ub=[[-1.0]], b_ub=[0.0])
        assert res.status == "unbounded"

    def test_lower_bound_shift(self):
        res = solve_lp(
            [-1.0, 0.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[10.0],
            bounds=[(2.0, None), (1.0, None)],
            maximize=False,
        )
        # minimizing -x0 drives x0 as high as the row allows: x0 = 9, x1 = 1
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(9.0)

    def test_constraint_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp([1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0])


class TestDegeneratePrograms:
    # Beale's cycling example (Beale 1955, as a maximization): Dantzig
    # pricing with the smallest-basis-index tie break cycles on it, so only
    # the switch to Bland's rule after STALL_LIMIT stalled pivots ends it.
    BEALE = {
        "c": [0.75, -20.0, 0.5, -6.0],
        "a_ub": [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0],
                 [0.0, 0.0, 1.0, 0.0]],
        "b_ub": [0.0, 0.0, 1.0],
    }

    def test_beale_cycling_program_reaches_the_optimum(self):
        res = solve_lp(**self.BEALE)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.25)
        assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0])

    def test_beale_program_cycles_without_blands_rule(self, monkeypatch):
        monkeypatch.setattr(simplex, "STALL_LIMIT", simplex.MAX_ITERS)
        monkeypatch.setattr(simplex, "MAX_ITERS", 1_000)
        with pytest.raises(SolverError, match="iteration limit"):
            solve_lp(**self.BEALE)

    def test_duplicated_equality_row_is_dropped(self):
        # The second equality is twice the first: phase one leaves its
        # artificial basic in a row with no other entry and drops the row.
        res = solve_lp(
            [1.0, 1.0], a_ub=[[1.0, 0.0]], b_ub=[3.0],
            a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[4.0, 8.0],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4.0)
        assert res.x.sum() == pytest.approx(4.0)
        assert res.basis.size == 2  # three rows, one dropped


class TestAgainstBasisEnumeration:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_five_var_programs(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        m = int(rng.integers(2, 6))
        a_ub = rng.uniform(-2.0, 3.0, size=(m, n))
        b_ub = rng.uniform(0.5, 6.0, size=m)
        c = rng.uniform(-2.0, 2.0, size=n)
        bounds = [(0.0, float(rng.uniform(1.0, 5.0))) for _ in range(n)]
        res = solve_lp(c, a_ub, b_ub, bounds=bounds)
        want, _ = lp_vertex_oracle(c, a_ub, b_ub, bounds=bounds)
        # box bounds keep every program feasible (origin) and bounded
        assert res.status == "optimal"
        assert want is not None
        assert res.objective == pytest.approx(want, rel=1e-7, abs=1e-7)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_programs_with_equalities(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = 4
        a_ub = rng.uniform(-1.0, 2.0, size=(3, n))
        b_ub = rng.uniform(1.0, 5.0, size=3)
        a_eq = rng.uniform(0.5, 1.5, size=(1, n))
        b_eq = np.array([rng.uniform(1.0, 2.0)])
        c = rng.uniform(-1.0, 1.0, size=n)
        bounds = [(0.0, 4.0)] * n
        res = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)
        want, _ = lp_vertex_oracle(c, a_ub, b_ub, a_eq, b_eq, bounds)
        if want is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.objective == pytest.approx(want, rel=1e-7, abs=1e-7)

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(5)
        n = 5
        a_ub = rng.uniform(-1.0, 2.0, size=(4, n))
        b_ub = rng.uniform(1.0, 4.0, size=4)
        c = rng.uniform(-1.0, 2.0, size=n)
        bounds = [(0.0, 3.0)] * n
        res = solve_lp(c, a_ub, b_ub, bounds=bounds)
        assert res.status == "optimal"
        assert np.all(a_ub @ res.x <= b_ub + 1e-8)
        assert np.all(res.x >= -1e-9)
        assert np.all(res.x <= 3.0 + 1e-9)


class TestNonFiniteInput:
    """Non-finite problem data fails at the boundary, not deep in a pivot."""

    PROGRAM = {
        "c": [1.0, 1.0],
        "a_ub": [[1.0, 1.0]],
        "b_ub": [1.0],
        "a_eq": [[1.0, -1.0]],
        "b_eq": [0.0],
    }

    @pytest.mark.parametrize("name", ["c", "a_ub", "b_ub", "a_eq", "b_eq"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected(self, name, bad):
        args = {key: np.array(val, dtype=float) for key, val in self.PROGRAM.items()}
        args[name].flat[0] = bad
        with pytest.raises(ValueError, match=name):
            solve_lp(**args)

    @pytest.mark.parametrize("lo", [-np.inf, np.inf, np.nan])
    def test_non_finite_lower_bound_rejected(self, lo):
        with pytest.raises(ValueError, match="lower bounds must be finite"):
            solve_lp([1.0], a_ub=[[1.0]], b_ub=[3.0], bounds=[(lo, None)])

    def test_nan_upper_bound_rejected(self):
        with pytest.raises(ValueError):
            solve_lp([1.0], a_ub=[[1.0]], b_ub=[3.0], bounds=[(0.0, np.nan)])

    @pytest.mark.parametrize("hi", [None, np.inf])
    def test_open_upper_bound_stays_legal(self, hi):
        res = solve_lp([1.0], a_ub=[[1.0]], b_ub=[3.0], bounds=[(0.0, hi)])
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(3.0)


def pivot_case(rng, m: int, width: int, row: int):
    """A random tableau whose pivot column mixes +0.0, -0.0 and non-zeros."""
    tableau = rng.normal(size=(m, width))
    col = int(rng.integers(0, width - 1))
    kind = rng.integers(0, 3, size=m)
    tableau[kind == 1, col] = 0.0
    tableau[kind == 2, col] = -0.0
    tableau[row, col] = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
    return tableau, col


class TestWarmStartFallbacks:
    """A basis the warm start cannot use gives the cold solve's answer."""

    @staticmethod
    def assert_cold_answer(monkeypatch, program, basis):
        cold_starts = []
        cold_start = simplex._cold_start
        monkeypatch.setattr(
            simplex, "_cold_start",
            lambda *args: cold_starts.append(1) or cold_start(*args),
        )
        warm = solve_lp(**program, basis=basis)
        assert cold_starts == [1]
        cold = solve_lp(**program)
        assert warm.status == cold.status == "optimal"
        assert warm.x.tobytes() == cold.x.tobytes()
        assert warm.objective == cold.objective

    def test_numerically_singular_basis(self, monkeypatch):
        # The basis columns differ by 2**-50, so LU succeeds, but the
        # right-hand side 1e300 overflows once it is scaled by 2**50.
        a_ub = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0**-50]])
        b_ub = np.array([0.0, 1e300])
        full = np.hstack([a_ub, np.eye(2), b_ub[:, None]])
        assert not np.isfinite(np.linalg.solve(a_ub, full)).all()
        program = {"c": [1.0, 1.0], "a_ub": a_ub, "b_ub": b_ub}
        self.assert_cold_answer(monkeypatch, program, [0, 1])

    def test_leaving_row_with_only_tiny_pivots(self, monkeypatch):
        # The slack basis leaves row -1e-8 x <= -1 short, and its one
        # negative entry lies between PIVOT_TOL and DUAL_PIVOT_TOL.
        program = {"c": [-1.0], "a_ub": [[-1e-8]], "b_ub": [-1.0]}
        assert simplex.PIVOT_TOL < 1e-8 < simplex.DUAL_PIVOT_TOL
        self.assert_cold_answer(monkeypatch, program, [1])


class TestRank1Pivot:
    """The one-expression pivot against the frozen row loop, bit for bit."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_row_loop(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            m = int(rng.integers(1, 16))
            width = int(rng.integers(2, 30))
            for row in {0, m - 1, int(rng.integers(0, m))}:
                tableau, col = pivot_case(rng, m, width, row)
                basis = rng.permutation(width)[:m] if m <= width else np.arange(m)
                got_t, got_b = tableau.copy(), basis.copy()
                want_t, want_b = tableau.copy(), basis.copy()
                _pivot(got_t, got_b, row, col)
                pivot_loop_oracle(want_t, want_b, row, col)
                assert got_t.tobytes() == want_t.tobytes()
                assert got_b.tobytes() == want_b.tobytes()


class TestPreparedStarts:
    """A start prepared once answers each solve as its own solve would."""

    @pytest.mark.parametrize("seed", range(10))
    def test_phase_one_serves_every_objective(self, seed):
        rng = np.random.default_rng(2000 + seed)
        n = 5
        a_ub = rng.uniform(-1.0, 2.0, size=(3, n))
        b_ub = rng.uniform(-1.0, 5.0, size=3)  # some rows flip
        a_eq = rng.uniform(0.5, 1.5, size=(1, n))
        b_eq = np.array([rng.uniform(1.0, 2.0)])
        bounds = [(0.0, 4.0)] * n
        start = phase_one(a_ub, b_ub, a_eq, b_eq, bounds)
        for _ in range(5):
            c = rng.normal(size=n)
            for maximize in (True, False):
                got = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds, maximize, start)
                want = solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds, maximize)
                assert same_lp(got, want)

    def test_infeasible_program_solves_cold(self):
        program = ([[1.0], [-1.0]], [1.0, -2.0], None, None, [(0.0, None)])
        start = phase_one(*program)
        assert start.tableau is None
        assert solve_lp([1.0], *program, basis=start).status == "infeasible"

    def test_warm_starts_match_one_basis_solve_each(self):
        rng = np.random.default_rng(3)
        n = 4
        a_ub = rng.uniform(-1.0, 2.0, size=(3, n))
        b_ub = rng.uniform(1.0, 5.0, size=3)
        c = rng.uniform(-1.0, 1.0, size=n)
        base = [(0.0, 3.0)] * n
        root = solve_lp(c, a_ub, b_ub, bounds=base)
        # one crossed bound pair: that program is infeasible before any start
        children = [[(v, v)] + base[1:] for v in (0.0, 1.0, 2.0)]
        children.append([(2.0, 1.0)] + base[1:])
        starts = warm_starts(a_ub, b_ub, None, None, children, root.basis)
        assert starts[-1] is None
        for bounds, start in zip(children, starts):
            got = solve_lp(c, a_ub, b_ub, bounds=bounds, basis=start)
            want = solve_lp(c, a_ub, b_ub, bounds=bounds, basis=root.basis)
            assert same_lp(got, want)


class TestAppendedRightHandSides:
    """The shared refactorization of a branch-and-bound node rests on one
    property of LAPACK's solve: appending right-hand-side columns leaves
    the bits of every other column as they are.  If a numpy or BLAS upgrade
    breaks it, this test fails and names the cause of the shared starts'
    mismatches.  Shapes run up to the k = 20 min-guess program: 82 rows,
    293 structural and slack columns."""

    @pytest.mark.parametrize("seed", range(8))
    def test_appended_columns_keep_their_bits(self, seed):
        rng = np.random.default_rng(6000 + seed)
        for _ in range(12):
            m = int(rng.integers(2, 83))
            n = int(rng.integers(1, 293 - m + 1))
            # [A | I] as in a tableau, and a basis mixing both kinds of column
            full = np.hstack([rng.normal(size=(m, n)), np.eye(m)])
            basis = rng.permutation(n + m)[:m]
            if abs(np.linalg.det(full[:, basis])) < 1e-8:
                continue
            rhs = rng.normal(size=(m, 2))
            both = np.linalg.solve(full[:, basis], np.hstack([full, rhs]))
            for i in (0, 1):
                one = np.linalg.solve(full[:, basis], np.hstack([full, rhs[:, i:i + 1]]))
                assert both[:, : n + m].tobytes() == one[:, :-1].tobytes()
                assert both[:, n + m + i].tobytes() == one[:, -1].tobytes()
