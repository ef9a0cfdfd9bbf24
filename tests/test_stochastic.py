import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakmit.clustering import cluster_functions
from leakmit.errors import SolverError
from leakmit.deterministic import synthesize_det
from leakmit.entropy import (
    MEASURES,
    EntropyMeasure,
    MeasureRow,
    entropy,
    post_policy_entropy,
)
from leakmit.policy import (
    MAX_CLASSES,
    MitigationPolicy,
    build_report,
    expected_overhead,
    expected_sizes,
)
from leakmit import simplex, stochastic
from leakmit.simplex import LpResult, solve_lp
from leakmit.timing import PublicGrid, TimingDataset
from leakmit.stochastic import (
    _matrix_from_mu,
    _minguess_program,
    _project_rows,
    _upward_program,
    synthesize_local,
    synthesize_minguess,
)

from conftest import make_classset, random_classset, same_lp
import oracles
from oracles import (
    jump_direction_oracle,
    jump_program_oracle,
    local_search_oracle,
    matrix_from_mu_oracle,
    minguess_pattern_oracle,
    minguess_program_oracle,
    pivot_loop_oracle,
    project_row_oracle,
)


def tiny_instance(baseline=1.0):
    return make_classset(
        [1.0, 4.0, 2.0],
        reps=[[1.0] * 4, [2.0] * 4, [3.0] * 4],
        baseline=baseline,
    )


class TestMinguessExact:
    def test_unbounded_budget_merges_everything(self):
        cs = tiny_instance()
        pol, diag = synthesize_minguess(cs, math.inf)
        assert post_policy_entropy(pol, cs, EntropyMeasure.MINGUESS) == pytest.approx(
            4.0
        )
        assert diag.status == "optimal"

    def test_zero_budget_keeps_identity(self):
        cs = tiny_instance()
        pol, _ = synthesize_minguess(cs, 0.0)
        assert post_policy_entropy(pol, cs, EntropyMeasure.MINGUESS) == pytest.approx(
            1.0  # smallest class has size 1
        )
        assert np.allclose(pol.matrix, np.eye(3))

    def test_affordable_merge_with_scaled_penalties(self):
        # penalties (j - i)/7 make the full merge cost 6/49 < 0.2
        cs = tiny_instance(baseline=7.0)
        pol, _ = synthesize_minguess(cs, 0.2)
        value = post_policy_entropy(pol, cs, EntropyMeasure.MINGUESS)
        m = minguess_pattern_oracle(cs, 0.2, solve_lp)
        assert value == pytest.approx((m + 1.0) / 2.0, rel=1e-9)
        assert value == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pattern_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        cs = random_classset(rng, k)
        delta = float(rng.choice([0.0, 0.05, 0.1, 0.2, 0.4, 0.8]))
        pol, diag = synthesize_minguess(cs, delta)
        got_m = 2.0 * post_policy_entropy(pol, cs, EntropyMeasure.MINGUESS) - 1.0
        want_m = minguess_pattern_oracle(cs, delta, solve_lp)
        assert got_m == pytest.approx(want_m, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_deterministic(self, seed):
        rng = np.random.default_rng(300 + seed)
        cs = random_classset(rng, int(rng.integers(2, 8)))
        delta = float(rng.uniform(0.0, 0.6))
        det_pol, _ = synthesize_det(cs, EntropyMeasure.MINGUESS, delta,
                                    scan_all_r=True)
        sto_pol, _ = synthesize_minguess(cs, delta)
        det_v = post_policy_entropy(det_pol, cs, EntropyMeasure.MINGUESS)
        sto_v = post_policy_entropy(sto_pol, cs, EntropyMeasure.MINGUESS)
        assert sto_v >= det_v - 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_policy_is_valid_and_on_budget(self, seed):
        rng = np.random.default_rng(600 + seed)
        cs = random_classset(rng, int(rng.integers(2, 7)))
        delta = float(rng.uniform(0.0, 0.5))
        pol, _ = synthesize_minguess(cs, delta)
        assert pol.k == cs.k  # the constructor checked the matrix
        assert expected_overhead(pol, cs) <= delta + 1e-9
        assert expected_sizes(pol, cs.sizes).sum() == pytest.approx(
            cs.sizes.sum()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_is_the_smallest_class_size(self, seed):
        # the same raw min-guess scale as the measure table and the DP
        rng = np.random.default_rng(500 + seed)
        cs = random_classset(rng, int(rng.integers(2, 7)))
        delta = float(rng.uniform(0.0, 0.5))
        pol, diag = synthesize_minguess(cs, delta)
        want = build_report(pol, cs, EntropyMeasure.MINGUESS, delta).entropy_after
        got = MEASURES[EntropyMeasure.MINGUESS].finalize(
            diag.objective, float(cs.sizes.sum())
        )
        assert got == pytest.approx(want, rel=1e-9)

    def test_root_relaxation_bounds_the_integer_optimum(self):
        rng = np.random.default_rng(9)
        cs = random_classset(rng, 5)
        pol, diag = synthesize_minguess(cs, 0.15)
        assert diag.best_bound >= diag.objective - 1e-9
        assert diag.nodes_explored >= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_closed_search_proves_its_objective(self, seed):
        # The search always closes, so the proven bound is the optimum itself,
        # and no z pattern of the enumeration oracle beats it.
        rng = np.random.default_rng(700 + seed)
        cs = random_classset(rng, int(rng.integers(2, 7)))
        delta = float(rng.choice([0.0, 0.1, 0.3, math.inf]))
        _, diag = synthesize_minguess(cs, delta)
        assert diag.best_bound == diag.objective
        want = minguess_pattern_oracle(cs, delta, solve_lp)
        assert diag.best_bound == pytest.approx(want, rel=1e-9)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            synthesize_minguess(tiny_instance(), -0.5)

    def test_class_count_is_checked_before_any_work(self, monkeypatch):
        # At k = 1 600 the program's link rows alone would need 33 GB.
        def no_work(*args, **kwargs):
            raise AssertionError("the class count must be checked first")

        monkeypatch.setattr(stochastic, "_minguess_program", no_work)
        rng = np.random.default_rng(0)
        with pytest.raises(AssertionError, match="checked first"):
            synthesize_minguess(random_classset(rng, MAX_CLASSES), 0.5)
        k = MAX_CLASSES + 1
        message = f"at most {k - 1} classes, got k = {k}; .*--epsilon"
        with pytest.raises(ValueError, match=message):
            synthesize_minguess(random_classset(rng, k), 0.5)


class TestDeterministicIsReadOffTheMatrix:
    def test_dp_policies_are_and_a_split_bb_policy_is_not(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            cs = random_classset(rng, int(rng.integers(1, 10)))
            for measure in EntropyMeasure:
                delta = float(rng.choice([0.0, rng.uniform(0.0, 1.0), math.inf]))
                pol, _ = synthesize_det(cs, measure, delta)
                assert pol.deterministic
        # Class 0 splits 0.8 / 0.2 between classes 1 and 2.
        pol, _ = synthesize_minguess(make_classset([2.0, 2.0, 2.0]), 0.2)
        assert 0.0 < pol.matrix[0, 2] < 1.0
        assert not pol.deterministic


WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestLeafPinning:
    """The returned policy is the winning z pattern, every z pinned.

    Re-solving the winning leaf with only its branched z fixed returns, on
    seed 4, set 6 (k = 12), delta 0.2, a stray class of mass 19 beside a
    claimed optimum of 173: an unbranched z sits fractional in the re-solve.
    """

    def test_smallest_class_is_the_optimum_on_the_sweep_family(self):
        wl = load_workloads()
        grid = PublicGrid(
            tuple(float(p) for p in range(1, wl.CLASSSET_GRID_POINTS + 1))
        )
        for spec in wl.classset_specs(4):
            # the benchmark's input: each representative repeated size times
            times = np.repeat(spec.representatives, spec.sizes, axis=0)
            dataset = TimingDataset(tuple(range(times.shape[0])), grid, times)
            cs = cluster_functions(dataset, 1e-6)
            assert tuple(cs.sizes) == spec.sizes
            for delta in wl.SWEEP_BUDGETS:
                pol, diag = synthesize_minguess(cs, delta)
                sizes = expected_sizes(pol, cs.sizes)
                smallest = sizes[sizes > 0].min()
                assert smallest == pytest.approx(diag.objective, rel=1e-9), (
                    spec.k, delta
                )


class TestLocalSearch:
    def test_minguess_redirected(self):
        with pytest.raises(ValueError):
            synthesize_local(tiny_instance(), EntropyMeasure.MINGUESS, 0.5)

    @pytest.mark.parametrize("delta", [-0.1, math.nan])
    def test_bad_budget_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be >= 0"):
            synthesize_local(tiny_instance(), EntropyMeasure.SHANNON, delta)

    def test_unbounded_budget_reaches_single_class(self):
        cs = tiny_instance()
        for measure in (EntropyMeasure.SHANNON, EntropyMeasure.GUESSING):
            pol, _ = synthesize_local(cs, measure, math.inf, n_starts=2)
            assert post_policy_entropy(pol, cs, measure) == pytest.approx(
                entropy([7.0], measure)
            )

    def test_zero_budget_keeps_identity_values(self):
        cs = tiny_instance()
        for measure in (EntropyMeasure.SHANNON, EntropyMeasure.GUESSING):
            pol, _ = synthesize_local(cs, measure, 0.0, n_starts=2)
            assert post_policy_entropy(pol, cs, measure) == pytest.approx(
                entropy(cs.sizes, measure)
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_reaches_best_polytope_vertex_on_small_instances(self, seed):
        """Convex objectives peak at vertices; enumerate them by optimizing
        many random directions and compare against the search result."""
        rng = np.random.default_rng(seed)
        cs = random_classset(rng, 3)
        delta = float(rng.uniform(0.02, 0.5))
        k, sizes, total = cs.k, cs.sizes, float(cs.sizes.sum())
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        a_eq = np.zeros((k, len(pairs)))
        for t, (i, j) in enumerate(pairs):
            a_eq[i, t] = 1.0
        a_ub = np.array(
            [[sizes[i] * cs.penalty[i, j] / total for (i, j) in pairs]]
        )
        dir_rng = np.random.default_rng(10_000 + seed)
        for measure in (EntropyMeasure.SHANNON, EntropyMeasure.GUESSING):
            vertex_best = -math.inf
            for _ in range(200):
                d = dir_rng.normal(size=len(pairs))
                res = solve_lp(
                    d, a_ub, np.array([delta]), a_eq, np.ones(k),
                    [(0.0, None)] * len(pairs),
                )
                if res.status != "optimal":
                    continue
                after = np.zeros(k)
                for t, (i, j) in enumerate(pairs):
                    after[j] += sizes[i] * res.x[t]
                vertex_best = max(
                    vertex_best, entropy(np.maximum(after, 0.0), measure)
                )
            pol, _ = synthesize_local(cs, measure, delta, n_starts=8, seed=0)
            got = post_policy_entropy(pol, cs, measure)
            assert got >= vertex_best - 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_identity_and_partition_seed(self, seed):
        rng = np.random.default_rng(40 + seed)
        cs = random_classset(rng, int(rng.integers(2, 8)))
        delta = float(rng.uniform(0.0, 0.8))
        for measure in (EntropyMeasure.SHANNON, EntropyMeasure.GUESSING):
            pol, _ = synthesize_local(cs, measure, delta, n_starts=4, seed=1)
            got = post_policy_entropy(pol, cs, measure)
            identity_value = entropy(cs.sizes, measure)
            det_pol, _ = synthesize_det(cs, measure, delta, scan_all_r=True)
            det_value = post_policy_entropy(det_pol, cs, measure)
            assert got >= identity_value - 1e-9
            assert got >= det_value - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_policy_is_valid_and_on_budget(self, seed):
        rng = np.random.default_rng(70 + seed)
        cs = random_classset(rng, int(rng.integers(2, 7)))
        delta = float(rng.uniform(0.0, 0.5))
        pol, _ = synthesize_local(cs, EntropyMeasure.GUESSING, delta, n_starts=4)
        assert pol.k == cs.k  # the constructor checked the matrix
        assert expected_overhead(pol, cs) <= delta + 1e-9
        assert expected_sizes(pol, cs.sizes).sum() == pytest.approx(
            cs.sizes.sum()
        )

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        cs = random_classset(rng, 5)
        a, _ = synthesize_local(cs, EntropyMeasure.SHANNON, 0.3, n_starts=6, seed=9)
        b, _ = synthesize_local(cs, EntropyMeasure.SHANNON, 0.3, n_starts=6, seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_warm_start_is_honored(self):
        cs = tiny_instance()
        good, _ = synthesize_local(cs, EntropyMeasure.SHANNON, 0.9, n_starts=8)
        warm, _ = synthesize_local(
            cs, EntropyMeasure.SHANNON, 0.9, n_starts=0,
            warm_starts=(good.matrix,),
        )
        assert post_policy_entropy(
            warm, cs, EntropyMeasure.SHANNON
        ) >= post_policy_entropy(good, cs, EntropyMeasure.SHANNON) - 1e-9

    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    def test_jump_lp_without_an_optimum_is_a_solver_error(self, status,
                                                           monkeypatch):
        # The identity is feasible at zero cost and the row sums bound every
        # variable, so a jump LP always has an optimum; anything else is a
        # fault, not a reason to stop jumping.
        monkeypatch.setattr(
            stochastic, "solve_lp", lambda *args, **kw: LpResult(status, None, np.nan)
        )
        with pytest.raises(SolverError, match=f"vertex-jump LP is {status}"):
            synthesize_local(tiny_instance(), EntropyMeasure.SHANNON, 0.4,
                             n_starts=2)

    def test_diagnostics_fields(self):
        cs = tiny_instance()
        _, diag = synthesize_local(cs, EntropyMeasure.GUESSING, 0.4, n_starts=3)
        assert diag.status == "feasible"
        assert diag.restarts >= 3
        assert diag.best_bound >= diag.objective

    @pytest.mark.parametrize("seed", range(6))
    def test_objective_finalizes_to_report_entropy(self, seed):
        rng = np.random.default_rng(90 + seed)
        cs = random_classset(rng, int(rng.integers(2, 7)))
        delta = float(rng.uniform(0.0, 0.5))
        total = float(cs.sizes.sum())
        for measure in (EntropyMeasure.SHANNON, EntropyMeasure.GUESSING):
            pol, diag = synthesize_local(cs, measure, delta, n_starts=2, seed=seed)
            want = build_report(pol, cs, measure, delta).entropy_after
            got = MEASURES[measure].finalize(diag.objective, total)
            assert got == pytest.approx(want, rel=1e-12)


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes (signed zeros included), or both None."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


PROGRAM_DELTAS = (0.0, 0.1, 0.7, math.inf)


@pytest.fixture(scope="module")
def program_classsets():
    """300 random class sets, 20 for each k in 1..15."""
    rng = np.random.default_rng(2024)
    return [random_classset(rng, 1 + s % 15) for s in range(300)]


def signed_noise(rng, shape) -> np.ndarray:
    """Normal draws with about a fifth of the entries set to +0.0 or -0.0."""
    x = rng.normal(size=shape)
    zero = rng.random(shape) < 0.2
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return x


class TestUpwardProgram:
    """The array-built programs against the frozen per-entry loop builders."""

    def test_minguess_program_matches_loop_builder(self, program_classsets):
        for cs in program_classsets:
            for delta in PROGRAM_DELTAS:
                c, a_ub, b_ub, a_eq, b_eq, iu = _minguess_program(cs, delta)
                *want, mu_index = minguess_program_oracle(cs, delta)
                assert list(zip(iu[0].tolist(), iu[1].tolist())) == mu_index
                for got, ref in zip((c, a_ub, b_ub, a_eq, b_eq), want):
                    assert same_bits(got, ref), (cs.k, delta)

    def test_jump_program_matches_loop_builder(self, program_classsets):
        rng = np.random.default_rng(7)
        for cs in program_classsets:
            for delta in PROGRAM_DELTAS:
                iu, *got = _upward_program(cs, delta)
                pairs, *want = jump_program_oracle(cs, delta)
                for g, ref in zip(got, want):
                    assert same_bits(g, ref), (cs.k, delta)
                grad = signed_noise(rng, (cs.k, cs.k))
                assert same_bits(grad[iu], jump_direction_oracle(grad, pairs))

    def test_matrix_map_matches_loop(self, program_classsets):
        rng = np.random.default_rng(8)
        for cs in program_classsets:
            k = cs.k
            iu = _upward_program(cs, math.inf)[0]
            mu_index = list(zip(iu[0].tolist(), iu[1].tolist()))
            # jump vectors hold only mu; B&B vectors carry z and m after it
            for n in (len(mu_index), len(mu_index) + k + 1):
                x = signed_noise(rng, n)
                assert same_bits(
                    _matrix_from_mu(x, iu, k), matrix_from_mu_oracle(x, mu_index, k)
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_solvers_pass_the_frozen_programs(self, seed, monkeypatch):
        """Every LP either solver hands the simplex carries the loop
        builders' arrays; only the B&B z bounds and the jump direction vary."""
        rng = np.random.default_rng(800 + seed)
        cs = random_classset(rng, int(rng.integers(2, 7)))
        delta = float(rng.choice([0.1, 0.4, math.inf]))
        calls = []

        def recording(c, a_ub, b_ub, a_eq, b_eq, bounds, basis=None):
            calls.append((c, a_ub, b_ub, a_eq, b_eq, bounds))
            return solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds, basis=basis)

        monkeypatch.setattr(stochastic, "solve_lp", recording)
        k = cs.k
        *bb_want, mu_index = minguess_program_oracle(cs, delta)
        n_mu = len(mu_index)
        synthesize_minguess(cs, delta)
        assert calls
        base = node_bounds(k, n_mu, {})  # z_{k-1} = (1, 1): the top class
        for c, a_ub, b_ub, a_eq, b_eq, bounds in calls:
            for got, ref in zip((c, a_ub, b_ub, a_eq, b_eq), bb_want):
                assert same_bits(got, ref)
            for t, (got, ref) in enumerate(zip(bounds, base, strict=True)):
                if got != ref:
                    assert n_mu <= t < n_mu + k and got in ((0.0, 0.0), (1.0, 1.0))

        calls.clear()
        _, *jump_want = jump_program_oracle(cs, delta)
        synthesize_local(cs, EntropyMeasure.SHANNON, delta, n_starts=2, seed=seed)
        assert calls
        for c, a_ub, b_ub, a_eq, b_eq, bounds in calls:
            assert np.asarray(c).shape == (n_mu,)
            for got, ref in zip((a_eq, b_eq, a_ub, b_ub), jump_want):
                assert same_bits(got, ref)
            assert bounds == [(0.0, None)] * n_mu


def project_rows_loop(mat: np.ndarray) -> np.ndarray:
    """The per-row projection loop the batched kernel replaced."""
    out = np.zeros_like(mat)
    for i in range(mat.shape[0]):
        out[i, i:] = project_row_oracle(mat[i, i:])
    return out


def projection_cases(rng, k: int):
    """Random k x k matrices, then the shapes that stress tie and sign order."""
    yield rng.normal(size=(k, k)) * rng.choice([0.1, 1.0, 10.0])
    yield rng.integers(-3, 4, size=(k, k)) / 4.0  # many tied entries
    yield np.full((k, k), rng.normal())  # every row all equal
    yield -rng.uniform(0.1, 5.0, size=(k, k))  # every row all negative
    yield signed_noise(rng, (k, k))
    yield rng.choice([0.0, -0.0, 0.5, -0.5], size=(k, k))  # signed zeros, ties
    yield np.where(rng.random((k, k)) < 0.5, 0.0, -0.0)


class TestBatchedProjection:
    """The one-pass projection against the frozen per-row projection."""

    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_row_loop(self, k):
        rng = np.random.default_rng(4000 + k)
        for _ in range(15):
            for mat in projection_cases(rng, k):
                got = _project_rows(mat)
                assert same_bits(got, project_rows_loop(mat)), (k, mat)

    @pytest.mark.parametrize("value", [0.0, -0.0, 0.3, -7.5, 1.0])
    def test_single_entry_rows(self, value):
        # k = 1, and the last row of any k, is one entry that projects to 1
        got = _project_rows(np.array([[value]]))
        assert same_bits(got, project_rows_loop(np.array([[value]])))
        assert got[0, 0] == 1.0
        mat = np.full((4, 4), value)
        assert _project_rows(mat)[-1].tolist() == [0.0, 0.0, 0.0, 1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda k: st.lists(
                st.sampled_from([0.0, -0.0, 0.25, -0.25, 1.0, 1e-17, -3.0, 0.1]),
                min_size=k * k,
                max_size=k * k,
            )
        )
    )
    def test_tied_and_signed_entries(self, values):
        k = int(round(len(values) ** 0.5))
        mat = np.array(values).reshape(k, k)
        assert same_bits(_project_rows(mat), project_rows_loop(mat))

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 15, 20])
    def test_stacks_match_row_loop(self, k):
        # every matrix of an (n, k, k) stack projects as it does alone
        rng = np.random.default_rng(4100 + k)
        cases = [mat for _ in range(3) for mat in projection_cases(rng, k)]
        for n in (1, 2, 5, len(cases)):
            stack = np.array(cases[:n])
            got = _project_rows(stack)
            assert got.shape == (n, k, k)
            for mat, row in zip(stack, got):
                assert same_bits(row, project_rows_loop(mat)), (k, n, mat)

    def test_empty_stack(self):
        assert _project_rows(np.zeros((0, 3, 3))).shape == (0, 3, 3)


LOCKSTEP_DELTAS = (0.0, 0.05, 0.3, math.inf)


def lockstep_cases():
    """(k, measure, delta, n_starts): k = 1..15 with both measures, the
    budget and the start count cycling so each pairs with both measures."""
    for k in range(1, 16):
        for m, measure in enumerate(("shannon", "guessing")):
            yield k, measure, LOCKSTEP_DELTAS[(k + m) % 4], (0, 1, 8)[(k + m) % 3]


def assert_matches_oracle(monkeypatch, cs, measure, delta, trials=None, **kwargs):
    """Same policy bits and diagnostics as the per-start search, and the
    same jump LPs: every gradient a start stalls at is solved, the same bits
    in both, and the lockstep search solves each distinct one once.
    ``trials`` collects the per-start search's trial records."""
    solved = []

    def recording(c, *args, **kw):
        solved.append(np.asarray(c).tobytes())
        return solve_lp(c, *args, **kw)

    monkeypatch.setattr(stochastic, "solve_lp", recording)
    monkeypatch.setattr(oracles, "solve_lp", recording)
    pol, diag = synthesize_local(cs, measure, delta, **kwargs)
    lockstep = list(solved)
    solved.clear()
    want_pol, want_diag = local_search_oracle(
        cs, measure, delta, trials=trials, **kwargs
    )
    assert same_bits(pol.matrix, want_pol.matrix), (cs.k, measure, delta, kwargs)
    assert diag == want_diag
    assert len(set(lockstep)) == len(lockstep)
    assert set(lockstep) == set(solved)
    return len(lockstep), len(solved)


def ladders(trials: list[list[bool]], rungs: int):
    """The halving ladders of the lockstep ascent, read off the per-start
    trial records: after a rejected trial a start tries up to ``rungs``
    halvings at once.  One ``(rungs tried, first accepted rung or None,
    trials left after it)`` per ladder."""
    out = []
    for record in trials:
        i = 0
        while i < len(record):
            if i == 0 or record[i - 1]:  # the first trial, or one after a move
                i += 1
                continue
            ladder = record[i : i + rungs]
            hit = ladder.index(True) if True in ladder else None
            i += len(ladder) if hit is None else hit + 1
            out.append((len(ladder), hit, len(record) - i))
    return out


def near_budget_line(cs, share):
    """A budget of ``share`` times the full merge's overhead, and the merge
    pulled toward the identity until its expected overhead is that budget
    plus 5e-10: just past the line, inside the 1e-9 slack warm starts get."""
    k = cs.k
    merge = np.zeros((k, k))
    merge[:, -1] = 1.0
    over = expected_overhead(MitigationPolicy(merge), cs)
    delta = share * over
    lam = (delta + 5e-10) / over
    return delta, lam * merge + (1.0 - lam) * np.eye(k)


class TestLockstepAscent:
    """All starts ascend in one batched pass; each must end on the bits it
    reaches alone in the frozen per-start search."""

    @pytest.mark.parametrize("k, measure, delta, n_starts", list(lockstep_cases()))
    def test_matches_per_start_search(self, k, measure, delta, n_starts,
                                      monkeypatch):
        rng = np.random.default_rng(5000 + k)
        cs = random_classset(rng, k)
        assert_matches_oracle(
            monkeypatch, cs, measure, delta, n_starts=n_starts, seed=k
        )

    @pytest.mark.parametrize("measure", ["shannon", "guessing"])
    @pytest.mark.parametrize("share", [0.1, 0.5])
    def test_warm_start_just_past_the_budget(self, measure, share, monkeypatch):
        rng = np.random.default_rng(5100)
        cs = random_classset(rng, 6)
        delta, warm = near_budget_line(cs, share)
        _, cold = synthesize_local(cs, measure, delta, n_starts=1, seed=3)
        assert_matches_oracle(
            monkeypatch, cs, measure, delta, n_starts=1, seed=3,
            warm_starts=(warm,),
        )
        _, diag = synthesize_local(
            cs, measure, delta, n_starts=1, seed=3, warm_starts=(warm,)
        )
        assert diag.restarts == cold.restarts + 1  # the warm start was taken

    @pytest.mark.parametrize("measure", ["shannon", "guessing"])
    def test_positive_class_count_crosses_eight(self, measure, monkeypatch):
        # The batched objective must fold rows with 8 or more positive
        # classes as their compacted 1-D sum does; these runs see both sides.
        counts = set()
        raw_rows = MeasureRow.raw_rows

        def recording(self, sizes):
            counts.update((sizes > 0).sum(axis=1).tolist())
            return raw_rows(self, sizes)

        monkeypatch.setattr(MeasureRow, "raw_rows", recording)
        rng = np.random.default_rng(5200)
        cs = random_classset(rng, 12)
        assert_matches_oracle(monkeypatch, cs, measure, 0.3, n_starts=8, seed=1)
        assert min(counts) < 8 <= max(counts)

    def test_ladders_accept_late_rungs_and_cross_the_cap(self, monkeypatch):
        # Recorded, not assumed: these runs accept rungs after the first and
        # reject whole ladders, then go on with the next.
        # Most ladders accept nothing; these two k = 7 sets are rarer.
        trials = []
        for seed in (6, 9):
            rng = np.random.default_rng(seed)
            cs = random_classset(rng, int(rng.integers(2, 14)))
            for measure in ("shannon", "guessing"):
                assert_matches_oracle(
                    monkeypatch, cs, measure, 0.05, trials=trials, n_starts=2,
                    seed=seed,
                )
        rungs = stochastic.LADDER_RUNGS
        seen = ladders(trials, rungs)
        assert {hit for _, hit, _ in seen} >= set(range(rungs)) | {None}
        assert any(n == rungs and hit is None and left for n, hit, left in seen)

    @pytest.mark.parametrize("cap", [3, 7])
    def test_trial_cap_counts_rungs(self, cap, monkeypatch):
        # Every start stops after MAX_ASCENT_ITERS trials, rungs included,
        # as the per-start search stops after that many steps.
        monkeypatch.setattr(stochastic, "MAX_ASCENT_ITERS", cap)
        monkeypatch.setattr(oracles, "MAX_ASCENT_ITERS", cap)
        trials = []
        rng = np.random.default_rng(5500 + cap)
        for k in (2, 6, 10):
            cs = random_classset(rng, k)
            for measure, delta in (("shannon", 0.1), ("guessing", math.inf)):
                assert_matches_oracle(
                    monkeypatch, cs, measure, delta, trials=trials, n_starts=3, seed=k
                )
        assert max(map(len, trials)) == cap
        # the cap cuts a ladder short: a capped start's last ladder
        rungs = stochastic.LADDER_RUNGS
        capped = [ladders([record], rungs) for record in trials if len(record) == cap]
        assert any(seen and seen[-1][0] < rungs for seen in capped)

    def test_jump_lps_are_memoised(self, monkeypatch):
        # the per-start search solves 23 jump LPs here, 9 of them repeats
        rng = np.random.default_rng(5308)
        cs = random_classset(rng, 8)
        lockstep, per_start = assert_matches_oracle(
            monkeypatch, cs, "guessing", 0.2, n_starts=8, seed=2
        )
        assert (lockstep, per_start) == (14, 23)

    @pytest.mark.parametrize("n_starts", [-1, stochastic.MAX_STARTS + 1])
    def test_start_count_is_checked_before_any_work(self, monkeypatch, n_starts):
        def no_work(*args, **kwargs):
            raise AssertionError("the start count must be checked first")

        monkeypatch.setattr(stochastic, "synthesize_det", no_work)
        with pytest.raises(ValueError, match="n_starts must be in 0..1000"):
            synthesize_local(tiny_instance(), "shannon", 0.1, n_starts=n_starts)

    def test_class_count_is_checked_before_any_work(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("the class count must be checked first")

        monkeypatch.setattr(stochastic, "synthesize_det", no_work)
        k = MAX_CLASSES + 1
        classes = random_classset(np.random.default_rng(0), k)
        message = f"at most {k - 1} classes, got k = {k}; .*--epsilon"
        with pytest.raises(ValueError, match=message):
            synthesize_local(classes, "guessing", 0.3, n_starts=2)


@pytest.fixture(scope="module")
def kernel_classsets():
    """100 random class sets, k = 1..12."""
    rng = np.random.default_rng(77)
    return [random_classset(rng, 1 + s % 12) for s in range(100)]


class TestSolveLpEndToEnd:
    """solve_lp with the rank-1 pivot returns the row loop's exact answer."""

    @staticmethod
    def solve_both(monkeypatch, *args):
        got = solve_lp(*args)
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "_pivot", pivot_loop_oracle)
            want = solve_lp(*args)
        assert got.status == want.status
        assert same_bits(got.x, want.x)
        return got

    def test_minguess_programs(self, kernel_classsets, monkeypatch):
        rng = np.random.default_rng(78)
        for cs in kernel_classsets:
            delta = float(rng.choice([0.0, 0.05, 0.2, 0.6, math.inf]))
            c, a_ub, b_ub, a_eq, b_eq, iu = _minguess_program(cs, delta)
            n_mu, k = iu[0].size, cs.k
            bounds = [(0.0, None)] * n_mu + [(0.0, 1.0)] * k + [(0.0, None)]
            self.solve_both(monkeypatch, c, a_ub, b_ub, a_eq, b_eq, bounds)
            # one branch-and-bound child: a z fixed to 0 or 1
            j, v = int(rng.integers(0, k)), float(rng.integers(0, 2))
            bounds[n_mu + j] = (v, v)
            self.solve_both(monkeypatch, c, a_ub, b_ub, a_eq, b_eq, bounds)

    def test_vertex_jump_programs(self, kernel_classsets, monkeypatch):
        rng = np.random.default_rng(79)
        for cs in kernel_classsets:
            delta = float(rng.choice([0.0, 0.05, 0.2, 0.6, math.inf]))
            iu, a_eq, b_eq, a_ub, b_ub = _upward_program(cs, delta)
            direction = signed_noise(rng, (cs.k, cs.k))[iu]
            bounds = [(0.0, None)] * iu[0].size
            args = (direction, a_ub, b_ub, a_eq, b_eq, bounds)
            assert self.solve_both(monkeypatch, *args).status == "optimal"


@pytest.fixture(scope="module")
def warm_classsets():
    """100 random class sets, k = 2..12."""
    rng = np.random.default_rng(4242)
    return [random_classset(rng, 2 + s % 11) for s in range(100)]


def node_bounds(k: int, n_mu: int, fixes: dict[int, int]):
    """The bounds of a branch-and-bound node: its z fixes over the base,
    where z_{k-1} = (1, 1) because the top class keeps its own mass."""
    bounds = [(0.0, None)] * n_mu + [(0.0, 1.0)] * (k - 1) + [(1.0, 1.0)]
    bounds += [(0.0, None)]
    for j, v in fixes.items():
        bounds[n_mu + j] = (float(v), float(v))
    return bounds


def warm_and_cold(classsets, seed: int):
    """Per class set, a chain of 1-4 random z fixes below a cold root; every
    child is solved warm from its parent's basis and cold.  Yields
    ``(program, bounds, warm, cold)`` until a child is not optimal."""
    rng = np.random.default_rng(seed)
    for cs in classsets:
        delta = float(rng.choice([0.0, 0.05, 0.2, 0.6, math.inf]))
        *program, iu = _minguess_program(cs, delta)
        n_mu = iu[0].size
        chain = rng.permutation(cs.k - 1)[: int(rng.integers(1, 5))]
        fixes = {}
        parent = solve_lp(*program, node_bounds(cs.k, n_mu, fixes))
        for j in chain:
            fixes[int(j)] = int(rng.integers(0, 2))
            bounds = node_bounds(cs.k, n_mu, fixes)
            warm = solve_lp(*program, bounds, basis=parent.basis)
            cold = solve_lp(*program, bounds)
            yield program, bounds, warm, cold
            if warm.status != "optimal":
                break
            parent = warm


def assert_same_answer(program, bounds, warm, cold):
    assert warm.status == cold.status
    if cold.status != "optimal":
        return
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
    c, a_ub, b_ub, a_eq, b_eq = program
    lo = np.array([b[0] for b in bounds])
    hi = np.array([np.inf if b[1] is None else b[1] for b in bounds])
    x = warm.x
    assert np.all(a_ub @ x <= b_ub + 1e-7)
    assert np.allclose(a_eq @ x, b_eq, atol=1e-7)
    assert np.all((x >= lo - 1e-7) & (x <= hi + 1e-7))


class TestWarmStart:
    """A child re-solved from its parent's basis agrees with a cold solve."""

    def test_warm_matches_cold(self, warm_classsets, monkeypatch):
        outcomes = []
        warm_start = simplex._warm_start

        def spy(*args):
            out = warm_start(*args)
            outcomes.append("fallback" if out is None else "warm")
            return out

        monkeypatch.setattr(simplex, "_warm_start", spy)
        statuses = Counter()
        for program, bounds, warm, cold in warm_and_cold(warm_classsets, 11):
            assert_same_answer(program, bounds, warm, cold)
            statuses[cold.status] += 1
        # the chains reach infeasible children, and the dual simplex (not
        # the cold fallback) answers every child
        assert statuses["infeasible"] > 0 and statuses["optimal"] > 0
        assert outcomes.count("warm") == sum(statuses.values())

    def test_dual_iteration_cap_falls_back_to_cold(self, warm_classsets,
                                                   monkeypatch):
        outcomes = []
        warm_start = simplex._warm_start

        def spy(*args):
            out = warm_start(*args)
            outcomes.append(out is None)
            return out

        monkeypatch.setattr(simplex, "_warm_start", spy)
        monkeypatch.setattr(simplex, "DUAL_MAX_ITERS", 1)
        for program, bounds, warm, cold in warm_and_cold(warm_classsets[:40], 12):
            assert_same_answer(program, bounds, warm, cold)
        assert any(outcomes) and not all(outcomes)

    def test_singular_basis_falls_back_to_cold(self, monkeypatch):
        cs = random_classset(np.random.default_rng(13), 6)
        *program, iu = _minguess_program(cs, 0.2)
        n_mu, k = iu[0].size, cs.k
        bounds = node_bounds(k, n_mu, {0: 1})
        # Slack and z columns only: no basic column meets the row sums.
        n = program[0].size
        m_ub = program[2].size + k  # every z has a finite upper bound
        basis = np.concatenate([n + np.arange(m_ub), n_mu + np.arange(k)])
        cold_starts = []
        cold_start = simplex._cold_start
        monkeypatch.setattr(
            simplex, "_cold_start",
            lambda *args: cold_starts.append(1) or cold_start(*args),
        )
        warm = solve_lp(*program, bounds, basis=basis)
        assert cold_starts == [1]
        assert_same_answer(program, bounds, warm, solve_lp(*program, bounds))
        assert warm.status == "optimal"

    @pytest.mark.parametrize("basis", [[0, 1], [-1] * 3, "duplicate"])
    def test_unusable_basis_falls_back_to_cold(self, basis):
        cs = random_classset(np.random.default_rng(14), 4)
        *program, iu = _minguess_program(cs, 0.3)
        bounds = node_bounds(cs.k, iu[0].size, {1: 0})
        cold = solve_lp(*program, bounds)
        if basis == "duplicate":
            basis = np.repeat(cold.basis[:1], cold.basis.size)
        warm = solve_lp(*program, bounds, basis=basis)
        assert warm.status == cold.status
        assert same_bits(warm.x, cold.x)


def counting(monkeypatch, module, name: str) -> list:
    """Patch ``module.name`` to log one entry per call; returns the log."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


class TestSharedStarts:
    """Work the solvers share gives every LP the bits of its own solve."""

    def test_jumps_share_one_phase_one(self, kernel_classsets, monkeypatch):
        jumps = []

        def recording(c, *args, **kwargs):
            res = solve_lp(c, *args, **kwargs)
            jumps.append((c, args, res))
            return res

        monkeypatch.setattr(stochastic, "solve_lp", recording)
        rng = np.random.default_rng(80)
        several = 0
        for cs in kernel_classsets:
            delta = float(rng.choice([0.05, 0.2, 0.6, math.inf]))
            measure = str(rng.choice(["shannon", "guessing"]))
            jumps.clear()
            with monkeypatch.context() as patch:
                phase_ones = counting(patch, simplex, "_cold_start")
                synthesize_local(cs, measure, delta, n_starts=3, seed=cs.k)
            assert len(phase_ones) == min(len(jumps), 1)
            several += len(jumps) > 1
            for c, args, res in jumps:
                assert same_lp(res, solve_lp(c, *args)), (cs.k, measure, delta)
        assert several > 20

    def test_expansion_refactorizes_once(self, warm_classsets, monkeypatch):
        rng = np.random.default_rng(81)
        expanded = 0
        for cs in warm_classsets[:40]:
            delta = float(rng.choice([0.05, 0.2, 0.6]))
            with monkeypatch.context() as patch:
                solves = counting(patch, np.linalg, "solve")
                _, diag = synthesize_minguess(cs, delta)
            # the root is cold; every expansion solves both children
            assert 2 * len(solves) == diag.nodes_explored - 1
            expanded += diag.nodes_explored > 1
        assert expanded > 10

    def test_children_match_separate_warm_solves(self, warm_classsets,
                                                 monkeypatch):
        """TestWarmStart's random chains of fixes, both children of each
        step from one refactorization, against a warm solve each."""
        rng = np.random.default_rng(82)
        statuses = Counter()
        for cs in warm_classsets:
            delta = float(rng.choice([0.0, 0.05, 0.2, 0.6, math.inf]))
            *program, iu = _minguess_program(cs, delta)
            c, a_ub, b_ub, a_eq, b_eq = program
            n_mu = iu[0].size
            fixes = {}
            parent = solve_lp(*program, node_bounds(cs.k, n_mu, fixes))
            for j in rng.permutation(cs.k - 1)[: int(rng.integers(1, 5))]:
                children = [{**fixes, int(j): v} for v in (0, 1)]
                bounds = [node_bounds(cs.k, n_mu, f) for f in children]
                with monkeypatch.context() as patch:
                    solves = counting(patch, np.linalg, "solve")
                    starts = simplex.warm_starts(
                        a_ub, b_ub, a_eq, b_eq, bounds, parent.basis
                    )
                assert len(solves) == 1
                results = []
                for child_bounds, start in zip(bounds, starts):
                    shared = solve_lp(*program, child_bounds, basis=start)
                    alone = solve_lp(*program, child_bounds, basis=parent.basis)
                    assert same_lp(shared, alone), (cs.k, delta, child_bounds)
                    statuses[alone.status] += 1
                    results.append(shared)
                optimal = [v for v in (0, 1) if results[v].status == "optimal"]
                if not optimal:
                    break
                v = int(rng.choice(optimal))
                fixes, parent = children[v], results[v]
        assert statuses["infeasible"] > 0 and statuses["optimal"] > 0


class TestBudgetContract:
    """Every stochastic policy's expected overhead is at most delta + 1e-9."""

    @pytest.mark.parametrize("seed", range(12))
    def test_both_solvers_meet_the_budget(self, seed):
        rng = np.random.default_rng(5000 + seed)
        cs = random_classset(rng, int(rng.integers(2, 10)))
        for delta in (0.0, *rng.uniform(0.0, 0.6, size=2)):
            delta = float(delta)
            policies = [synthesize_minguess(cs, delta)[0]]
            for measure in (EntropyMeasure.SHANNON, EntropyMeasure.GUESSING):
                policies.append(
                    synthesize_local(cs, measure, delta, n_starts=2, seed=seed)[0]
                )
            for pol in policies:
                assert expected_overhead(pol, cs) <= delta + 1e-9
                build_report(pol, cs, EntropyMeasure.SHANNON, delta)
