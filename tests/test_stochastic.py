import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakmit.deterministic import synthesize_det
from leakmit.entropy import MEASURES, EntropyMeasure, entropy, post_policy_entropy
from leakmit.policy import build_report, expected_overhead, expected_sizes, validate
from leakmit import simplex, stochastic
from leakmit.simplex import solve_lp
from leakmit.stochastic import (
    _matrix_from_mu,
    _minguess_program,
    _project_rows,
    _upward_program,
    synthesize_local,
    synthesize_minguess,
)

from conftest import make_classset, random_classset
from oracles import (
    jump_direction_oracle,
    jump_program_oracle,
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
        assert validate(pol, cs) == []
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

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            synthesize_minguess(tiny_instance(), -0.5)


class TestLocalSearch:
    def test_minguess_redirected(self):
        with pytest.raises(ValueError):
            synthesize_local(tiny_instance(), EntropyMeasure.MINGUESS, 0.5)

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
        assert validate(pol, cs) == []
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

        def recording(c, a_ub, b_ub, a_eq, b_eq, bounds):
            calls.append((c, a_ub, b_ub, a_eq, b_eq, bounds))
            return solve_lp(c, a_ub, b_ub, a_eq, b_eq, bounds)

        monkeypatch.setattr(stochastic, "solve_lp", recording)
        k = cs.k
        *bb_want, mu_index = minguess_program_oracle(cs, delta)
        n_mu = len(mu_index)
        synthesize_minguess(cs, delta)
        assert calls
        base = [(0.0, None)] * n_mu + [(0.0, 1.0)] * k + [(0.0, None)]
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
