import json
import math

import numpy as np
import pytest

from leakmit.entropy import EntropyMeasure, post_policy_entropy
from leakmit.errors import InfeasiblePolicyError
from leakmit.policy import (
    MitigationPolicy,
    blocks_policy,
    build_report,
    expected_overhead,
    expected_sizes,
    full_merge_policy,
    identity_policy,
    policy_to_json,
    sanitize_matrix,
)

from conftest import BINOMIAL_SIZES, make_classset
from oracles import overhead_oracle, post_sizes_oracle, sanitize_loop_oracle


def random_policy(rng, k):
    """Row-stochastic, upward-only, not deterministic in general."""
    mat = np.zeros((k, k))
    for i in range(k):
        row = rng.dirichlet(np.ones(k - i))
        mat[i, i:] = row
    return MitigationPolicy(mat)


def violations(mat) -> list[str]:
    """The messages construction rejects ``mat`` with."""
    with pytest.raises(InfeasiblePolicyError) as err:
        MitigationPolicy(mat)
    return str(err.value).split("; ")


class TestValidate:
    """``MitigationPolicy`` checks its matrix once, at construction."""

    def test_identity_is_valid(self):
        pol = identity_policy(3)
        assert pol.k == 3
        assert pol.deterministic

    def test_row_sum_violation_message(self):
        mat = np.eye(5)
        mat[3, 3] = 0.9
        assert violations(mat) == ["row 3 sums to 0.9"]

    def test_downward_move_message(self):
        mat = np.eye(5)
        mat[4, 4] = 0.5
        mat[4, 2] = 0.5
        assert violations(mat) == ["order violated at (4,2)"]

    def test_out_of_range_entry(self):
        mat = np.array([[1.5, -0.5], [0.0, 1.0]])
        assert violations(mat) == [
            "entry (0,0) = 1.5 outside [0, 1]",
            "entry (0,1) = -0.5 outside [0, 1]",
        ]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, bad):
        mat = np.eye(3)
        mat[1, 2] = bad
        assert violations(mat) == [f"entry (1,2) = {bad!r} is not finite"]

    @pytest.mark.parametrize(
        "i, row, message",
        [
            (0, [-2e-9, 0.5 + 1e-9, 0.5 + 1e-9], "entry (0,0) = -2e-09 outside [0, 1]"),
            (0, [1.0 + 2e-9, 0.0, 0.0], "entry (0,0) = 1.000000002 outside [0, 1]"),
            (2, [2e-9, 0.0, 1.0 - 2e-9], "order violated at (2,0)"),
            (2, [0.0, 0.0, 1.0 + 2e-9], "row 2 sums to 1.000000002"),
        ],
    )
    def test_perturbations_past_the_tolerance(self, i, row, message):
        mat = np.eye(3)
        mat[i] = row
        assert message in violations(mat)
        # A quarter of the same perturbation, 5e-10, is within ROW_TOL.
        mat[i] = np.array(row) / 4 + 0.75 * np.eye(3)[i]
        assert MitigationPolicy(mat).k == 3

    def test_not_square(self):
        assert violations(np.ones((2, 3)) / 3) == ["policy matrix must be square"]

    def test_deterministic_is_read_off_the_matrix(self):
        assert not MitigationPolicy([[0.5, 0.5], [0.0, 1.0]]).deterministic
        assert not MitigationPolicy([[1.0 - 1e-12, 1e-12], [0.0, 1.0]]).deterministic
        assert MitigationPolicy([[0.0, 1.0], [0.0, 1.0]]).deterministic
        with pytest.raises(AttributeError):
            MitigationPolicy(np.eye(2)).deterministic = False

    def test_dimension_mismatch_raises(self):
        cs = make_classset([1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            build_report(identity_policy(2), cs, EntropyMeasure.SHANNON, 1.0)
        with pytest.raises(ValueError):
            post_policy_entropy(identity_policy(2), cs, EntropyMeasure.SHANNON)

    def test_every_block_policy_validates(self):
        for blocks in ([(0, 3)], [(0, 0), (1, 3)], [(0, 1), (2, 2), (3, 3)]):
            pol = blocks_policy(blocks, 4)
            assert pol.deterministic

    def test_construction_raises_with_joined_messages(self):
        mat = np.eye(3)
        mat[1, 1] = 0.4
        mat[2, 0] = 0.5
        with pytest.raises(InfeasiblePolicyError) as err:
            MitigationPolicy(mat)
        assert str(err.value) == (
            "row 1 sums to 0.4; row 2 sums to 1.5; order violated at (2,0)"
        )


class TestExpectedSizes:
    def test_identity_keeps_sizes(self):
        sizes = np.array([4.0, 9.0, 2.0])
        got = expected_sizes(identity_policy(3), sizes)
        assert np.array_equal(got, sizes)

    def test_split_and_merge_plan(self):
        # class 0 splits 60/40 between staying and the third class,
        # class 1 moves to the top, classes 2 and 3 stay put
        b = np.array([10.0, 20.0, 30.0, 40.0])
        mat = np.zeros((4, 4))
        mat[0, 0] = 0.6
        mat[0, 2] = 0.4
        mat[1, 3] = 1.0
        mat[2, 2] = 1.0
        mat[3, 3] = 1.0
        got = expected_sizes(MitigationPolicy(mat), b)
        assert np.allclose(got, [0.6 * 10, 0.0, 30 + 0.4 * 10, 40 + 20])

    def test_two_block_merge_on_binomial_sizes(self):
        pol = blocks_policy([(0, 5), (6, 9)], 10)
        got = expected_sizes(pol, np.array(BINOMIAL_SIZES))
        nonzero = sorted(v for v in got if v > 0)
        assert nonzero == [176.0, 847.0]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            expected_sizes(identity_policy(3), np.ones(4))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        pol = random_policy(rng, k)
        sizes = rng.uniform(1, 50, size=k)
        got = expected_sizes(pol, sizes)
        want = post_sizes_oracle(pol.matrix.tolist(), list(sizes))
        assert np.allclose(got, want)

    def test_linear_in_the_matrix(self):
        # finite difference: moving mass eps from staying to jumping shifts
        # C by exactly eps*b_i in each affected column
        b = np.array([8.0, 5.0, 3.0])
        eps = 0.125
        base = np.eye(3)
        bumped = base.copy()
        bumped[0, 0] -= eps
        bumped[0, 2] += eps
        c0 = expected_sizes(MitigationPolicy(base), b)
        c1 = expected_sizes(MitigationPolicy(bumped), b)
        diff = c1 - c0
        assert np.allclose(diff, [-eps * 8.0, 0.0, eps * 8.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_conservation(self, seed):
        rng = np.random.default_rng(100 + seed)
        k = int(rng.integers(2, 8))
        pol = random_policy(rng, k)
        sizes = rng.uniform(1, 50, size=k)
        assert expected_sizes(pol, sizes).sum() == pytest.approx(sizes.sum())


class TestExpectedOverhead:
    def test_identity_costs_nothing(self):
        cs = make_classset([2.0, 3.0])
        assert expected_overhead(identity_policy(2), cs) == 0.0

    def test_single_move_cost(self):
        cs = make_classset([2.0, 3.0, 5.0])
        mat = np.eye(3)
        mat[0, 0] = 0.0
        mat[0, 2] = 1.0
        pol = MitigationPolicy(mat)
        want = (2.0 / 10.0) * cs.penalty[0, 2]
        assert expected_overhead(pol, cs) == pytest.approx(want)

    def test_uniform_shift_up_one(self):
        # two classes of size 1, penalty 1 for the single move: cost 1/2
        cs = make_classset([1.0, 1.0], reps=[[0.0, 0.0], [1.0, 1.0]],
                           grid_points=2, baseline=1.0)
        assert cs.penalty[0, 1] == pytest.approx(1.0)
        pol = blocks_policy([(0, 1)], 2)
        assert expected_overhead(pol, cs) == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(7 + seed)
        k = int(rng.integers(2, 7))
        cs = make_classset(
            [float(s) for s in rng.integers(1, 20, size=k)], rng=rng
        )
        pol = random_policy(rng, k)
        got = expected_overhead(pol, cs)
        want = overhead_oracle(
            pol.matrix.tolist(), list(cs.sizes), cs.penalty.tolist()
        )
        assert got == pytest.approx(want, rel=1e-9)

    def test_mass_on_forbidden_move_raises(self):
        cs = make_classset([1.0, 1.0])
        mat = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(InfeasiblePolicyError):
            expected_overhead(MitigationPolicy(mat), cs)


class TestBuildReport:
    def test_report_fields(self):
        cs = make_classset([4.0, 6.0])
        pol = full_merge_policy(2)
        rep = build_report(pol, cs, EntropyMeasure.MINGUESS, 10.0)
        assert rep.entropy_before == pytest.approx(2.5)
        assert rep.entropy_after == pytest.approx(5.5)
        assert rep.expected_overhead <= 10.0
        assert sum(rep.expected_sizes) == pytest.approx(10.0)

    def test_budget_excess_rejected(self):
        cs = make_classset([4.0, 6.0])
        pol = full_merge_policy(2)
        over = expected_overhead(pol, cs)
        with pytest.raises(InfeasiblePolicyError):
            build_report(pol, cs, EntropyMeasure.MINGUESS, over / 2)

    def test_json_schema(self):
        cs = make_classset([4.0, 6.0])
        pol = full_merge_policy(2)
        rep = build_report(pol, cs, EntropyMeasure.SHANNON, math.inf)
        data = policy_to_json(pol, rep)
        text = json.dumps(data)
        back = json.loads(text)
        assert back["k"] == 2
        assert back["deterministic"] is True
        assert back["delta"] is None
        assert back["measure"] == "shannon"
        assert len(back["matrix"]) == 2
        assert back["overhead"] == rep.expected_overhead


class TestSanitizeMatrix:
    def test_clears_dust_and_renormalizes(self):
        raw = np.array([[1.0 - 1e-12, 1e-12], [1e-15, 1.0]])
        cleaned = sanitize_matrix(raw)
        assert cleaned[0, 1] == 0.0
        assert cleaned[0, 0] == 1.0
        assert np.allclose(cleaned.sum(axis=1), 1.0)

    def test_clears_forbidden_triangle(self):
        raw = np.array([[1.0, 0.0], [1e-10, 1.0]])
        cleaned = sanitize_matrix(raw)
        assert cleaned[1, 0] == 0.0

    def test_empty_row_raises(self):
        raw = np.array([[1e-12, 1e-12], [0.0, 1.0]])
        with pytest.raises(InfeasiblePolicyError):
            sanitize_matrix(raw)

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_the_row_loop(self, seed):
        # Solver-like output: rows near sums of one, dust, small negatives,
        # entries above one and tied row maxima.
        rng = np.random.default_rng(seed)
        for k in range(1, 13):
            raw = rng.dirichlet(np.ones(k), size=k)
            raw += rng.choice([0.0, 1e-13, -1e-13, 1e-7], size=(k, k))
            raw[rng.random((k, k)) < 0.2] = 0.5
            raw[0, -1] = 1.0 + 1e-10
            raw[np.arange(k), np.arange(k)] += 1e-3
            assert np.array_equal(
                sanitize_matrix(raw).view(np.int64),
                sanitize_loop_oracle(raw).view(np.int64),
            )
