import math

import numpy as np
import pytest

from leakmit.entropy import MEASURES, EntropyMeasure, entropy, post_policy_entropy
from leakmit.policy import expected_overhead
from leakmit.deterministic import _block_tables, brute_force_det, synthesize_det

from conftest import make_classset, random_classset
from oracles import (
    block_tables_loop_oracle,
    det_best_oracle,
    det_dp_loop_oracle,
    dp_tables_csv_oracle,
    upward_map_oracle,
)

ALL_MEASURES = list(EntropyMeasure)


def tiny_instance():
    """Three classes of sizes 1, 4, 2 with penalty[i][j] = j - i."""
    return make_classset(
        [1.0, 4.0, 2.0],
        reps=[[1.0] * 4, [2.0] * 4, [3.0] * 4],
        baseline=1.0,
    )


class TestSmallCases:
    def test_single_class_returns_identity(self):
        cs = make_classset([5.0])
        pol, tables = synthesize_det(cs, EntropyMeasure.MINGUESS, 1.0)
        assert np.array_equal(pol.matrix, np.eye(1))

    def test_zero_budget_returns_identity(self):
        cs = tiny_instance()
        for measure in ALL_MEASURES:
            pol, _ = synthesize_det(cs, measure, 0.0)
            assert np.array_equal(pol.matrix, np.eye(3))
            assert post_policy_entropy(pol, cs, measure) == pytest.approx(
                entropy(cs.sizes, measure)
            )

    def test_unbounded_budget_merges_everything(self):
        cs = tiny_instance()
        pol, _ = synthesize_det(cs, EntropyMeasure.MINGUESS, math.inf)
        value = post_policy_entropy(pol, cs, EntropyMeasure.MINGUESS)
        assert value == pytest.approx((7.0 + 1.0) / 2.0)

    def test_tiny_budget_instance_matches_enumeration(self):
        cs = tiny_instance()
        pol, _ = synthesize_det(cs, EntropyMeasure.MINGUESS, 0.4)
        got = post_policy_entropy(pol, cs, EntropyMeasure.MINGUESS)
        want, blocks = det_best_oracle(
            list(cs.sizes), cs.penalty.tolist(), "minguess", 0.4
        )
        assert got == pytest.approx(want)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            synthesize_det(tiny_instance(), EntropyMeasure.SHANNON, -0.1)
        with pytest.raises(ValueError):
            brute_force_det(tiny_instance(), EntropyMeasure.SHANNON, -0.1)

    def test_brute_force_size_guard(self):
        cs = make_classset([1.0] * 13)
        with pytest.raises(ValueError):
            brute_force_det(cs, EntropyMeasure.SHANNON, 1.0)


class TestExactness:
    @pytest.mark.parametrize("seed", range(25))
    def test_dp_equals_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 8))
        cs = random_classset(rng, k)
        delta = float(rng.choice([0.0, 0.1, 0.25, 0.5, 1.0]))
        for measure in ALL_MEASURES:
            pol_dp, _ = synthesize_det(cs, measure, delta, scan_all_r=True)
            pol_bf = brute_force_det(cs, measure, delta)
            v_dp = post_policy_entropy(pol_dp, cs, measure)
            v_bf = post_policy_entropy(pol_bf, cs, measure)
            assert v_dp == v_bf  # shared block tables make this exact

    @pytest.mark.parametrize("seed", range(10))
    def test_dp_matches_independent_enumeration(self, seed):
        """Third route: plain-loop partition scan, no shared code."""
        rng = np.random.default_rng(500 + seed)
        k = int(rng.integers(2, 7))
        cs = random_classset(rng, k)
        delta = float(rng.choice([0.05, 0.2, 0.6]))
        for measure in ALL_MEASURES:
            pol, _ = synthesize_det(cs, measure, delta, scan_all_r=True)
            got = post_policy_entropy(pol, cs, measure)
            want, _ = det_best_oracle(
                list(cs.sizes), cs.penalty.tolist(), measure.value, delta
            )
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)

    def test_larger_k_still_exact(self):
        rng = np.random.default_rng(77)
        cs = random_classset(rng, 10)
        for measure in ALL_MEASURES:
            pol_dp, _ = synthesize_det(cs, measure, 0.3, scan_all_r=True)
            pol_bf = brute_force_det(cs, measure, 0.3)
            assert post_policy_entropy(pol_dp, cs, measure) == post_policy_entropy(
                pol_bf, cs, measure
            )


class TestReturnedPolicy:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_and_within_budget(self, seed):
        rng = np.random.default_rng(200 + seed)
        cs = random_classset(rng, int(rng.integers(2, 9)))
        delta = float(rng.uniform(0.0, 1.0))
        for measure in ALL_MEASURES:
            pol, _ = synthesize_det(cs, measure, delta, scan_all_r=True)
            assert pol.k == cs.k  # the constructor checked the matrix
            assert pol.deterministic
            assert expected_overhead(pol, cs) <= delta + 1e-9

    def test_entropy_monotone_in_budget(self, binomial_classes):
        grid = [0.05 * j for j in range(14)]
        for measure in ALL_MEASURES:
            prev = -math.inf
            for delta in grid:
                pol, _ = synthesize_det(
                    binomial_classes, measure, delta, scan_all_r=True
                )
                value = post_policy_entropy(pol, binomial_classes, measure)
                assert value >= prev - 1e-12
                prev = value

    def test_early_stop_uses_fewest_blocks(self):
        cs = tiny_instance()
        # full merge affordable: defaults must pick the single block
        pol, tables = synthesize_det(cs, EntropyMeasure.MINGUESS, math.inf)
        assert np.count_nonzero(pol.matrix.sum(axis=0)) == 1
        # zero budget: only the identity (k blocks) is feasible
        pol0, _ = synthesize_det(cs, EntropyMeasure.MINGUESS, 0.0)
        assert np.count_nonzero(pol0.matrix.sum(axis=0)) == 3

    def test_scan_all_r_false_is_rejected(self):
        with pytest.raises(ValueError, match="every block count"):
            synthesize_det(tiny_instance(), EntropyMeasure.SHANNON, 0.5,
                           scan_all_r=False)


class TestTables:
    def test_table_shapes_and_padding(self):
        cs = tiny_instance()
        _, tables = synthesize_det(cs, EntropyMeasure.SHANNON, 0.5,
                                   scan_all_r=True)
        assert tables.value.shape == (4, 4)
        assert tables.penalty.shape == (4, 4)

    def test_to_csv(self, tmp_path):
        cs = tiny_instance()
        _, tables = synthesize_det(cs, EntropyMeasure.GUESSING, 0.5)
        path = tmp_path / "tables.csv"
        tables.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("i,value_r1")
        assert len(lines) == 4  # header + one row per prefix length

    @pytest.mark.parametrize("seed", range(6))
    def test_to_csv_bytes_match_the_row_loop(self, tmp_path, seed):
        # Budgets from none to ample, so the tables hold -inf, inf and finite
        # values side by side.
        rng = np.random.default_rng(seed)
        cs = random_classset(rng, int(rng.integers(1, 9)))
        for delta in (0.0, 0.2, 5.0):
            for measure in ALL_MEASURES:
                _, tables = synthesize_det(cs, measure, delta, scan_all_r=True)
                tables.to_csv(tmp_path / "a.csv")
                dp_tables_csv_oracle(tables, tmp_path / "b.csv")
                assert (tmp_path / "a.csv").read_bytes() == (
                    tmp_path / "b.csv"
                ).read_bytes()


    @pytest.mark.parametrize("seed", range(8))
    def test_value_is_minus_inf_exactly_where_penalty_is_inf(self, seed):
        # A state reports a value only when one of its partitions fits the
        # budget, one block (r = 1) included.
        rng = np.random.default_rng(seed)
        cs = random_classset(rng, int(rng.integers(1, 10)))
        for delta in (0.0, *rng.uniform(0.0, 0.6, size=4), math.inf):
            for measure in ALL_MEASURES:
                _, tables = synthesize_det(cs, measure, delta)
                assert np.array_equal(
                    np.isneginf(tables.value), np.isposinf(tables.penalty)
                )


class TestBlockTables:
    @pytest.mark.parametrize("seed", range(5))
    def test_raw_is_the_measure_term_of_the_block_size(self, seed):
        cs = random_classset(np.random.default_rng(seed), 6)
        for measure in ALL_MEASURES:
            _, block_raw, total = _block_tables(cs, measure)
            term = MEASURES[measure].term
            assert total == cs.sizes.sum()
            for lo in range(6):
                for hi in range(lo, 6):
                    assert block_raw[lo, hi] == term(cs.sizes[lo : hi + 1].sum())
            assert np.all(np.tril(block_raw, -1) == 0.0)


def bit_equal(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestFrozenLoopDp:
    """The recurrence seeded by the empty partition and the cumulative-sum
    block tables reproduce the loop versions bit for bit."""

    @pytest.mark.parametrize("seed", range(16))
    def test_bit_identical_to_the_loop_dp(self, seed):
        # 15 class counts x 3 measures x 3 budgets: 135 solves per seed, on
        # all-equal, tied, moderate and large sizes in turn.
        rng = np.random.default_rng(seed)
        size_hi = (1, 2, 50, 5000)[seed % 4]
        for k in range(1, 16):
            cs = random_classset(rng, k, size_hi=size_hi)
            for measure in ALL_MEASURES:
                got = _block_tables(cs, measure)
                want = block_tables_loop_oracle(cs, measure)
                assert bit_equal(got[0], want[0]) and bit_equal(got[1], want[1])
                assert got[2] == want[2]
                for delta in (0.0, float(rng.uniform(0.0, 0.6)), math.inf):
                    policy, tables = synthesize_det(cs, measure, delta)
                    ref_policy, value, penalty = det_dp_loop_oracle(cs, measure, delta)
                    assert np.array_equal(policy.matrix, ref_policy.matrix)
                    assert bit_equal(tables.value, value)
                    assert bit_equal(tables.penalty, penalty)


class TestRestrictedSet:
    """The DP is exact over contiguous merges only: every upward map is a
    candidate for the oracle, so the DP can never beat it and can lose."""

    @pytest.mark.parametrize("seed", range(12))
    def test_dp_never_beats_the_best_upward_map(self, seed):
        rng = np.random.default_rng(seed)
        cs = random_classset(rng, int(rng.integers(1, 7)))
        sizes = cs.sizes.tolist()
        penalty = cs.penalty.tolist()
        for delta in (0.0, float(rng.uniform(0.0, 0.6)), math.inf):
            for measure in ALL_MEASURES:
                policy, _ = synthesize_det(cs, measure, delta)
                best, _ = upward_map_oracle(sizes, penalty, measure.value, delta)
                assert post_policy_entropy(policy, cs, measure) <= best + 1e-12

    def test_a_non_contiguous_map_beats_every_contiguous_merge(self):
        # Lifting class 0 over class 1 onto class 2 fits the budget; merging
        # class 1 upward does not, so the best contiguous merge leaves a
        # singleton class behind.
        cs = make_classset([1.0, 100.0, 1.0], reps=[[0.5] * 4, [1.5] * 4, [2.5] * 4])
        policy, _ = synthesize_det(cs, EntropyMeasure.MINGUESS, 0.03)
        assert post_policy_entropy(policy, cs, EntropyMeasure.MINGUESS) == 1.0
        best, best_map = upward_map_oracle(
            cs.sizes.tolist(), cs.penalty.tolist(), "minguess", 0.03
        )
        assert (best, best_map) == (1.5, (2, 1, 2))
