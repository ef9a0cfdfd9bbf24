import math

import numpy as np
import pytest

from leakmit.entropy import EntropyMeasure, entropy, post_policy_entropy
from leakmit.policy import expected_overhead, validate
from leakmit.deterministic import brute_force_det, synthesize_det

from conftest import make_classset, random_classset
from oracles import det_best_oracle

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
            assert validate(pol, cs) == []
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


class TestTables:
    def test_table_shapes_and_padding(self):
        cs = tiny_instance()
        _, tables = synthesize_det(cs, EntropyMeasure.SHANNON, 0.5,
                                   scan_all_r=True)
        assert tables.value.shape == (4, 4)
        assert tables.penalty.shape == (4, 4)
        assert tables.measure is EntropyMeasure.SHANNON
        assert tables.delta == 0.5

    def test_to_csv(self, tmp_path):
        cs = tiny_instance()
        _, tables = synthesize_det(cs, EntropyMeasure.GUESSING, 0.5)
        path = tmp_path / "tables.csv"
        tables.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("i,value_r1")
        assert len(lines) == 4  # header + one row per prefix length
