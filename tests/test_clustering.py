import json
import math

import numpy as np
import pytest

from leakmit.clustering import (
    _complete_linkage_groups,
    _mean_l1_matrix,
    _unique_rows,
    classset_from_json,
    classset_to_json,
    cluster_functions,
    penalty_matrix,
    write_classset,
)
from leakmit.timing import PublicGrid, TimingDataset, TimingFunction, gen_mod_exp

from conftest import BINOMIAL_SIZES
from oracles import greedy_linkage_oracle, linkage_oracle, mean_l1_oracle


def dataset_from_rows(rows, grid_points=None):
    rows = np.asarray(rows, dtype=float)
    if grid_points is None:
        grid_points = tuple(float(i + 1) for i in range(rows.shape[1]))
    return TimingDataset(
        tuple(range(rows.shape[0])), PublicGrid(grid_points), rows
    )


class TestClusterFunctions:
    def test_binomial_class_sizes(self, binomial_classes):
        assert binomial_classes.k == 10
        assert tuple(binomial_classes.sizes) == BINOMIAL_SIZES

    def test_identical_functions_collapse(self):
        ds = dataset_from_rows([[2, 4], [2, 4], [2, 4]])
        cs = cluster_functions(ds, 1e-9)
        assert cs.k == 1
        assert cs.classes[0].size == 3

    def test_threshold_separates_and_merges(self):
        # two groups at mean-L1 distance exactly 5
        ds = dataset_from_rows([[0, 0], [5, 5]])
        assert cluster_functions(ds, 1.0).k == 2
        assert cluster_functions(ds, 10.0).k == 1

    def test_merge_happens_at_the_threshold_itself(self):
        ds = dataset_from_rows([[0, 0], [5, 5]])
        assert cluster_functions(ds, 5.0).k == 1

    def test_members_partition_the_secret_set(self, binomial_dataset,
                                               binomial_classes):
        seen = set()
        for oc in binomial_classes.classes:
            assert not (seen & oc.members)
            seen |= oc.members
        assert seen == set(binomial_dataset.secrets)

    def test_ids_follow_ascending_representative_mean(self, binomial_classes):
        means = [c.representative.mean() for c in binomial_classes.classes]
        assert means == sorted(means)
        assert [c.id for c in binomial_classes.classes] == list(range(10))

    def test_representative_is_member_mean(self):
        ds = dataset_from_rows([[1, 1], [3, 3], [100, 100]])
        cs = cluster_functions(ds, 2.0)
        assert cs.k == 2
        assert list(cs.classes[0].representative.values) == [2.0, 2.0]

    def test_epsilon_must_be_positive(self, binomial_dataset):
        with pytest.raises(ValueError):
            cluster_functions(binomial_dataset, 0.0)

    def test_deterministic(self, binomial_dataset):
        a = cluster_functions(binomial_dataset, 1e-6)
        b = cluster_functions(binomial_dataset, 1e-6)
        assert [c.members for c in a.classes] == [c.members for c in b.classes]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_complete_linkage(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        rows = rng.uniform(0.0, 10.0, size=(n, 3))
        eps = float(rng.uniform(0.5, 4.0))
        ds = dataset_from_rows(rows)
        got = {frozenset(c.members) for c in cluster_functions(ds, eps).classes}
        want = set(linkage_oracle([list(r) for r in rows], eps))
        assert got == want


class TestLinkageTieOrder:
    """The cached-minimum linkage merges in the same order as the cubic
    rescan it replaced, so groups and their member order agree exactly."""

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_tie_heavy_inputs_match_greedy_oracle(self, eps):
        rng = np.random.default_rng(int(eps * 10))
        for _ in range(80):
            n = int(rng.integers(2, 61))
            rows = rng.integers(0, 4, size=(n, int(rng.integers(1, 4))))
            dist = _mean_l1_matrix(rows.astype(float))
            want = greedy_linkage_oracle(dist, eps)
            assert _complete_linkage_groups(dist.copy(), eps) == want, rows

    def test_continuous_input_matches_greedy_oracle(self):
        rows = np.random.default_rng(3).normal(0.0, 1.0, size=(300, 8))
        dist = _mean_l1_matrix(rows)
        want = greedy_linkage_oracle(dist, 1.0)
        assert 1 < len(want) < 300
        assert _complete_linkage_groups(dist.copy(), 1.0) == want

    @pytest.mark.parametrize("n_cols", [1, 5, 17, 50])
    def test_mean_l1_matrix_matches_full_row_loop(self, n_cols):
        # Same per-pair arithmetic as a full row at a time, so equal exactly:
        # linkage ties depend on the last bit.
        rows = np.random.default_rng(n_cols).uniform(0.0, 10.0, size=(40, n_cols))
        dist = _mean_l1_matrix(rows)
        for i in range(40):
            assert np.array_equal(dist[i], np.abs(rows - rows[i]).mean(axis=1))
        for i, j in [(0, 1), (3, 39), (20, 7)]:
            assert dist[i, j] == pytest.approx(mean_l1_oracle(rows[i], rows[j]))

    @pytest.mark.parametrize("signed_zeros", [False, True])
    def test_unique_rows_matches_numpy(self, signed_zeros):
        rng = np.random.default_rng(5)
        times = rng.integers(0, 3, size=(200, 3)).astype(float)
        if signed_zeros:
            times[rng.random(times.shape) < 0.3] = -0.0
        want_uniq, want_inverse = np.unique(times, axis=0, return_inverse=True)
        uniq, inverse = _unique_rows(times)
        assert len(uniq) < len(times)
        assert np.array_equal(uniq, want_uniq)
        assert np.array_equal(inverse, want_inverse)


class TestPenaltyMatrix:
    def test_equal_representatives_cost_nothing(self):
        g = PublicGrid((1.0, 2.0))
        f = TimingFunction(g, np.array([3.0, 3.0]))
        pen = penalty_matrix([f, f], 1.0)
        assert pen[0, 1] == 0.0

    def test_two_point_example(self):
        g = PublicGrid((1.0, 2.0))
        lo = TimingFunction(g, np.array([1.0, 2.0]))
        hi = TimingFunction(g, np.array([2.0, 4.0]))
        pen = penalty_matrix([lo, hi], 1.5)
        assert pen[0, 1] == pytest.approx(1.0)

    def test_mod_exp_penalties_scale_with_class_gap(self, binomial_classes):
        pen = binomial_classes.penalty
        # representatives are w*y, so the clamped mean gap is (j-i)*mean(y)
        base = pen[0, 1]
        for i in range(10):
            for j in range(i, 10):
                assert pen[i, j] == pytest.approx((j - i) * base)

    def test_monotone_along_the_order(self, binomial_classes):
        pen = binomial_classes.penalty
        k = binomial_classes.k
        for i in range(k):
            for j in range(i, k):
                for l in range(j, k):
                    assert pen[i, l] >= pen[i, j] - 1e-12

    def test_downward_moves_are_forbidden(self, binomial_classes):
        pen = binomial_classes.penalty
        for i in range(binomial_classes.k):
            assert pen[i, i] == 0.0
            for j in range(i):
                assert math.isinf(pen[i, j])

    def test_baseline_must_be_positive(self):
        g = PublicGrid((1.0,))
        f = TimingFunction(g, np.array([1.0]))
        with pytest.raises(ValueError):
            penalty_matrix([f], 0.0)

    def test_clamps_pointwise_negative_gaps(self):
        # crossing representatives: only the positive part is charged
        g = PublicGrid((1.0, 2.0))
        a = TimingFunction(g, np.array([0.0, 4.0]))
        b = TimingFunction(g, np.array([3.0, 3.0]))  # higher mean
        pen = penalty_matrix([a, b], 1.0)
        assert pen[0, 1] == pytest.approx(1.5)  # mean(max(0, [3,-1])) = 1.5


class TestJsonRoundTrip:
    def test_round_trip(self, binomial_classes, tmp_path):
        data = classset_to_json(binomial_classes)
        back = classset_from_json(json.loads(json.dumps(data)))
        assert back.k == binomial_classes.k
        assert tuple(back.sizes) == tuple(binomial_classes.sizes)
        for a, b in zip(back.classes, binomial_classes.classes):
            assert a.members == b.members
            assert np.allclose(a.representative.values, b.representative.values)
        got, want = back.penalty, binomial_classes.penalty
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.allclose(got[np.isfinite(got)], want[np.isfinite(want)])

    def test_forbidden_moves_serialize_as_null(self, binomial_classes):
        data = classset_to_json(binomial_classes)
        assert data["penalty"][1][0] is None
        assert data["penalty"][0][1] is not None

    def test_write_classset(self, binomial_classes, tmp_path):
        path = tmp_path / "classes.json"
        write_classset(binomial_classes, path)
        data = json.loads(path.read_text())
        assert data["total_size"] == 1023

    def test_mean_l1_matches_oracle(self):
        rng = np.random.default_rng(11)
        ds = gen_mod_exp(4, 1.0, 0.5, seed=2)
        cs = cluster_functions(ds, 1e-9)
        reps = [c.representative for c in cs.classes]
        a, b = reps[0], reps[-1]
        got = float(np.abs(a.values - b.values).mean())
        assert got == pytest.approx(mean_l1_oracle(a.values, b.values))
