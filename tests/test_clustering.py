import json
import math

import numpy as np
import pytest

from leakmit import clustering
from leakmit.clustering import (
    ObservationClass,
    ObservationClassSet,
    _complete_linkage_groups,
    _linkage_groups,
    _mean_l1_matrix,
    _unique_rows,
    classset_to_json,
    cluster_functions,
    penalty_matrix,
)
from leakmit.timing import PublicGrid, TimingDataset, gen_branch_loop, gen_mod_exp

from conftest import BINOMIAL_SIZES
from oracles import (
    greedy_linkage_oracle,
    linkage_oracle,
    mean_l1_oracle,
    penalty_loop_oracle,
)


def dataset_from_rows(rows, grid_points=None):
    rows = np.asarray(rows, dtype=float)
    if grid_points is None:
        grid_points = tuple(float(i + 1) for i in range(rows.shape[1]))
    return TimingDataset(
        tuple(range(rows.shape[0])), PublicGrid(grid_points), rows
    )


def tie_heavy_rows(seed):
    """80 small matrices of integer times 0..3, so many distances tie."""
    rng = np.random.default_rng(seed)
    for _ in range(80):
        n = int(rng.integers(2, 61))
        yield rng.integers(0, 4, size=(n, int(rng.integers(1, 4)))).astype(float)


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
        class_of = binomial_classes.class_of()
        assert all(i == int(s).bit_count() - 1 for s, i in class_of.items())

    def test_representative_is_member_mean(self):
        ds = dataset_from_rows([[1, 1], [3, 3], [100, 100]])
        cs = cluster_functions(ds, 2.0)
        assert cs.k == 2
        assert list(cs.classes[0].representative) == [2.0, 2.0]

    def test_class_arrays_are_read_only_rows_of_one_matrix(self, grouped_classes):
        reps = grouped_classes.representatives
        assert reps.shape == (grouped_classes.k, 50)
        for i, c in enumerate(grouped_classes.classes):
            assert np.shares_memory(c.representative, reps)
            assert np.array_equal(c.representative, reps[i])
        assert list(grouped_classes.sizes) == [5.0, 5.0, 5.0, 10.0]
        first = grouped_classes.classes[0].representative
        for arr in (reps, grouped_classes.sizes, first):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

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
        for rows in tie_heavy_rows(int(eps * 10)):
            dist = _mean_l1_matrix(rows)
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


class TestBlockedLinkage:
    """Clustering block by block, split at wide mean gaps and with tight
    blocks taken whole, gives the partition of one greedy linkage over the
    full distance matrix."""

    @staticmethod
    def assert_exact(rows, eps):
        rows = np.asarray(rows, dtype=float)
        got = {frozenset(int(i) for i in g) for g in _linkage_groups(rows, eps)}
        want = greedy_linkage_oracle(_mean_l1_matrix(rows), eps)
        assert got == {frozenset(g) for g in want}, (rows, eps)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0, 3.0])
    def test_tie_heavy_inputs(self, eps):
        for rows in tie_heavy_rows(int(eps * 10)):
            self.assert_exact(rows, eps)
            self.assert_exact(_unique_rows(rows)[0], eps)

    @pytest.mark.parametrize("sigma", [0.02, 0.1, 0.4])
    def test_noisy_clusters(self, sigma):
        rng = np.random.default_rng(int(sigma * 100))
        centres = rng.uniform(0.0, 10.0, size=(6, 8))
        rows = np.repeat(centres, 25, axis=0)
        rows = np.clip(rows + rng.normal(0.0, sigma, rows.shape), 0.0, None)
        rows = rows[rng.permutation(len(rows))]
        for eps in (0.05, 0.3, 1.0, 3.0):
            self.assert_exact(rows, eps)

    @pytest.mark.parametrize("scale", [1 - 1e-12, 1.0, 1 + 1e-12])
    def test_mean_gaps_at_epsilon(self, scale):
        rng = np.random.default_rng(2)
        for _ in range(40):
            eps = float(rng.uniform(0.1, 5.0))
            base = rng.uniform(0.0, 20.0, size=int(rng.integers(1, 9)))
            steps = np.arange(int(rng.integers(2, 6)))[:, None] * (eps * scale)
            rows = base + steps
            self.assert_exact(rows[rng.permutation(len(rows))], eps)

    def test_epsilon_equal_to_a_computed_distance(self):
        # The pair is exactly at the tolerance, so it merges, and rounding
        # can leave its computed means a hair more than eps apart.
        rng = np.random.default_rng(7)
        for _ in range(300):
            x = rng.uniform(0.0, 100.0, size=int(rng.integers(2, 40)))
            rows = np.array([x, x + rng.uniform(0.0, 2.0, size=x.shape)])
            self.assert_exact(rows, float(_mean_l1_matrix(rows)[0, 1]))

    @pytest.mark.parametrize("eps", [1.0, 1.5, 2.0, 2.5])
    def test_radius_at_half_epsilon(self, eps):
        # Row 0 is the block's first row and lies between the others, so the
        # block's radius is eps / 2 at eps = 2 (and at eps = 1 in 2-D).
        self.assert_exact([[1.0], [0.0], [2.0]], eps)
        self.assert_exact([[1.0, 1.0], [0.0, 1.0], [1.0, 2.0]], eps)

    def test_radius_at_half_epsilon_after_rounding(self):
        # Rows r0 + d and r0 - d around the first row r0: at eps twice the
        # larger computed radius, rounding can put the outer pair a hair
        # above eps, so the radius test must keep a margin.
        rng = np.random.default_rng(0)
        for _ in range(2000):
            r0 = rng.uniform(10.0, 20.0, size=int(rng.integers(2, 12)))
            d = rng.uniform(0.0, 3.0, size=r0.shape)
            rows = np.array([r0, r0 + d, r0 - d])
            dist = _mean_l1_matrix(rows)
            self.assert_exact(rows, 2 * max(dist[0, 1], dist[0, 2]))

    def test_single_row_blocks(self):
        rows = np.arange(12.0)[::-1, None] * 10.0 + [0.0, 1.0, 2.0]
        for eps in (1e-9, 1.0, 9.9, 10.0, 25.0):
            self.assert_exact(rows, eps)

    @pytest.mark.parametrize("eps", [1e-9, 1.0, math.inf])
    def test_one_row(self, eps):
        self.assert_exact([[3.0, 4.0]], eps)

    def test_infinite_epsilon(self):
        rows = np.random.default_rng(4).uniform(0.0, 1e6, size=(30, 5))
        assert len(_linkage_groups(rows, math.inf)) == 1
        self.assert_exact(rows, math.inf)

    def test_row_sums_that_overflow(self):
        # Means of the last two rows overflow to inf while every distance
        # stays finite, so those rows must not be cut from the rest.
        v = np.finfo(float).max / 4
        rows = np.array([
            [v, v, v, 0.97 * v],
            [v, v, v, 1.01 * v],
            [v, v, v, 0.99 * v],
            [v, v, v, 1.03 * v],
            [0.5 * v, 0.5 * v, 0.5 * v, 0.5 * v],
        ])
        with np.errstate(over="ignore"):
            assert not np.isfinite(rows.mean(axis=1)[[1, 3]]).any()
        for eps in (0.004 * v, 0.01 * v, 0.03 * v, 0.5 * v, v):
            self.assert_exact(rows, eps)

    def test_tight_input_never_builds_the_pairwise_matrix(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("built the pairwise distance matrix")

        monkeypatch.setattr(clustering, "_mean_l1_matrix", refuse)
        ds = gen_branch_loop(
            (20, 20, 20, 40), (1.0, 2.0, 3.0, 4.0), noise_sigma=0.05, seed=1
        )
        cs = cluster_functions(ds, 1.0)
        bounds = [0, 20, 40, 60, 100]
        assert [c.members for c in cs.classes] == [
            frozenset(range(a, b)) for a, b in zip(bounds, bounds[1:])
        ]


class TestPenaltyMatrix:
    def test_equal_representatives_cost_nothing(self):
        pen = penalty_matrix(np.array([[3.0, 3.0], [3.0, 3.0]]), 1.0)
        assert pen[0, 1] == 0.0

    def test_two_point_example(self):
        pen = penalty_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]), 1.5)
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
        with pytest.raises(ValueError):
            penalty_matrix(np.array([[1.0]]), 0.0)

    @pytest.mark.parametrize("n_points", [1, 4, 8, 50, 137])
    def test_matches_pair_loop_bit_for_bit(self, n_points):
        # crossing, tied and noisy representatives, on odd-sized grids
        rng = np.random.default_rng(n_points)
        values = rng.uniform(0.0, 10.0, size=(60, n_points))
        values[10:20] = values[0]
        values[rng.random(values.shape) < 0.2] = 0.0
        for baseline in (1.0, 3.7):
            want = penalty_loop_oracle(values, baseline)
            assert np.array_equal(penalty_matrix(values, baseline), want)

    def test_single_class_is_zero(self):
        f = np.array([[1.0, 2.0]])
        assert np.array_equal(penalty_matrix(f, 2.0), np.zeros((1, 1)))

    def test_clamps_pointwise_negative_gaps(self):
        # crossing representatives: only the positive part is charged
        a = [0.0, 4.0]
        b = [3.0, 3.0]  # higher mean
        pen = penalty_matrix(np.array([a, b]), 1.0)
        assert pen[0, 1] == pytest.approx(1.5)  # mean(max(0, [3,-1])) = 1.5


class TestJsonRoundTrip:
    """``classes.json`` is a report, so nothing reads it back as a class set:
    its text must hold the whole set, and every class set, whatever built
    it, passes the constructor's checks."""

    def test_round_trip(self, binomial_classes):
        cs = binomial_classes
        data = json.loads(json.dumps(classset_to_json(cs)))
        assert data["grid"] == [float(p) for p in cs.grid.points]
        assert data["total_size"] == cs.total_size
        assert [c["id"] for c in data["classes"]] == list(range(cs.k))
        for written, c in zip(data["classes"], cs.classes):
            assert written["size"] == c.size
            assert written["members"] == sorted(c.members)
            # the floats come back bit for bit
            rep = np.array(written["representative"], dtype=float)
            assert rep.tobytes() == c.representative.tobytes()
        assert len(data["penalty"]) == cs.k
        for i, row in enumerate(data["penalty"]):
            assert [v is None for v in row] == [j < i for j in range(cs.k)]
            upper = np.array(row[i:], dtype=float)
            assert upper.tobytes() == cs.penalty[i, i:].tobytes()

    def test_forbidden_moves_serialize_as_null(self, binomial_classes):
        data = classset_to_json(binomial_classes)
        assert data["penalty"][1][0] is None
        assert data["penalty"][0][1] is not None

    @staticmethod
    def with_class(cs, i, representative, members):
        """``cs`` with class i replaced, through the constructor."""
        classes = list(cs.classes)
        classes[i] = ObservationClass(representative, frozenset(members))
        return ObservationClassSet(cs.grid, tuple(classes), cs.penalty)

    def test_empty_class_rejected(self, binomial_classes):
        rep = binomial_classes.representatives[2]
        with pytest.raises(ValueError, match=r"classes \[2\] have no members"):
            self.with_class(binomial_classes, 2, rep, ())

    MALFORMED = {
        "shared_member": "more than one observation class",
        "nan": "finite",
        "inf": "finite",
        "negative": "non-negative",
        "short": "align with the public grid",
    }

    @pytest.mark.parametrize("fault", MALFORMED)
    def test_malformed_class_rejected(self, binomial_classes, fault):
        first, second = binomial_classes.classes[:2]
        rep, members = second.representative.copy(), set(second.members)
        if fault == "shared_member":
            members.add(min(first.members))
        elif fault == "short":
            rep = rep[:-1]
        else:
            rep[3] = {"nan": math.nan, "inf": math.inf, "negative": -1.0}[fault]
        with pytest.raises(ValueError, match=self.MALFORMED[fault]):
            self.with_class(binomial_classes, 1, rep, members)

    BAD_PENALTIES = {
        "nan_diagonal": ((1, 1), math.nan, "diagonal must be exactly 0"),
        "nonzero_diagonal": ((0, 0), 1e-300, "diagonal must be exactly 0"),
        "nan_above": ((0, 1), math.nan, "above the diagonal must be finite"),
        "inf_above": ((0, 2), math.inf, "above the diagonal must be finite"),
        "negative_above": ((0, 1), -1.0, "above the diagonal must be finite"),
        "finite_below": ((1, 0), 0.5, r"below the diagonal must be \+inf"),
        "zero_below": ((2, 1), 0.0, r"below the diagonal must be \+inf"),
        "nan_below": ((2, 0), math.nan, r"below the diagonal must be \+inf"),
        "minus_inf_below": ((1, 0), -math.inf, r"below the diagonal must be \+inf"),
    }

    @pytest.mark.parametrize("fault", BAD_PENALTIES)
    def test_malformed_penalty_rejected(self, binomial_classes, fault):
        (i, j), value, message = self.BAD_PENALTIES[fault]
        pen = binomial_classes.penalty.copy()
        pen[i, j] = value
        with pytest.raises(ValueError, match=message):
            ObservationClassSet(binomial_classes.grid, binomial_classes.classes, pen)

    def test_overflowing_times_fail_at_the_class_set(self):
        # The total time overflows, so a finite gap over an infinite baseline
        # would price a move at nan: the dataset is refused before any class
        # set is built from it.
        with pytest.raises(ValueError, match="sum to a finite total"):
            dataset_from_rows([[0.0, 0.0], [1.7e308, 1.7e308], [1.75e308] * 2])

    def test_no_classes_rejected(self, binomial_classes):
        with pytest.raises(ValueError, match="at least one class"):
            ObservationClassSet(binomial_classes.grid, (), np.zeros((0, 0)))

    def test_penalty_shape_rejected(self, binomial_classes):
        pen = binomial_classes.penalty[:-1, :-1]
        with pytest.raises(ValueError, match="k x k"):
            ObservationClassSet(binomial_classes.grid, binomial_classes.classes, pen)

    def test_mean_l1_matches_oracle(self):
        rng = np.random.default_rng(11)
        ds = gen_mod_exp(4, 1.0, 0.5, seed=2)
        cs = cluster_functions(ds, 1e-9)
        reps = [c.representative for c in cs.classes]
        a, b = reps[0], reps[-1]
        got = float(np.abs(a - b).mean())
        assert got == pytest.approx(mean_l1_oracle(a, b))
