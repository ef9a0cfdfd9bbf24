import numpy as np
import pytest

from leakmit.baselines import (
    BucketSet,
    apply_buckets,
    double_scheme,
    fit_buckets,
)
from leakmit.clustering import cluster_functions
from leakmit.timing import PublicGrid, TimingDataset, gen_mod_exp

from oracles import bucket_dp_loop_oracle, bucket_oracle


def dataset_from_rows(rows):
    rows = np.asarray(rows, dtype=float)
    grid = PublicGrid(tuple(float(i + 1) for i in range(rows.shape[1])))
    return TimingDataset(tuple(range(rows.shape[0])), grid, rows)


class TestDoubleScheme:
    def test_popcount_groups_on_mod_exp(self, binomial_dataset):
        _, after = double_scheme(binomial_dataset)
        assert after.k == 4
        groups = [
            sorted({int(m).bit_count() for m in oc.members})
            for oc in after.classes
        ]
        assert groups == [[1], [2, 3], [4, 5, 6, 7], [8, 9, 10]]

    def test_never_decreases_any_time(self, binomial_dataset):
        mitigated, _ = double_scheme(binomial_dataset)
        assert np.all(mitigated.times >= binomial_dataset.times)

    @pytest.mark.parametrize("t, level", [
        (1.0, 1.0), (2.0, 3.0), (5.0, 7.0), (15.0, 15.0), (15.1, 31.0),
    ])
    def test_release_level_is_the_first_checkpoint_at_or_above(self, t, level):
        # checkpoints 2**N - 1 quanta: 1, 3, 7, 15, 31, ...
        mitigated, _ = double_scheme(dataset_from_rows([[t]]), quantum=1.0)
        assert mitigated.times[0, 0] == level

    def test_quantized_to_doubling_levels(self):
        ds = dataset_from_rows([[1.0, 5.0], [2.0, 9.0]])
        mitigated, _ = double_scheme(ds, quantum=1.0)
        levels = {1.0, 3.0, 7.0, 15.0}
        assert set(mitigated.times.ravel()) <= levels

    def test_idempotent_for_a_fixed_quantum(self):
        ds = dataset_from_rows([[1.0, 5.0], [2.0, 9.0], [4.0, 4.0]])
        once, _ = double_scheme(ds, quantum=1.0)
        twice, _ = double_scheme(once, quantum=1.0)
        assert np.array_equal(once.times, twice.times)

    def test_idempotent_with_default_quantum(self, binomial_dataset):
        once, _ = double_scheme(binomial_dataset)
        twice, _ = double_scheme(once)
        assert np.array_equal(once.times, twice.times)

    def test_zero_time_rejected(self):
        ds = dataset_from_rows([[0.0, 1.0]])
        with pytest.raises(ValueError):
            double_scheme(ds)

    def test_bad_quantum_rejected(self, binomial_dataset):
        with pytest.raises(ValueError):
            double_scheme(binomial_dataset, quantum=0.0)


class TestFitBuckets:
    def test_three_values_two_buckets(self):
        buckets = fit_buckets([1.0, 2.0, 10.0], 2)
        assert buckets.boundaries == (2.0, 10.0)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            times = rng.integers(1, 30, size=12).astype(float)
            n = int(rng.integers(1, 5))
            got = fit_buckets(times, n)
            got_delay = sum(
                min(b for b in got.boundaries if b >= t) - t for t in times
            )
            want_delay, _ = bucket_oracle(times, n)
            assert got_delay == pytest.approx(want_delay)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_loop_dp_on_ties(self, seed):
        # Few distinct values on a coarse lattice: many split points tie, and
        # the earliest best one must win, as in the one-at-a-time loop.
        rng = np.random.default_rng(seed)
        for _ in range(25):
            times = rng.integers(0, 5, size=int(rng.integers(1, 40))) * 0.25
            for n in range(1, np.unique(times).size + 1):
                got = fit_buckets(times, n).boundaries
                assert got == bucket_dp_loop_oracle(times, n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_loop_dp_on_thousands_of_values(self, n):
        # The first and last buckets are one array each: check them over
        # about 1 200 distinct values, ties from a half-unit lattice among them.
        rng = np.random.default_rng(40 + n)
        times = np.concatenate(
            [rng.uniform(0.0, 1e3, 900), rng.integers(0, 400, 600) * 0.5]
        )
        assert np.unique(times).size > 1000
        assert fit_buckets(times, n).boundaries == bucket_dp_loop_oracle(times, n)

    def test_enough_buckets_mean_zero_delay(self):
        times = [4.0, 7.0, 7.0, 9.0]
        buckets = fit_buckets(times, 3)
        assert buckets.boundaries == (4.0, 7.0, 9.0)

    def test_single_bucket_sits_at_the_maximum(self):
        times = [1.0, 5.0, 3.0]
        buckets = fit_buckets(times, 1)
        assert buckets.boundaries == (5.0,)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            fit_buckets([1.0, 2.0], 3)
        with pytest.raises(ValueError):
            fit_buckets([], 1)

    def test_boundaries_strictly_increasing(self):
        with pytest.raises(ValueError):
            BucketSet((2.0, 2.0))


class TestApplyBuckets:
    def test_snaps_up_to_the_next_boundary(self):
        ds = dataset_from_rows([[1.0, 2.0], [3.0, 10.0]])
        mitigated, _ = apply_buckets(ds, BucketSet((2.0, 10.0)))
        assert mitigated.times.tolist() == [[2.0, 2.0], [10.0, 10.0]]

    def test_identity_when_boundaries_cover_every_value(self):
        ds = dataset_from_rows([[1.0, 2.0], [3.0, 10.0]])
        mitigated, _ = apply_buckets(ds, BucketSet((1.0, 2.0, 3.0, 10.0)))
        assert np.array_equal(mitigated.times, ds.times)

    def test_at_most_n_distinct_values_anywhere(self, binomial_dataset):
        buckets = fit_buckets(binomial_dataset.times.ravel(), 3)
        mitigated, _ = apply_buckets(binomial_dataset, buckets)
        assert len(set(mitigated.times.ravel())) <= 3
        assert np.all(mitigated.times >= binomial_dataset.times)

    def test_value_above_top_boundary_rejected(self):
        ds = dataset_from_rows([[1.0, 11.0]])
        with pytest.raises(ValueError):
            apply_buckets(ds, BucketSet((2.0, 10.0)))

    def test_function_structure_leaks_through_scalar_buckets(self):
        # scalar quantization with 2 buckets cannot collapse the dataset
        # to 2 functional classes; per-point patterns stay distinguishable
        ds = gen_mod_exp(10, 1.0, 0.0, seed=0)
        buckets = fit_buckets(ds.times.ravel(), 2)
        mitigated, after = apply_buckets(ds, buckets)
        assert after.k > 2
