import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakmit.entropy import MEASURES, EntropyMeasure, entropy, post_policy_entropy
from leakmit.policy import blocks_policy, full_merge_policy, identity_policy

from conftest import BINOMIAL_SIZES, make_classset
from oracles import guessing_oracle, minguess_oracle, shannon_oracle

sizes_vectors = st.lists(
    st.floats(min_value=0.0, max_value=500.0),
    min_size=1,
    max_size=10,
).filter(lambda v: sum(v) > 0)


class TestKnownValues:
    def test_binomial_shannon(self):
        assert entropy(BINOMIAL_SIZES, EntropyMeasure.SHANNON) == pytest.approx(
            7.300700627228947, abs=1e-12
        )

    def test_binomial_guessing(self):
        # 184755 / 2046 + 0.5, the sum of squared binomial coefficients
        assert entropy(BINOMIAL_SIZES, EntropyMeasure.GUESSING) == pytest.approx(
            90.80058651026393, abs=1e-12
        )

    def test_binomial_minguess(self):
        assert entropy(BINOMIAL_SIZES, EntropyMeasure.MINGUESS) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 7, 1023])
    def test_single_class_closed_forms(self, n):
        assert entropy([n], EntropyMeasure.SHANNON) == pytest.approx(math.log2(n))
        assert entropy([n], EntropyMeasure.GUESSING) == pytest.approx((n + 1) / 2)
        assert entropy([n], EntropyMeasure.MINGUESS) == pytest.approx((n + 1) / 2)

    def test_zero_sized_classes_are_skipped(self):
        with_zeros = [0.0, 10.0, 0.0, 45.0, 0.0]
        assert entropy(with_zeros, EntropyMeasure.MINGUESS) == entropy(
            [10.0, 45.0], EntropyMeasure.MINGUESS
        )
        assert entropy(with_zeros, EntropyMeasure.SHANNON) == pytest.approx(
            entropy([10.0, 45.0], EntropyMeasure.SHANNON)
        )


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entropy([], EntropyMeasure.SHANNON)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy([3.0, -1.0], EntropyMeasure.GUESSING)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("measure", list(EntropyMeasure))
    def test_non_finite_rejected(self, measure, bad):
        with pytest.raises(ValueError, match="finite"):
            entropy([bad, 1.0], measure)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            entropy([0.0, 0.0], EntropyMeasure.MINGUESS)

    def test_measure_from_string(self):
        assert EntropyMeasure("shannon") is EntropyMeasure.SHANNON
        assert EntropyMeasure("guessing") is EntropyMeasure.GUESSING
        assert EntropyMeasure("minguess") is EntropyMeasure.MINGUESS


class TestAgainstOracles:
    @given(sizes_vectors)
    @settings(max_examples=100, deadline=None)
    def test_shannon(self, sizes):
        assert entropy(sizes, EntropyMeasure.SHANNON) == pytest.approx(
            shannon_oracle(sizes), rel=1e-9, abs=1e-9
        )

    @given(sizes_vectors)
    @settings(max_examples=100, deadline=None)
    def test_guessing(self, sizes):
        assert entropy(sizes, EntropyMeasure.GUESSING) == pytest.approx(
            guessing_oracle(sizes), rel=1e-9
        )

    @given(sizes_vectors)
    @settings(max_examples=100, deadline=None)
    def test_minguess(self, sizes):
        assert entropy(sizes, EntropyMeasure.MINGUESS) == pytest.approx(
            minguess_oracle(sizes)
        )


class TestMeasureTable:
    @pytest.mark.parametrize(
        "measure", [EntropyMeasure.SHANNON, EntropyMeasure.GUESSING]
    )
    @pytest.mark.parametrize("c", [0.25, 1.0, 3.0, 17.5, 400.0])
    def test_slope_matches_central_difference(self, measure, c):
        row = MEASURES[measure]
        h = 1e-4 * c
        want = (row.term(c + h) - row.term(c - h)) / (2.0 * h)
        got = row.slope(np.array([c]))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(want, rel=1e-7)

    def test_minguess_has_no_slope(self):
        assert MEASURES[EntropyMeasure.MINGUESS].slope is None

    def test_every_measure_has_a_row(self):
        assert set(MEASURES) == set(EntropyMeasure)

    # Sizes are 0 or at least 1, so no Shannon term is negative and the sums
    # carry no cancellation: the table and the loop oracles agree to rounding.
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=500.0)),
            min_size=1,
            max_size=10,
        ).filter(lambda v: sum(v) > 0)
    )
    @settings(max_examples=100, deadline=None)
    def test_finalized_raw_matches_oracles(self, sizes):
        b = np.asarray(sizes, dtype=float)
        total = float(b.sum())
        for measure, oracle in (
            (EntropyMeasure.SHANNON, shannon_oracle),
            (EntropyMeasure.GUESSING, guessing_oracle),
            (EntropyMeasure.MINGUESS, minguess_oracle),
        ):
            row = MEASURES[measure]
            got = row.finalize(row.raw(b), total)
            assert got == pytest.approx(oracle(sizes), rel=1e-12)
            assert got == entropy(sizes, measure)

    @pytest.mark.parametrize("measure", list(EntropyMeasure))
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 40])
    def test_raw_rows_is_raw_of_each_row(self, measure, k):
        # Rows with 1..k positive classes: NumPy sums 8-wide pairwise
        # blocks, so a count of 8 or more is where a padded sum would drift.
        rng = np.random.default_rng(k)
        sizes = rng.uniform(0.1, 300.0, size=(3 * k, k))
        for r, row_sizes in enumerate(sizes):
            row_sizes[rng.permutation(k)[: r % k]] = 0.0
        row = MEASURES[measure]
        got = row.raw_rows(sizes)
        assert got.shape == (3 * k,)
        assert got.tolist() == [row.raw(s) for s in sizes]

    @pytest.mark.parametrize("measure", list(EntropyMeasure))
    @pytest.mark.parametrize("k", [1, 7, 8, 9, 16, 40])
    def test_raw_is_the_one_dimensional_fold(self, measure, k):
        # raw goes through raw_rows, so check both against a plain 1-D fold.
        rng = np.random.default_rng(100 + k)
        row = MEASURES[measure]
        for n_zero in range(k):
            sizes = rng.uniform(0.1, 300.0, size=k)
            sizes[rng.permutation(k)[:n_zero]] = 0.0
            terms = row.term(sizes[sizes > 0])
            fold = terms.min() if measure is EntropyMeasure.MINGUESS else terms.sum()
            assert row.raw(sizes) == float(fold)

    def test_raw_minguess_is_the_smallest_class(self):
        row = MEASURES[EntropyMeasure.MINGUESS]
        assert row.raw(np.array([0.0, 7.0, 3.0, 0.0, 9.0])) == 3.0
        assert row.combine(3.0, 2.0) == 2.0


class TestInvariants:
    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=1, max_value=500)),
            min_size=1,
            max_size=10,
        ).filter(lambda v: sum(v) > 0)
    )
    @settings(max_examples=100, deadline=None)
    def test_minguess_floor_for_whole_counts(self, sizes):
        # genuine class sizes are counts; the floor holds for those
        # (post-policy fractional sizes may legitimately dip below)
        value = entropy(sizes, EntropyMeasure.MINGUESS)
        assert value >= 1.0
        smallest = min(b for b in sizes if b > 0)
        assert (value == 1.0) == (smallest == 1)

    @given(sizes_vectors)
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, sizes):
        shuffled = list(reversed(sizes))
        for measure in EntropyMeasure:
            assert entropy(sizes, measure) == pytest.approx(
                entropy(shuffled, measure), rel=1e-12, abs=1e-12
            )

    @given(sizes_vectors)
    @settings(max_examples=100, deadline=None)
    def test_merging_two_classes_never_hurts(self, sizes):
        """Every pairwise merge keeps or raises MinGuess and Shannon."""
        positive = [b for b in sizes if b > 0]
        base_mg = entropy(positive, EntropyMeasure.MINGUESS)
        base_sh = entropy(positive, EntropyMeasure.SHANNON)
        for i in range(len(positive)):
            for j in range(i + 1, len(positive)):
                merged = [
                    b for t, b in enumerate(positive) if t not in (i, j)
                ] + [positive[i] + positive[j]]
                assert entropy(merged, EntropyMeasure.MINGUESS) >= base_mg - 1e-12
                assert entropy(merged, EntropyMeasure.SHANNON) >= base_sh - 1e-9

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=500.0),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_identities(self, sizes, c):
        scaled = [c * b for b in sizes]
        got_sh = entropy(scaled, EntropyMeasure.SHANNON)
        want_sh = entropy(sizes, EntropyMeasure.SHANNON) + math.log2(c)
        assert got_sh == pytest.approx(want_sh, rel=1e-9, abs=1e-9)
        got_mg = entropy(scaled, EntropyMeasure.MINGUESS)
        want_mg = c * (entropy(sizes, EntropyMeasure.MINGUESS) - 0.5) + 0.5
        assert got_mg == pytest.approx(want_mg, rel=1e-9, abs=1e-9)


class TestPostPolicyEntropy:
    def test_identity_preserves_entropy(self):
        cs = make_classset([3.0, 5.0, 9.0])
        pol = identity_policy(3)
        for measure in EntropyMeasure:
            assert post_policy_entropy(pol, cs, measure) == pytest.approx(
                entropy(cs.sizes, measure)
            )

    def test_full_merge_reaches_single_class(self):
        cs = make_classset([3.0, 5.0, 9.0])
        pol = full_merge_policy(3)
        total = 17.0
        assert post_policy_entropy(pol, cs, EntropyMeasure.SHANNON) == pytest.approx(
            math.log2(total)
        )
        assert post_policy_entropy(pol, cs, EntropyMeasure.MINGUESS) == pytest.approx(
            (total + 1) / 2
        )

    def test_two_block_plan_on_binomial_sizes(self, binomial_classes):
        pol = blocks_policy([(0, 5), (6, 9)], 10)
        assert post_policy_entropy(
            pol, binomial_classes, EntropyMeasure.MINGUESS
        ) == pytest.approx(88.5)
