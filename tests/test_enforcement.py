import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leakmit import enforcement
from leakmit.clustering import cluster_functions
from leakmit.enforcement import (
    MAX_DEPTH,
    SPLIT_BLOCK,
    DecisionTree,
    FeatureTable,
    TreeLeaf,
    TreeSplit,
    _draw_targets,
    branch_loop_counts,
    counter_features,
    enforce,
    learn_tree,
    mod_exp_counts,
    timing_features,
    training_samples,
    tree_to_json,
)
from leakmit.policy import (
    MitigationPolicy,
    blocks_policy,
    expected_overhead,
    full_merge_policy,
    identity_policy,
)
from leakmit.timing import (
    PublicGrid,
    TimingDataset,
    gen_branch_loop,
    gen_mod_exp,
    relative_overhead,
)

from oracles import cart_loop_oracle, choice_loop_oracle, stump_oracle


def perfect_features(dataset):
    counts = mod_exp_counts(dataset)
    return counter_features(dataset, counts)


def fitted(dataset, classes, features):
    return learn_tree(training_samples(features, classes))


def one_feature(values, labels):
    """Samples with a single feature ``f``, as training_samples returns them."""
    return np.asarray(values, dtype=float)[:, None], np.asarray(labels), ("f",)


class TestLearnTree:
    def test_single_class_collapses_to_a_leaf(self):
        tree = learn_tree(one_feature(range(5), [0] * 5))
        assert isinstance(tree.root, TreeLeaf)
        assert tree.train_accuracy == 1.0

    def test_one_threshold_separates_two_classes(self):
        tree = learn_tree(one_feature(range(6), [int(v >= 3) for v in range(6)]))
        assert isinstance(tree.root, TreeSplit)
        assert tree.root.threshold == pytest.approx(2.5)
        assert tree.train_accuracy == 1.0

    def test_depth_one_matches_exhaustive_stump(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            samples = [
                (
                    {"a": float(rng.integers(0, 6)), "b": float(rng.integers(0, 6))},
                    int(rng.integers(0, 3)),
                )
                for _ in range(20)
            ]
            x = np.array([[fv["a"], fv["b"]] for fv, _ in samples])
            y = np.array([label for _, label in samples])
            root = learn_tree((x, y, ("a", "b"))).root
            _, _, oracle_acc = stump_oracle(samples)
            # the root split with majority leaves is the tree's best stump
            left = x[:, root.feature] <= root.threshold
            hits = sum(np.bincount(y[side]).max() for side in (left, ~left))
            # equal-gain splits may differ; accuracy of the chosen stump
            # must still match the best achievable
            assert hits / len(samples) == pytest.approx(oracle_acc)

    def test_no_features_is_one_leaf(self, binomial_dataset, binomial_classes):
        tree = learn_tree((np.ones((3, 0)), np.array([0, 1, 1]), ()))
        assert tree.root == TreeLeaf(1)
        assert tree.train_accuracy == 2 / 3
        # and enforce classifies every execution as that leaf
        n_grid = len(binomial_dataset.grid)
        none = FeatureTable((), np.ones((binomial_dataset.n_secrets, n_grid, 0)),
                            binomial_dataset.secrets)
        tree = fitted(binomial_dataset, binomial_classes, none)
        policy = identity_policy(binomial_classes.k)
        _, report = enforce(binomial_dataset, binomial_classes, policy, tree, 0, none)
        majority = binomial_classes.sizes.max() / binomial_classes.sizes.sum()
        assert report.misclassification_rate == pytest.approx(1 - majority)

    def test_threshold_of_huge_features_stays_finite(self):
        # the midpoint 1.35e308 of the first cut overflows as (a + b) / 2
        x = [1e308, 1.7e308, 1.75e308]
        tree = learn_tree(one_feature(x, [0, 1, 1]))
        assert tree.root.threshold == 1e308 / 2.0 + 1.7e308 / 2.0
        assert tree.train_accuracy == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            learn_tree(one_feature([], []))
        with pytest.raises(ValueError, match="n_samples x n_features"):
            learn_tree((np.ones((2, 2)), np.array([0, 1]), ("f",)))
        with pytest.raises(ValueError, match="non-negative"):
            learn_tree(one_feature([1.0], [-1]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                learn_tree(one_feature([0.0, 1.0, bad, 3.0], [0, 0, 1, 1]))


def loop_tree_json(x, y, names) -> str:
    """tree.json text of the tree the frozen cut loop grows, with the
    accuracy of predicting its own training set."""
    root = cart_loop_oracle(x, y, MAX_DEPTH, 1)
    hits = np.count_nonzero(DecisionTree(root, names, 0.0).predict(x) == y)
    return json.dumps(tree_to_json(DecisionTree(root, names, hits / y.size)))


def tree_json(x, y, names) -> str:
    return json.dumps(tree_to_json(learn_tree((x, y, names))))


def random_cart_input(rng):
    """Features of mixed kinds (tie-heavy integers, continuous, rounded, or a
    copy of an earlier column, which ties whole features) and labels drawn
    from a gappy subset of 0..19."""
    n = int(rng.integers(2, 41))
    cols = []
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(4))
        if kind == 0:
            col = rng.integers(0, 5, n).astype(float)
        elif kind == 1:
            col = rng.random(n) * 10.0
        elif kind == 2:
            col = np.round(rng.normal(2.0, 1.0, n), 1)
        else:
            col = cols[-1] if cols else rng.integers(0, 3, n).astype(float)
        cols.append(col)
    x = np.column_stack(cols)
    ids = rng.choice(20, size=int(rng.integers(1, 11)), replace=False)
    y = rng.choice(ids, size=n)
    names = tuple(f"f{i}" for i in range(x.shape[1]))
    return x, y, names


class TestSplitSearchMatchesCutLoop:
    """The prefix-count split search grows byte for byte the tree of the
    frozen per-row cut loop (``tests/oracles.py::cart_loop_oracle``)."""

    def test_random_inputs(self):
        rng = np.random.default_rng(2024)
        wide = 0
        for _ in range(1200):
            x, y, names = random_cart_input(rng)
            wide += int(y.max()) >= 8
            assert tree_json(x, y, names) == loop_tree_json(x, y, names)
        assert wide >= 600  # k >= 8 takes numpy's 8-way pairwise sum

    def test_tie_across_blocks_goes_to_the_earlier_cut(self):
        # Cuts a and a + b score the same; they sit in different blocks.
        a = b = SPLIT_BLOCK - 1096
        x = np.arange(2 * a + b, dtype=float)[:, None]
        y = np.array([0] * a + [1] * b + [0] * a)
        tree = learn_tree((x, y, ("f",)))
        assert tree.root.threshold == a - 0.5
        assert tree_json(x, y, ("f",)) == loop_tree_json(x, y, ("f",))

    def test_more_distinct_values_than_one_block(self):
        rng = np.random.default_rng(5)
        n = 2 * SPLIT_BLOCK + 500
        x = np.column_stack([rng.random(n), np.round(rng.random(n), 2)])
        y = (x[:, 0] + 0.3 * rng.random(n) > 0.6).astype(int) + 2 * (x[:, 1] > 0.7)
        assert tree_json(x, y, ("a", "b")) == loop_tree_json(x, y, ("a", "b"))

    def test_random_inputs_in_tiny_blocks(self, monkeypatch):
        # Blocks of 1-3 cuts and 1-4 rows: nearly every segment crosses a
        # block edge, runs of tied values straddle the scan edges, and most
        # segments lack some of the node's classes.
        rng = np.random.default_rng(2025)
        for trial in range(400):
            monkeypatch.setattr(enforcement, "SPLIT_BLOCK", 1 + trial % 3)
            monkeypatch.setattr(enforcement, "SCAN_BLOCK", 1 + trial % 4)
            x, y, names = random_cart_input(rng)
            assert tree_json(x, y, names) == loop_tree_json(x, y, names)

    def test_class_missing_from_a_segment(self):
        # Class 2 holds the first and last rows only, so the segments of the
        # middle blocks of cuts carry its count without holding any of it.
        n = 3 * SPLIT_BLOCK + 100
        x = np.arange(n, dtype=float)[:, None]
        y = np.zeros(n, dtype=int)
        y[n // 2 :] = 1
        y[:5] = y[-5:] = 2
        assert tree_json(x, y, ("f",)) == loop_tree_json(x, y, ("f",))

    def test_tied_runs_across_scan_blocks(self):
        # Runs of 7 equal values straddle the edges of the scan blocks, and
        # the best cut falls in the second block of rows.
        n = 2 * enforcement.SCAN_BLOCK + 100
        x = np.floor(np.arange(n) / 7.0)[:, None]
        y = (np.arange(n) >= enforcement.SCAN_BLOCK + 3).astype(int)
        tree = learn_tree((x, y, ("f",)))
        assert tree_json(x, y, ("f",)) == loop_tree_json(x, y, ("f",))
        assert isinstance(tree.root, TreeSplit)


def n_splits(node) -> int:
    if isinstance(node, TreeLeaf):
        return 0
    return 1 + n_splits(node.left) + n_splits(node.right)


@st.composite
def tied_samples(draw):
    """Features of a few small integers, some columns copies of others, so
    rows tie within and across features."""
    n = draw(st.integers(1, 60))
    cols = []
    for _ in range(draw(st.integers(1, 4))):
        if cols and draw(st.booleans()):
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
        else:
            cols.append(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    y = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    x = np.array(cols, dtype=float).T
    return x, np.array(y), tuple(f"f{i}" for i in range(len(cols)))


class TestPresortedOrders:
    """``learn_tree`` sorts each feature once per tree, and every node
    filters its parent's orders down to its own rows."""

    def test_each_feature_is_sorted_once_per_tree(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 4, size=(300, 3)).astype(float)
        y = rng.integers(0, 5, size=300)
        calls = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        tree = learn_tree((x, y, ("a", "b", "c")))
        # A sort per feature and node would be at least 3 per split.
        assert n_splits(tree.root) >= 5
        assert len(calls) == 3

    @settings(max_examples=200, deadline=None)
    @given(tied_samples())
    def test_a_node_holds_the_stable_order_of_its_rows(self, samples):
        x, y, names = samples
        nodes = []
        grow = enforcement._grow

        def recorded(x, y, orders, depth):
            nodes.append([order.copy() for order in orders])
            return grow(x, y, orders, depth)

        with mock.patch.object(enforcement, "_grow", recorded):
            learn_tree(samples)
        assert np.array_equal(np.sort(nodes[0][0]), np.arange(y.size))
        for orders in nodes:
            rows = np.sort(orders[0])
            for f, order in enumerate(orders):
                stable = np.argsort(x[rows, f], kind="stable")
                assert np.array_equal(order, rows[stable])


class TestPredict:
    def test_routes_every_row_like_a_walk_down_the_tree(self):
        rng = np.random.default_rng(11)
        x = rng.integers(0, 8, size=(200, 3)).astype(float)
        y = rng.integers(0, 4, size=200)
        tree = learn_tree((x, y, ("a", "b", "c")))

        def walk(row):
            node = tree.root
            while isinstance(node, TreeSplit):
                node = node.left if row[node.feature] <= node.threshold else node.right
            return node.class_id

        assert tree.predict(x).tolist() == [walk(row) for row in x]

    def test_feature_count_checked(self):
        tree = learn_tree(one_feature(range(4), [0, 0, 1, 1]))
        with pytest.raises(ValueError, match="n_features"):
            tree.predict(np.ones((3, 2)))


class TestFeatures:
    def test_mod_exp_counts_scale_with_popcount_and_grid(self):
        ds = gen_mod_exp(3, 1.0, 0.0, seed=0)
        counts = mod_exp_counts(ds)
        i = ds.secrets.index(5)  # two set bits
        assert counts[i].tolist() == [2.0 * y for y in ds.grid.points]

    def test_mod_exp_counts_match_int_bit_count(self):
        for n_bits in range(1, 17):
            ds = gen_mod_exp(n_bits)
            setbits = np.array([int(s).bit_count() for s in ds.secrets], dtype=float)
            want = setbits[:, None] * ds.grid.points[None, :]
            got = mod_exp_counts(ds)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("secrets", [
        (0, -1, 12345, 2**63 - 1, -(2**63)),
        (2**70 + 5, -(2**80) - 3, 7),
    ], ids=["int64", "wider"])
    def test_mod_exp_counts_of_negative_and_wide_secrets(self, secrets):
        grid = PublicGrid((1.0, 2.5))
        ds = TimingDataset(secrets, grid, np.ones((len(secrets), 2)))
        want = [[int(s).bit_count() * y for y in (1.0, 2.5)] for s in secrets]
        assert mod_exp_counts(ds).tolist() == want

    def test_counter_features_are_constant_per_secret(self, binomial_dataset):
        table = perfect_features(binomial_dataset)
        assert table.names == ("iterations_per_unit",)
        assert table.secrets == binomial_dataset.secrets
        assert table.values.shape == binomial_dataset.times.shape + (1,)
        for secret, per_point in zip(table.secrets, table.values):
            assert set(per_point[:, 0]) == {float(int(secret).bit_count())}

    def test_timing_features_divide_by_grid(self):
        ds = gen_mod_exp(3, 2.0, 0.0, seed=0)
        table = timing_features(ds)
        assert table.names == ("time_per_unit",)
        i = ds.secrets.index(1)
        for p, y in enumerate(ds.grid.points):
            assert table.values[i, p, 0] == pytest.approx(ds.times[i, p] / y)

    def test_feature_table_validation(self):
        ok = np.ones((2, 3, 1))
        with pytest.raises(ValueError, match="n_secrets x n_grid x n_features"):
            FeatureTable(("f",), ok, (1, 2, 3))
        with pytest.raises(ValueError, match="n_secrets x n_grid x n_features"):
            FeatureTable(("f", "g"), ok, (1, 2))
        with pytest.raises(ValueError, match="n_secrets x n_grid x n_features"):
            FeatureTable(("f",), np.ones((2, 3)), (1, 2))
        for bad in (np.nan, np.inf):
            values = ok.copy()
            values[1, 2, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                FeatureTable(("f",), values, (1, 2))
        values = ok.copy()
        values[0, 0, 0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            FeatureTable(("f",), values, (1, 2))
        table = FeatureTable(("f",), ok, (1, 2))
        with pytest.raises(ValueError):
            table.values[0, 0, 0] = 5.0

    def test_branch_loop_counts_group_validation(self, grouped_dataset):
        counts = branch_loop_counts(grouped_dataset, (5, 5, 5, 10), (1, 2, 3, 4))
        assert counts.shape == grouped_dataset.times.shape
        with pytest.raises(ValueError, match="group sizes"):
            branch_loop_counts(grouped_dataset, (5, 5), (1, 2))

    def test_counter_shape_validation(self, binomial_dataset):
        with pytest.raises(ValueError, match="n_secrets"):
            counter_features(binomial_dataset, np.ones((2, 2)))

    def test_training_samples_label_by_class(self, binomial_dataset, binomial_classes):
        table = perfect_features(binomial_dataset)
        x, y, names = training_samples(table, binomial_classes)
        n_grid = len(binomial_dataset.grid)
        assert x.shape == (binomial_dataset.n_secrets * n_grid, 1)
        assert names == ("iterations_per_unit",)
        label = binomial_classes.class_of()
        # secret-major: row i * n_grid + p is secret i at grid point p
        for i, secret in enumerate(binomial_dataset.secrets):
            assert set(y[i * n_grid:(i + 1) * n_grid]) == {label[secret]}
            assert x[i * n_grid + 2, 0] == table.values[i, 2, 0]


class TestEnforce:
    def test_identity_policy_changes_nothing(self, binomial_dataset, binomial_classes):
        features = perfect_features(binomial_dataset)
        tree = fitted(binomial_dataset, binomial_classes, features)
        assert tree.train_accuracy == 1.0
        policy = identity_policy(binomial_classes.k)
        mitigated, report = enforce(
            binomial_dataset, binomial_classes, policy, tree, 0, features
        )
        assert np.array_equal(mitigated.times, binomial_dataset.times)
        assert report.realized_overhead == 0.0
        assert report.misclassification_rate == 0.0
        assert report.n_classes_after == binomial_classes.k

    def test_full_merge_collapses_to_one_class(
        self, binomial_dataset, binomial_classes
    ):
        features = perfect_features(binomial_dataset)
        tree = fitted(binomial_dataset, binomial_classes, features)
        policy = full_merge_policy(binomial_classes.k)
        mitigated, report = enforce(
            binomial_dataset, binomial_classes, policy, tree, 0, features
        )
        assert report.n_classes_after == 1
        assert np.all(mitigated.times >= binomial_dataset.times)

    def test_realized_matches_expected_for_deterministic_policies(
        self, binomial_dataset, binomial_classes
    ):
        features = perfect_features(binomial_dataset)
        tree = fitted(binomial_dataset, binomial_classes, features)
        k = binomial_classes.k
        policy = blocks_policy([(0, 3), (4, 6), (7, k - 1)], k)
        mitigated, report = enforce(
            binomial_dataset, binomial_classes, policy, tree, 0, features
        )
        expected = expected_overhead(policy, binomial_classes)
        assert report.realized_overhead == pytest.approx(expected, abs=1e-6)
        realized = relative_overhead(binomial_dataset, mitigated)
        assert report.realized_overhead == realized

    def test_deterministic_policy_realizes_its_image_classes(
        self, grouped_dataset, grouped_classes
    ):
        counts = branch_loop_counts(grouped_dataset, (5, 5, 5, 10), (1, 2, 3, 4))
        features = counter_features(grouped_dataset, counts)
        tree = fitted(grouped_dataset, grouped_classes, features)
        policy = blocks_policy([(0, 1), (2, 3)], grouped_classes.k)
        mitigated, report = enforce(
            grouped_dataset, grouped_classes, policy, tree, 0, features
        )
        assert report.n_classes_after == 2
        recheck = cluster_functions(mitigated, 1e-9)
        assert recheck.k == 2

    def test_stochastic_draws_are_seeded(self, binomial_dataset, binomial_classes):
        features = perfect_features(binomial_dataset)
        tree = fitted(binomial_dataset, binomial_classes, features)
        k = binomial_classes.k
        matrix = np.eye(k)
        matrix[0] = 0.0
        matrix[0, 0] = 0.5
        matrix[0, k - 1] = 0.5
        policy = MitigationPolicy(matrix)
        first, _ = enforce(
            binomial_dataset, binomial_classes, policy, tree, 3, features
        )
        second, _ = enforce(
            binomial_dataset, binomial_classes, policy, tree, 3, features
        )
        other, _ = enforce(
            binomial_dataset, binomial_classes, policy, tree, 4, features
        )
        assert np.array_equal(first.times, second.times)
        assert not np.array_equal(first.times, other.times)

    def test_delays_are_never_negative(self, grouped_dataset, grouped_classes):
        features = timing_features(grouped_dataset)
        tree = fitted(grouped_dataset, grouped_classes, features)
        policy = full_merge_policy(grouped_classes.k)
        mitigated, _ = enforce(
            grouped_dataset, grouped_classes, policy, tree, 0, features
        )
        assert np.all(mitigated.times >= grouped_dataset.times)

    def test_entropies_cover_every_measure(self, binomial_dataset, binomial_classes):
        features = perfect_features(binomial_dataset)
        tree = fitted(binomial_dataset, binomial_classes, features)
        policy = full_merge_policy(binomial_classes.k)
        _, report = enforce(
            binomial_dataset, binomial_classes, policy, tree, 0, features
        )
        measures = [m.value for m, _, _ in report.entropies]
        assert sorted(measures) == ["guessing", "minguess", "shannon"]
        for _, before, after in report.entropies:
            assert after >= before  # full merge maximizes every measure

    def test_padding_matches_a_per_execution_loop(self):
        # noise clips some times to 0, where the timing features of different
        # classes coincide, so even the full tree misclassifies those
        # executions; a stochastic policy exercises the target draws
        ds = gen_branch_loop((5, 5, 5, 10), (1, 2, 3, 4), 20, 3.0, seed=1)
        classes = cluster_functions(ds, 2.0)
        features = timing_features(ds)
        tree = learn_tree(training_samples(features, classes))
        k = classes.k
        matrix = np.triu(np.ones((k, k)))
        matrix /= matrix.sum(axis=1, keepdims=True)
        policy = MitigationPolicy(matrix)
        mitigated, report = enforce(ds, classes, policy, tree, 5, features)

        label = classes.class_of()
        reps = [c.representative for c in classes.classes]
        rng = np.random.default_rng(5)
        want = np.array(ds.times)
        wrong = 0
        for i, secret in enumerate(ds.secrets):
            row = matrix[label[secret]]
            target = int(rng.choice(k, p=row / row.sum()))
            for p in range(len(ds.grid)):
                (pred,) = tree.predict(features.values[i, p][None, :])
                wrong += int(pred != label[secret])
                want[i, p] += max(0.0, float(reps[target][p] - reps[pred][p]))
        assert wrong > 0
        assert np.array_equal(mitigated.times, want)
        assert report.misclassification_rate == wrong / want.size

    def test_features_must_match_the_dataset(self, grouped_dataset, grouped_classes):
        features = timing_features(grouped_dataset)
        tree = fitted(grouped_dataset, grouped_classes, features)
        other = gen_branch_loop((5, 5, 5, 10), (1, 2, 3, 4), 40, 0.0, seed=0)
        policy = identity_policy(grouped_classes.k)
        with pytest.raises(ValueError, match="cover the dataset"):
            enforce(other, grouped_classes, policy, tree, 0, features)

    def test_policy_must_match_the_classes(self, grouped_dataset, grouped_classes):
        features = timing_features(grouped_dataset)
        tree = fitted(grouped_dataset, grouped_classes, features)
        policy = identity_policy(grouped_classes.k + 1)
        with pytest.raises(ValueError, match="classes"):
            enforce(grouped_dataset, grouped_classes, policy, tree, 0, features)

    def test_noisy_classifier_still_pads_upward(self):
        # sigma > 0 breaks perfect classification; delays stay non-negative
        ds = gen_branch_loop((5, 5, 5, 10), (1, 2, 3, 4), 50, 0.05, seed=1)
        classes = cluster_functions(ds, 2.0)
        features = timing_features(ds)
        tree = fitted(ds, classes, features)
        policy = full_merge_policy(classes.k)
        mitigated, report = enforce(ds, classes, policy, tree, 0, features)
        assert np.all(mitigated.times >= ds.times)
        assert 0.0 <= report.misclassification_rate <= 1.0


class TestDrawTargets:
    def test_single_draw_matches_one_choice_per_secret(self):
        # Stochastic and point-mass matrices take the same CDF draw; the
        # oracle makes one rng.choice per secret for the first and takes
        # the row's argmax for the second.
        rng = np.random.default_rng(9)
        for seed in range(300):
            k = int(rng.integers(1, 21))
            stochastic = np.triu(rng.random((k, k)) * (rng.random((k, k)) < 0.5))
            stochastic[np.arange(k), rng.integers(np.arange(k), k)] += rng.random(k)
            stochastic /= stochastic.sum(axis=1, keepdims=True)
            point_mass = np.zeros((k, k))
            point_mass[np.arange(k), rng.integers(np.arange(k), k)] = 1.0
            labels = rng.integers(0, k, int(rng.integers(1, 200)))
            for matrix in (stochastic, point_mass):
                policy = MitigationPolicy(matrix)
                assert policy.deterministic or matrix is stochastic
                got = _draw_targets(policy, labels, np.random.default_rng(seed))
                want = choice_loop_oracle(
                    matrix, policy.deterministic, labels, seed
                )
                assert got.tolist() == want.tolist()

    def test_deterministic_targets_are_the_draws(self):
        # A point-mass policy's targets are read off its matrix with no
        # generator, and they are the bits every draw lands on.
        rng = np.random.default_rng(10)
        for seed in range(300):
            k = int(rng.integers(1, 21))
            matrix = np.zeros((k, k))
            matrix[np.arange(k), rng.integers(np.arange(k), k)] = 1.0
            policy = MitigationPolicy(matrix)
            labels = rng.integers(0, k, int(rng.integers(1, 200)))
            labels = labels.astype(np.min_scalar_type(k - 1))
            with mock.patch.object(np.random, "default_rng", side_effect=AssertionError):
                got = enforcement._targets(policy, labels, seed)
            want = _draw_targets(policy, labels, np.random.default_rng(seed))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTreeSerialization:
    def test_round_trip(self, binomial_dataset, binomial_classes):
        """``tree.json`` is a report, so nothing reads it back as a tree: its
        text must hold every node of the tree."""
        features = perfect_features(binomial_dataset)
        tree = fitted(binomial_dataset, binomial_classes, features)
        data = json.loads(json.dumps(tree_to_json(tree)))
        assert data["feature_names"] == list(tree.feature_names)
        assert data["train_accuracy"] == tree.train_accuracy
        splits, stack = 0, [(data["root"], tree.root)]
        while stack:
            written, node = stack.pop()
            if isinstance(node, TreeLeaf):
                assert written == {"kind": "leaf", "class_id": node.class_id}
                continue
            splits += 1
            assert written["kind"] == "split"
            assert (written["feature"], written["threshold"]) == (
                node.feature, node.threshold
            )
            stack += [(written["left"], node.left), (written["right"], node.right)]
        assert splits == binomial_classes.k - 1
