import argparse
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leakmit import cli
from leakmit.cli import (
    MAX_SWEEP_POINTS,
    ConfigError,
    PipelineConfig,
    _parse_sweep_grid,
    main,
)
from leakmit.enforcement import MAX_DEPTH
from leakmit.errors import SolverError
from leakmit.policy import full_merge_policy
from leakmit.stochastic import MAX_STARTS
from leakmit.timing import gen_branch_loop, gen_mod_exp, read_csv, write_csv


MOD_EXP = ["--gen", "mod_exp", "--n-bits", "6"]
HEADER = "secret_id,public_value,time_seconds\n"
BRANCH = ["--gen", "branch_loop"]


def run(args, out_dir):
    return main(args + ["--out", str(out_dir)])


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestExitCodes:
    def test_ok(self, tmp_path):
        assert run(["cluster"] + MOD_EXP, tmp_path) == 0

    def test_unknown_flag(self, tmp_path, capsys):
        assert run(["cluster", "--bogus", "1"], tmp_path) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_no_dataset_source(self, tmp_path):
        assert run(["cluster"], tmp_path) == 1

    def test_both_dataset_sources(self, tmp_path):
        assert run(["cluster", "--input", "x.csv"] + MOD_EXP, tmp_path) == 1

    def test_negative_delta(self, tmp_path):
        assert run(["synthesize"] + MOD_EXP + ["--delta", "-1"], tmp_path) == 1

    def test_bad_epsilon(self, tmp_path):
        assert run(["cluster"] + MOD_EXP + ["--epsilon", "0"], tmp_path) == 1

    def test_negative_seed(self, tmp_path):
        assert run(["cluster"] + MOD_EXP + ["--seed", "-3"], tmp_path) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert run(["cluster", "--input", str(tmp_path / "no.csv")], tmp_path) == 2
        assert "data error" in capsys.readouterr().err

    def test_malformed_input_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header,names\n1,2,3\n")
        assert run(["cluster", "--input", str(bad)], tmp_path) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            (HEADER + "1,1,1.0\n1,2\n", "bad.csv:3: expected 3 columns"),
            (HEADER + "1,1,1.0\n1,2,fast\n", "bad.csv:3: could not convert string to float"),
            # a quoted field spanning two lines: the next record is on line 4
            (HEADER + '"1\n",1,1.0\n2,1,fast\n', "bad.csv:4: could not convert string to float"),
            (HEADER + "1,1,1.0\nx,2,1.0\n", "bad.csv:3: invalid literal for int()"),
            (HEADER, "bad.csv: no observations"),
            (HEADER + "1,1,1.0\n2,1,-1\n", "bad.csv:3: execution times must be non-negative"),
            # fields over the csv module's size limit, in a row and in the header
            (HEADER + "1,1," + "1" * 140_001 + "\n",
             "bad.csv:2: field larger than field limit (131072)"),
            ("x" * 140_000 + ",public_value,time_seconds\n1,1,1.0\n",
             "bad.csv:1: field larger than field limit (131072)"),
            # a field over the limit that spans lines 3 and 4
            (HEADER + '1,1,1.0\n"1\n' + "1" * 140_001 + '",1,1.0\n',
             "bad.csv:3: field larger than field limit (131072)"),
        ],
        ids=["two-columns", "non-numeric-time", "multi-line-record",
             "non-numeric-secret", "header-only", "negative-time", "long-field",
             "long-header", "long-multi-line-field"],
    )
    def test_malformed_rows_exit_2(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert run(["cluster", "--input", str(bad)], tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not (tmp_path / "classes.json").exists()

    def test_non_finite_input_file(self, tmp_path, capsys):
        # three secrets; before the check, nan and inf merged all of them
        bad = tmp_path / "nan.csv"
        bad.write_text(
            "secret_id,public_value,time_seconds\n"
            "1,1,1.0\n2,1,nan\n3,1,inf\n"
        )
        assert run(["entropy", "--input", str(bad)], tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "finite" in err
        assert not (tmp_path / "entropy.json").exists()

    @pytest.mark.parametrize("public", ["0", "-2"])
    def test_non_positive_public_value_in_enforce_exits_2(
        self, tmp_path, capsys, public
    ):
        # enforce's time_per_unit feature divides each time by its public
        # value; synthesize reads no features, so it takes the same file.
        data = tmp_path / "publics.csv"
        data.write_text(
            "secret_id,public_value,time_seconds\n"
            f"1,{public},1.0\n1,1,2.0\n2,{public},1.5\n2,1,3.0\n"
        )
        assert run(["synthesize", "--input", str(data)], tmp_path / "s") == 0
        assert run(["enforce", "--input", str(data)], tmp_path / "e") == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert f"positive public values, got {float(public)!r}" in err
        assert not (tmp_path / "e").exists()

    def test_overflowing_total_exits_2(self, tmp_path, capsys):
        # Every time is finite but their total overflows, so the mean time
        # that prices a move would be inf and every penalty 0.
        big = tmp_path / "big.csv"
        big.write_text(
            "secret_id,public_value,time_seconds\n"
            "0,1,0\n1,1,1.7e308\n2,1,1.75e308\n"
        )
        args = ["synthesize", "--input", str(big), "--measure", "minguess",
                "--delta", "0", "--algo", "det"]
        assert run(args, tmp_path) == 2
        assert "big.csv: execution times must sum to a finite total" in capsys.readouterr().err
        assert not (tmp_path / "policy.json").exists()

    def test_too_many_classes_for_local_search_exits_2(self, tmp_path, capsys):
        # Noise at a tiny epsilon leaves each of the 511 secrets its own
        # class; local search refuses them before it starts.
        args = ["enforce", "--gen", "mod_exp", "--n-bits", "9", "--algo", "stoch",
                "--measure", "guessing", "--noise-sigma", "0.3", "--epsilon",
                "1e-6", "--n-starts", "2"]
        assert run(args, tmp_path) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "got k = 511" in err and "--epsilon" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["enforce", "compare"])
    def test_too_many_classes_for_any_solver_exits_2(self, tmp_path, capsys, command):
        # 101 noisy secrets stay 101 classes at the default epsilon; every
        # solver refuses them, the default --algo det included.
        gen = ["generate", "--gen", "branch_loop", "--group-sizes", "101",
               "--slopes", "1", "--noise-sigma", "0.05"]
        assert run(gen, tmp_path) == 0
        out = tmp_path / "out"
        assert run([command, "--input", str(tmp_path / "dataset.csv")], out) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "got k = 101" in err and "--epsilon" in err
        assert not out.exists() or list(out.iterdir()) == []

    def test_solver_failures_map_to_3(self, tmp_path, monkeypatch, capsys):
        def explode(config):
            raise SolverError("no policy")

        monkeypatch.setitem(cli._COMMANDS, "cluster", (explode, "cluster"))
        assert run(["cluster"] + MOD_EXP, tmp_path) == 3
        assert "solver error" in capsys.readouterr().err


class TestModuleEntryPoint:
    """``python -m leakmit`` runs the same CLI, exit codes included."""

    @staticmethod
    def run_python(args, cwd):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], capture_output=True,
            text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )

    def run_module(self, args, cwd):
        return self.run_python(["-m", "leakmit", *args], cwd)

    def test_help(self, tmp_path):
        done = self.run_module(["--help"], tmp_path)
        assert done.returncode == 0
        assert done.stdout.startswith("usage:")
        assert "synthesize" in done.stdout

    def test_configuration_error_exits_1(self, tmp_path):
        done = self.run_module(["cluster", "--bogus", "1"], tmp_path)
        assert done.returncode == 1
        assert "configuration error" in done.stderr

    def test_deterministic_enforce_loads_no_random_generator(self, tmp_path):
        # A point-mass policy ignores every draw, so enforce --algo det on
        # measured data never imports numpy.random.
        data = gen_branch_loop((5, 5, 5, 10), (1, 2, 3, 4), 50, 0.05, seed=1)
        write_csv(data, tmp_path / "noisy.csv")
        code = (
            "import sys\n"
            "from leakmit.cli import main\n"
            "rc = main(['enforce', '--input', 'noisy.csv', '--epsilon', '1.0',"
            " '--algo', 'det', '--out', 'out'])\n"
            "print(rc, 'numpy.random' in sys.modules)\n"
        )
        done = self.run_python(["-c", code], tmp_path)
        assert done.stdout.split()[-2:] == ["0", "False"], done.stderr


class TestDeepTree:
    """Secrets 0 and 1 take y * 2y, secrets 2 and 3 take y * (2y + 1), so
    their time_per_unit features interleave and only a chain of splits
    separates the two classes: the tree grows to ``MAX_DEPTH``."""

    @pytest.fixture
    def deep_csv(self, tmp_path):
        path = tmp_path / "deep.csv"
        lines = ["secret_id,public_value,time_seconds"]
        for secret in range(4):
            for y in range(1, 3001):
                lines.append(f"{secret},{y},{y * (2 * y + (secret >= 2))}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_tree_at_the_cap_is_written(self, tmp_path, deep_csv):
        out = tmp_path / "out"
        rc = main(["enforce", "--input", str(deep_csv), "--epsilon", "0.5",
                   "--out", str(out)])
        assert rc == 0

        def depth(node):
            if node["kind"] == "leaf":
                return 0
            return 1 + max(depth(node["left"]), depth(node["right"]))

        tree = json.loads((out / "tree.json").read_text())
        assert list(tree) == ["feature_names", "train_accuracy", "root"]
        assert depth(tree["root"]) == MAX_DEPTH


class TestSweepGrid:
    def test_inclusive_endpoints(self):
        assert _parse_sweep_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_point(self):
        assert _parse_sweep_grid("0.5:0.5:1") == [0.5]

    def test_shape_errors(self):
        for bad in ("1:2", "a:b:c", "0:1:0", "1:0:1"):
            with pytest.raises(ConfigError):
                _parse_sweep_grid(bad)

    def test_benchmark_grid_is_unchanged(self):
        assert _parse_sweep_grid("0.05:0.25:0.05") == [0.05, 0.1, 0.15, 0.2, 0.25]

    def test_point_cap(self):
        assert len(_parse_sweep_grid(f"1:{MAX_SWEEP_POINTS}:1")) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigError, match="points"):
            _parse_sweep_grid(f"1:{MAX_SWEEP_POINTS + 1}:1")

    def test_huge_grid_exits_1(self, tmp_path, capsys):
        # Used to append budgets until memory ran out.
        assert run(["sweep"] + BRANCH + ["--sweep", "0:1e9:1e-9"], tmp_path) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestSingleCommands:
    def test_generate_round_trips(self, tmp_path):
        assert run(["generate"] + MOD_EXP, tmp_path) == 0
        ds = read_csv(tmp_path / "dataset.csv")
        want = gen_mod_exp(6, 1.0, 0.0, seed=0)
        assert ds.secrets == want.secrets
        assert np.array_equal(ds.times, want.times)

    def test_cluster_writes_classes(self, tmp_path):
        assert run(["cluster"] + MOD_EXP, tmp_path) == 0
        data = json.loads((tmp_path / "classes.json").read_text())
        assert len(data["classes"]) == 6
        assert data["total_size"] == 63

    def test_entropy_reports_all_measures(self, tmp_path, capsys):
        args = ["entropy", "--gen", "mod_exp", "--n-bits", "10"]
        assert run(args, tmp_path) == 0
        data = json.loads((tmp_path / "entropy.json").read_text())
        assert data["k"] == 10
        assert data["entropies"]["shannon"] == pytest.approx(7.300700627228947)
        assert data["entropies"]["minguess"] == 1.0
        assert data["entropies"]["guessing"] == pytest.approx(90.80058651026393)
        assert "entropies:" in capsys.readouterr().out

    def test_synthesize_zero_budget_is_identity(self, tmp_path):
        args = ["synthesize"] + MOD_EXP + ["--delta", "0", "--measure", "shannon"]
        assert run(args, tmp_path) == 0
        data = json.loads((tmp_path / "policy.json").read_text())
        assert data["entropy_after"] == data["entropy_before"]
        assert data["overhead"] == 0.0

    def test_synthesize_stochastic_beats_identity(self, tmp_path):
        args = ["synthesize"] + MOD_EXP + [
            "--delta", "0.6", "--measure", "minguess", "--algo", "stoch",
        ]
        assert run(args, tmp_path) == 0
        data = json.loads((tmp_path / "policy.json").read_text())
        assert data["entropy_after"] > data["entropy_before"]
        assert data["overhead"] <= 0.6 + 1e-9
        assert data["diagnostics"]["status"] == "optimal"

    def test_det_synthesis_is_exact_over_contiguous_merges(self, tmp_path):
        # Constant times 1..4 held by 1, 1, 3 and 5 secrets.  Stopping at the
        # first feasible block count gives 3.0; the best contiguous merge
        # within the budget gives 3.8.
        lines = ["secret_id,public_value,time_seconds"]
        secret = 0
        for time, count in zip((1.0, 2.0, 3.0, 4.0), (1, 1, 3, 5)):
            for _ in range(count):
                lines += [f"{secret},{p},{time}" for p in (1.0, 2.0, 3.0, 4.0)]
                secret += 1
        steps = tmp_path / "steps.csv"
        steps.write_text("\n".join(lines) + "\n")
        args = ["synthesize", "--input", str(steps), "--algo", "det",
                "--measure", "guessing", "--delta", "0.1"]
        assert run(args, tmp_path) == 0
        data = json.loads((tmp_path / "policy.json").read_text())
        assert data["entropy_after"] == pytest.approx(3.8)
        assert data["overhead"] <= 0.1

    def test_baseline_double(self, tmp_path):
        args = ["baseline", "--gen", "mod_exp", "--n-bits", "10",
                "--baseline", "double"]
        assert run(args, tmp_path) == 0
        report = json.loads((tmp_path / "baseline_report.json").read_text())
        assert report["classes_before"] == 10
        assert report["classes_after"] == 4
        assert report["overhead"] > 0
        mitigated = read_csv(tmp_path / "mitigated.csv")
        assert mitigated.n_secrets == 1023

    def test_baseline_bucketing_leaves_structure(self, tmp_path):
        args = ["baseline"] + MOD_EXP + ["--baseline", "bucketing",
                                         "--buckets", "2"]
        assert run(args, tmp_path) == 0
        report = json.loads((tmp_path / "baseline_report.json").read_text())
        assert report["classes_after"] > 2


class TestPipeline:
    ARGS = ["enforce"] + MOD_EXP + ["--measure", "shannon", "--algo", "det",
                                    "--delta", "0.3"]

    def test_artifacts_and_summary(self, tmp_path):
        assert run(self.ARGS, tmp_path) == 0
        for name in ("classes.json", "policy.json", "tree.json",
                     "mitigated.csv", "enforcement.json", "summary.csv"):
            assert (tmp_path / name).exists()
        header, rows = read_rows(tmp_path / "summary.csv")
        assert header == [
            "source", "k_before", "classes_after", "measure", "delta", "algo",
            "entropy_before", "entropy_after", "expected_overhead",
            "realized_overhead", "misclassification_rate",
        ]
        (row,) = rows
        assert row["source"] == "mod_exp"
        assert row["k_before"] == "6"
        assert row["algo"] == "det"
        assert row["misclassification_rate"] == "0.0"

    def test_realized_overhead_matches_plan_when_noiseless(self, tmp_path):
        assert run(self.ARGS, tmp_path) == 0
        _, (row,) = read_rows(tmp_path / "summary.csv")
        realized = float(row["realized_overhead"])
        expected = float(row["expected_overhead"])
        assert realized == pytest.approx(expected, abs=1e-6)
        assert expected <= 0.3 + 1e-9

    def test_reruns_are_byte_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run(self.ARGS, first) == 0
        assert run(self.ARGS, second) == 0
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_summary_quotes_an_input_path_with_a_comma(self, tmp_path):
        # The path used to be joined in bare, giving 12 fields under an
        # 11-field header.
        source = tmp_path / "a,b.csv"
        write_csv(gen_branch_loop((2, 3), (1.0, 2.0), 5, 0.0, 0), source)
        assert run(["enforce", "--input", str(source)], tmp_path / "out") == 0
        with open(tmp_path / "out" / "summary.csv", newline="") as fh:
            header, row = csv.reader(fh)
        assert len(header) == len(row) == 11
        assert row[0] == str(source)

    def test_full_tree_keeps_the_planned_classes(self, tmp_path):
        # n_bits 12 is the smallest mod_exp whose depth-6 tree was impure:
        # it split off one secret as a third class, so min-guess stayed 1.
        args = ["enforce", "--gen", "mod_exp", "--n-bits", "12", "--algo",
                "stoch", "--measure", "minguess", "--delta", "0.5"]
        assert run(args, tmp_path) == 0
        report = json.loads((tmp_path / "enforcement.json").read_text())
        assert report["misclassification_rate"] == 0.0
        assert report["class_sizes_after"] == [2054, 2041]
        (minguess,) = [e for e in report["entropies"] if e["measure"] == "minguess"]
        assert minguess["entropy_after"] == 1021.0

    def test_stochastic_pipeline(self, tmp_path):
        args = ["enforce"] + BRANCH + ["--measure", "minguess", "--algo",
                                       "stoch", "--delta", "0.8"]
        assert run(args, tmp_path) == 0
        _, (row,) = read_rows(tmp_path / "summary.csv")
        assert float(row["entropy_after"]) >= float(row["entropy_before"])
        assert float(row["expected_overhead"]) <= 0.8 + 1e-9


class TestGoldenArtifacts:
    """Every ``enforce`` artifact of three small runs, pinned by sha256 across
    commits.  Run (a) covers counter features and stochastic target draws;
    run (b) covers padding of executions the tree gets wrong: noise splits
    the 4 slopes into 18 classes that the slope counter cannot tell apart
    (misclassification 0.64); run (c) clusters 200 distinct noisy rows into
    4 classes, so the linkage makes 196 merges."""

    RUNS = {
        "a": (
            ["--gen", "mod_exp", "--n-bits", "8", "--algo", "stoch",
             "--measure", "minguess", "--delta", "0.5", "--seed", "3"],
            {
                "classes.json": "8700c5c00ed2708f9dd0308bc9987a062d4135b8c84545ae63d66d7a4b01a04e",
                "enforcement.json": "9a0cec26344a174820695f074650e3e824aa01826abac109f6e3e6e975c06196",
                "mitigated.csv": "64c88309da97ddf4397dd4db168bdaa65fac45ff82333d838e1cee1b4371c761",
                "policy.json": "169dea02d6ddc821ab2f7fdd5d7bdd12b6c951d389bbec21d6bba1d674e34d6c",
                "summary.csv": "213826d389cff7c86336c0e1425bbd7582ca5a61a977f84babd8a96bb687adf8",
                "tree.json": "ee6a92d8d7ef98b6a878ce276e487d88ed9c5990c345b986eb58e1ab5f3da009",
            },
        ),
        "b": (
            ["--gen", "branch_loop", "--noise-sigma", "1.0", "--epsilon", "1.0",
             "--delta", "0.3", "--seed", "1"],
            {
                "classes.json": "f88166d884cca59f86de82c027f6db4fa8b9f99d47e13997e9d401d4c2648d96",
                "enforcement.json": "5a8b58b632a3ce6f9a87d3ec74bf6a19a37424fc4f0b90ff65b7030e8f3f9dc6",
                "mitigated.csv": "0cf5a88a88ebfd9d6c9c2ef9d185b1265880d06c2d42913a38d3f610aa107040",
                "policy.json": "236e03fe8b422b57da09730efd7d310e00dca3bf227610cb7a5162752af5e7a9",
                "summary.csv": "7abc16ee57ec962c8b4785ec0f4208db212494cf2150b8fb0f5ba0f31610ed32",
                "tree.json": "437f553d67a17303d1c94e6627b7e702d1fb88414a37ad45a7778c9e7ce428f1",
            },
        ),
        "c": (
            ["--gen", "branch_loop", "--group-sizes", "40,40,40,80",
             "--noise-sigma", "0.05", "--epsilon", "1.0", "--algo", "det"],
            {
                "classes.json": "7c8694f3edec52e4730b57b0fffb1d9540b893851af4ba898d46e835875b8cb2",
                "enforcement.json": "d345abbcbabc46b4987da0161f53dc7f2ed74cdcadce845e4655267a8ccb828d",
                "mitigated.csv": "73f955085eaede3445ba51b0406d4390f386e95cbea6afcb6c9e9deb84f54801",
                "policy.json": "a6f9cbd96975088ef511fa72dd2c93ad43620dcc0a978f93e0300d62f83631fd",
                "summary.csv": "3679e4d1dea926e89c9d8a163fcc5dfeab6cde8eca8baec81d7def0d5880d725",
                "tree.json": "98cc630e8c0d2f240c8f32b83c836fa2fc76fba5d2d35f9659decbe0e296134e",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_artifact_hashes(self, tmp_path, name):
        args, want = self.RUNS[name]
        assert run(["enforce"] + args, tmp_path) == 0
        got = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())
        }
        assert got == want


NINE_CLASS_SWEEP = [
    "sweep", "--gen", "branch_loop", "--group-sizes", "3,5,7,9,11,13,15,17,19",
    "--slopes", "1,2,3,4,5,6,7,8,9", "--sweep", "0.05:0.25:0.1", "--n-starts", "8",
]


class TestGoldenSubcommands:
    """Every artifact of every other subcommand, pinned by sha256 across
    commits on small generator runs: the dataset CSV (noisy and exact),
    classes, entropies, a DP policy, a local-search policy,
    both baselines, a sweep with its chart, and the comparison table."""

    RUNS = {
        "generate-branch-loop": (
            ["generate", "--gen", "branch_loop", "--noise-sigma", "0.3",
             "--seed", "1"],
            {
                "dataset.csv": "15ca322e4eb3d1975aded3f4f596b7b9f43d2c6723946c4bb8dce33257e4e44b",
            },
        ),
        "generate-mod-exp": (
            ["generate", "--gen", "mod_exp", "--n-bits", "6"],
            {
                "dataset.csv": "b568a0543d233ea49ad0f7d7c7f11730033b5eb0f885b7d113dfb64f6489ac51",
            },
        ),
        "cluster": (
            ["cluster", "--gen", "branch_loop", "--noise-sigma", "0.3",
             "--epsilon", "2.0", "--seed", "1"],
            {
                "classes.json": "1fb723b4463f48c7cd82f4398f761848beb0c10a3cb6bee37081e42216242f3f",
            },
        ),
        "entropy": (
            ["entropy", "--gen", "mod_exp", "--n-bits", "8"],
            {
                "entropy.json": "2bab67fa6a5648666f81f4ffef80578998c6d6a82e457b6b3be2d8fbe8bc2eb2",
            },
        ),
        "synthesize-det": (
            ["synthesize", "--gen", "mod_exp", "--n-bits", "6", "--algo", "det",
             "--measure", "shannon", "--delta", "0.3"],
            {
                "policy.json": "78d42b36741a65b9ec2195c795e67b2e86827ba09871fe146ba5eb13a54c4fe1",
            },
        ),
        "synthesize-stoch": (
            ["synthesize", "--gen", "branch_loop", "--algo", "stoch",
             "--measure", "guessing", "--delta", "0.4", "--n-starts", "2",
             "--seed", "2"],
            {
                "policy.json": "3f3a46193f5ad0f9a74e21698825605b062905972c978b73d220c37ae8b0083a",
            },
        ),
        "baseline-double": (
            ["baseline", "--gen", "mod_exp", "--n-bits", "6", "--baseline",
             "double"],
            {
                "baseline_classes.json": "59f1dcbca168448f7fe5d1dcae8ddec12adc2ff2f8baa9978356d1f396b934e4",
                "baseline_report.json": "2f1589045d9ff75ced0299aebd2f2499e99e983985a1538e2c1aad256975a3ec",
                "mitigated.csv": "ed687921038bacff2a351ed6944b03436101c8d06edd5ede6d65292d9a2408ca",
            },
        ),
        "baseline-bucketing": (
            ["baseline", "--gen", "branch_loop", "--noise-sigma", "0.3",
             "--epsilon", "2.0", "--seed", "1", "--baseline", "bucketing",
             "--buckets", "3"],
            {
                "baseline_classes.json": "d71393917e46100bce584e08b632e58a6f334db5a5344e0694b20985020b9091",
                "baseline_report.json": "6550696760f1444a9c10294c9d6620aab019ad16ec9d5b7bdd1a78dcea292394",
                "mitigated.csv": "ab66f7346a34e34d105bb4074facd5097c1014113545221802cae06a914a599e",
            },
        ),
        "sweep": (
            ["sweep", "--gen", "branch_loop", "--measure", "shannon", "--sweep",
             "0:0.5:0.25", "--n-starts", "2"],
            {
                "sweep.csv": "f671227cbd5b574d96fbb086f529e02b5f8db32e72e71c4b265a58ef75c91a40",
                "sweep.svg": "b3750dc18657f8b161d975b99b21554426498fad88be39f915b6946500654313",
            },
        ),
        # nine classes and eight random starts, so the local-search starts
        # end their ascents at different iterations and jump different times
        "sweep-9-shannon": (
            NINE_CLASS_SWEEP + ["--measure", "shannon"],
            {
                "sweep.csv": "52eef8cc838387d593278232c442ab8c77f961792c981070877e7c11df727741",
                "sweep.svg": "e340dd069b0461d802c605f8cfaa2f272f408f2aa3235c33b6a14c2c363b4343",
            },
        ),
        "sweep-9-guessing": (
            NINE_CLASS_SWEEP + ["--measure", "guessing"],
            {
                "sweep.csv": "7f6608a18ca0d5c227d2ec9f2742673e073ee68494c618bfb8aa939d39e27667",
                "sweep.svg": "94630373fd7db4a31f20586ea591ad35f8176db995fbb56eb8020979e8c08ba1",
            },
        ),
        "compare": (
            ["compare", "--gen", "mod_exp", "--n-bits", "6", "--delta", "0.5"],
            {
                "compare.csv": "4ba232a0f62082f475e36f289aaf59183270cf6219506ec9b89b8ffbea7f0913",
            },
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_artifact_hashes(self, tmp_path, name):
        args, want = self.RUNS[name]
        assert run(args, tmp_path) == 0
        got = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(tmp_path.iterdir())
        }
        assert got == want


class TestSweep:
    def test_rows_cover_grid_and_algos(self, tmp_path):
        args = ["sweep"] + BRANCH + ["--measure", "shannon",
                                     "--sweep", "0:1:0.25", "--n-starts", "2"]
        assert run(args, tmp_path) == 0
        header, rows = read_rows(tmp_path / "sweep.csv")
        assert header == ["delta", "algo", "measure", "entropy_after", "overhead"]
        assert len(rows) == 10
        for algo in ("det", "stoch"):
            ents = [float(r["entropy_after"]) for r in rows if r["algo"] == algo]
            assert len(ents) == 5
            assert all(b >= a for a, b in zip(ents, ents[1:]))
        for r in rows:
            assert float(r["overhead"]) <= float(r["delta"]) + 1e-9
        svg = (tmp_path / "sweep.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_generous_budget_reaches_full_merge(self, tmp_path):
        args = ["sweep"] + BRANCH + ["--measure", "minguess", "--algo", "det",
                                     "--sweep", "100:100:1"]
        assert run(args, tmp_path) == 0
        _, (row,) = read_rows(tmp_path / "sweep.csv")
        # 25 secrets in one class: smallest survivor has mass 25
        assert float(row["entropy_after"]) == pytest.approx((25 + 1) / 2)

    def test_sweep_requires_a_grid(self, tmp_path):
        assert run(["sweep"] + BRANCH, tmp_path) == 1

    def test_a_lower_entropy_at_a_larger_budget_repeats_the_best_point(
        self, tmp_path, monkeypatch
    ):
        # A policy feasible at 0.25 is feasible at 0.5, so a solve that does
        # worse there is replaced by the best point so far.
        solve = cli._solve

        def wobbly(classes, config, algo, delta):
            policy, report, diag = solve(classes, config, algo, delta)
            if delta == 0.5:
                report = dataclasses.replace(
                    report, entropy_after=-1.0, expected_overhead=0.0
                )
            return policy, report, diag

        monkeypatch.setattr(cli, "_solve", wobbly)
        args = ["sweep"] + BRANCH + ["--measure", "minguess", "--algo", "det",
                                     "--sweep", "0:0.75:0.25"]
        assert run(args, tmp_path) == 0
        _, rows = read_rows(tmp_path / "sweep.csv")
        points = [(r["entropy_after"], r["overhead"]) for r in rows]
        assert float(points[1][0]) > float(points[0][0])
        assert points[2] == points[1]
        assert float(points[3][0]) >= float(points[1][0])


class TestCompare:
    def test_one_row_per_method(self, tmp_path):
        args = ["compare"] + BRANCH + ["--delta", "0.5", "--measure", "minguess"]
        assert run(args, tmp_path) == 0
        header, rows = read_rows(tmp_path / "compare.csv")
        assert header == ["method", "classes_after", "minguess", "shannon",
                          "guessing", "overhead"]
        methods = [r["method"] for r in rows]
        assert methods == ["initial", "double", "bucketing", "det", "stoch"]
        by_method = {r["method"]: r for r in rows}
        assert float(by_method["initial"]["overhead"]) == 0.0
        for synth in ("det", "stoch"):
            assert float(by_method[synth]["overhead"]) <= 0.5 + 1e-9
        assert float(by_method["stoch"]["minguess"]) >= float(
            by_method["det"]["minguess"]
        )

    def test_zero_times_reach_the_doubling_baseline(self, tmp_path):
        # noise clipped at 0 leaves zero times beside positive ones
        noisy = BRANCH + ["--noise-sigma", "2.0"]
        assert np.any(gen_branch_loop((5, 5, 5, 10), (1.0, 2.0, 3.0, 4.0),
                                      noise_sigma=2.0).times == 0.0)
        assert run(["compare"] + noisy, tmp_path) == 0
        _, rows = read_rows(tmp_path / "compare.csv")
        assert [r["method"] for r in rows] == [
            "initial", "double", "bucketing", "det", "stoch"
        ]
        assert run(["baseline", "--baseline", "double"] + noisy, tmp_path) == 0

    @pytest.mark.parametrize("command", ["synthesize", "compare"])
    def test_over_budget_policy_is_a_data_error(self, tmp_path, monkeypatch,
                                                capsys, command):
        # Every reported policy is checked against its budget: the full merge
        # costs 0.43 of the time here, so at delta 0 no row may be written.
        def full_merge(classes, measure, delta):
            return full_merge_policy(classes.k), None

        monkeypatch.setattr(cli, "synthesize_det", full_merge)
        assert run([command] + BRANCH + ["--delta", "0"], tmp_path) == 2
        assert "exceeds budget 0.0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def other_than_default(field):
    """A legal value of a PipelineConfig field that is not its default."""
    default, choices = field.default, field.metadata.get("choices")
    if choices:
        return next(c for c in choices if c != default)
    if isinstance(default, (int, float)):
        return default + 1
    if isinstance(default, tuple):
        return default[::-1]
    return "x"


class TestConfigFile:
    """Every setting is one flag, checked when the command line is read."""

    @pytest.mark.parametrize("raw", [
        ["--delta", "x"], ["--n-bits", "2.5"], ["--seed", "true"],
    ])
    def test_mistyped_value_rejected(self, tmp_path, capsys, raw):
        flag, text = raw
        assert run(["cluster"] + MOD_EXP + raw, tmp_path) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"argument {flag}: invalid" in err and f"value: {text!r}" in err
        assert not (tmp_path / "classes.json").exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("synthesize", ["--measure", "bogus"], "--measure: invalid choice"),
            ("synthesize", ["--algo", "both"], "--algo: invalid choice"),
            ("cluster", ["--gen", "rsa"], "--gen: invalid choice"),
            ("baseline", ["--baseline", "none"], "--baseline: invalid choice"),
            ("cluster", ["--epsilon", "nan"], "epsilon must be > 0"),
            ("synthesize", ["--delta", "nan"], "delta must be >= 0"),
            ("sweep", ["--sweep", "nan:1:0.25"], "--sweep expects finite"),
            ("sweep", ["--sweep", "0:inf:0.25"], "--sweep expects finite"),
            # the tree sizes itself and the config file is gone: a removed
            # setting left in a command line is refused, not silently ignored
            ("enforce", ["--max-depth", "0"], "unrecognized arguments: --max-depth"),
            ("enforce", ["--min-leaf", "0"], "unrecognized arguments: --min-leaf"),
            ("cluster", ["--n-bits", "0"], "n_bits must be in [1, 20]"),
            ("cluster", ["--gen", "branch_loop", "--n-publics", "0"],
             "n_publics must be >= 1"),
            ("baseline", ["--baseline", "bucketing", "--buckets", "0"],
             "buckets must be >= 1"),
            ("cluster", ["--noise-sigma", "-1"], "noise_sigma must be finite"),
            ("cluster", ["--noise-sigma", "nan"], "noise_sigma must be finite"),
            ("cluster", ["--unit-cost", "1"], "unrecognized arguments: --unit-cost"),
            ("cluster", ["--gen", "branch_loop", "--group-sizes", "2,2",
                         "--slopes", "1,nan"],
             "slopes must be finite, positive and strictly increasing"),
            ("cluster", ["--gen", "branch_loop", "--group-sizes", "0,5",
                         "--slopes", "1,2"], "group sizes must be positive"),
            ("synthesize", ["--algo", "stoch", "--measure", "shannon",
                            "--n-starts", "-3"], "n_starts must be >= 0"),
            # one over the cap: rejected before any start is built
            ("synthesize", ["--algo", "stoch", "--measure", "shannon",
                            "--n-starts", str(MAX_STARTS + 1)],
             f"n_starts must be <= {MAX_STARTS}"),
            # removed settings, as above
            ("enforce", ["--max-depth", str(MAX_DEPTH + 1)],
             "unrecognized arguments: --max-depth"),
            ("cluster", ["--config", "x.json"], "unrecognized arguments: --config"),
            ("synthesize", ["--dump-tables"], "unrecognized arguments: --dump-tables"),
            # a table too large to build is refused before it is allocated
            ("cluster", ["--gen", "branch_loop", "--n-publics", "1000000000"],
             "sum(group_sizes) * n_publics must be <= 20971500"),
        ],
        ids=["measure", "algo", "gen", "baseline", "epsilon-nan", "delta-nan",
             "sweep-nan", "sweep-inf", "max-depth-flag", "min-leaf-flag",
             "n-bits-0", "n-publics-0", "buckets-0", "noise-sigma-negative",
             "noise-sigma-nan", "unit-cost-flag", "slopes-nan", "group-sizes-0",
             "n-starts-negative",
             "n-starts-over-cap", "max-depth-over-cap", "config", "dump-tables",
             "branch-loop-over-cap"],
    )
    def test_value_outside_its_domain_rejected(self, tmp_path, capsys,
                                               command, flags, message):
        rc = run([command, "--gen", "mod_exp", "--n-bits", "4"] + flags, tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert list(tmp_path.iterdir()) == []

    def test_list_values_reach_the_generator(self, tmp_path):
        args = ["cluster"] + BRANCH + ["--group-sizes", "2,3", "--slopes", "1,2"]
        assert run(args, tmp_path) == 0
        data = json.loads((tmp_path / "classes.json").read_text())
        assert [c["size"] for c in data["classes"]] == [2, 3]

    @pytest.mark.parametrize(
        "flags, noun",
        [(["--slopes", "1,x"], "number"), (["--group-sizes", "2,2.5"], "integer")],
    )
    def test_bad_list_flag(self, tmp_path, capsys, flags, noun):
        rc = run(["cluster", "--gen", "branch_loop"] + flags, tmp_path)
        assert rc == 1
        err = capsys.readouterr().err
        assert f"expected a comma-separated {noun} list, got '{flags[1]}'" in err

    def test_every_setting_is_one_flag(self):
        # PipelineConfig declares each setting once: every field but
        # command is, in field order, one flag of every subcommand, and
        # that flag sets the field.
        names = [f.name for f in dataclasses.fields(PipelineConfig)][1:]
        flags = ["--" + name.replace("_", "-") for name in names]
        parser = cli._build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(cli._COMMANDS) and len(sub.choices) == 8
        for command, sub_parser in sub.choices.items():
            actions = [a for a in sub_parser._actions if a.dest != "help"]
            assert [a.dest for a in actions] == names
            assert [a.option_strings for a in actions] == [[f] for f in flags]
        for field, flag in zip(dataclasses.fields(PipelineConfig)[1:], flags):
            value = other_than_default(field)
            if isinstance(value, tuple):
                argv = [flag, ",".join(map(str, value))]
            else:
                argv = [flag, str(value)]
            args = parser.parse_args(["cluster"] + argv)
            assert getattr(cli._build_config(args), field.name) == value
