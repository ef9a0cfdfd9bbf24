import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from leakmit import cli
from leakmit.cli import ConfigError, _parse_sweep_grid, main
from leakmit.errors import SolverError
from leakmit.timing import gen_mod_exp, read_csv


MOD_EXP = ["--gen", "mod_exp", "--n-bits", "6"]
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

    def test_solver_failures_map_to_3(self, tmp_path, monkeypatch, capsys):
        def explode(config):
            raise SolverError("no policy")

        monkeypatch.setitem(cli._DISPATCH, "cluster", explode)
        assert run(["cluster"] + MOD_EXP, tmp_path) == 3
        assert "solver error" in capsys.readouterr().err


class TestSweepGrid:
    def test_inclusive_endpoints(self):
        assert _parse_sweep_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_single_point(self):
        assert _parse_sweep_grid("0.5:0.5:1") == [0.5]

    def test_shape_errors(self):
        for bad in ("1:2", "a:b:c", "0:1:0", "1:0:1"):
            with pytest.raises(ConfigError):
                _parse_sweep_grid(bad)


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

    def test_dump_tables(self, tmp_path):
        args = ["synthesize"] + MOD_EXP + ["--algo", "det", "--dump-tables"]
        assert run(args, tmp_path) == 0
        text = (tmp_path / "dp_tables.csv").read_text()
        assert text.startswith("i,value_r1")

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
    run (b) covers timing features and padding of executions the depth-2
    tree gets wrong (misclassification 0.2); run (c) clusters 200 distinct
    noisy rows into 4 classes, so the linkage makes 196 merges."""

    RUNS = {
        "a": (
            ["--gen", "mod_exp", "--n-bits", "8", "--algo", "stoch",
             "--measure", "minguess", "--delta", "0.5", "--seed", "3"],
            {
                "classes.json": "8700c5c00ed2708f9dd0308bc9987a062d4135b8c84545ae63d66d7a4b01a04e",
                "enforcement.json": "9a0cec26344a174820695f074650e3e824aa01826abac109f6e3e6e975c06196",
                "mitigated.csv": "64c88309da97ddf4397dd4db168bdaa65fac45ff82333d838e1cee1b4371c761",
                "policy.json": "3d046a87a56e96ff2e83554844fc5068cad45d1525eee4b29a183622080258ed",
                "summary.csv": "213826d389cff7c86336c0e1425bbd7582ca5a61a977f84babd8a96bb687adf8",
                "tree.json": "b8bae00b3cd3ca3005a2aeb5773a0d91d0ea81b68723c40f77338095c5ac5a15",
            },
        ),
        "b": (
            ["--gen", "branch_loop", "--noise-sigma", "0.3", "--epsilon", "2.0",
             "--max-depth", "2", "--delta", "0.3", "--seed", "1"],
            {
                "classes.json": "1fb723b4463f48c7cd82f4398f761848beb0c10a3cb6bee37081e42216242f3f",
                "enforcement.json": "df2d00df786a3f273146e83fadabfb121ae5c9fbe84ebde72874b7ccb440c809",
                "mitigated.csv": "149f10e1fae1d8fa16ba8d4aca23dc3a9fb4113a16b60bcaf7955fcb5fb51e03",
                "policy.json": "3c0b5732e09d8e0e4091b1ecaf57443ef035a4ec6680f820d59e927a6fb2612d",
                "summary.csv": "23ac3d81d6f967ba812a0436c1bd7a149a38a00ab15f42542813ba346958dbe2",
                "tree.json": "e1f70d0235f7b464ffc85681a99a890b901782cd5c1702c05c52c98447fbfe50",
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
                "tree.json": "19db7bd33c8f443f8e6218d2eb4fe35b03b7bfad65031516723cc48405088a0e",
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


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "gen": "mod_exp", "n_bits": 6, "delta": 0.0, "measure": "shannon",
            "algo": "det",
        }))
        out_a = tmp_path / "a"
        assert main(["synthesize", "--config", str(cfg), "--out", str(out_a)]) == 0
        data = json.loads((out_a / "policy.json").read_text())
        assert data["overhead"] == 0.0

        out_b = tmp_path / "b"
        rc = main(["synthesize", "--config", str(cfg), "--delta", "100",
                   "--out", str(out_b)])
        assert rc == 0
        data = json.loads((out_b / "policy.json").read_text())
        assert data["entropy_after"] > data["entropy_before"]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": "mod_exp", "volume": 11}))
        assert main(["cluster", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "raw", [{"delta": "x"}, {"group_sizes": 5}, {"n_bits": 2.5}]
    )
    def test_mistyped_value_rejected(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": "mod_exp", **raw}))
        assert main(["cluster", "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "classes.json").exists()

    @pytest.mark.parametrize(
        "command, raw, flags",
        [
            ("synthesize", {"measure": "bogus"}, []),
            ("synthesize", {"algo": "both"}, []),
            ("cluster", {"gen": "rsa"}, []),
            ("baseline", {"baseline": "none"}, []),
            ("cluster", {}, ["--epsilon", "nan"]),
            ("synthesize", {}, ["--delta", "nan"]),
            ("sweep", {}, ["--sweep", "nan:1:0.25"]),
            ("sweep", {}, ["--sweep", "0:inf:0.25"]),
        ],
        ids=["measure", "algo", "gen", "baseline", "epsilon-nan", "delta-nan",
             "sweep-nan", "sweep-inf"],
    )
    def test_value_outside_its_domain_rejected(self, tmp_path, capsys,
                                               command, raw, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gen": "mod_exp", "n_bits": 4, **raw}))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path)] + flags)
        assert rc == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path):
        assert main(["cluster", "--config", str(tmp_path / "nope.json")]) == 1
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["cluster", "--config", str(broken)]) == 1
        listy = tmp_path / "list.json"
        listy.write_text("[1, 2]")
        assert main(["cluster", "--config", str(listy)]) == 1
