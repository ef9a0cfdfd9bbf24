import csv
import math
import warnings

import numpy as np
import pytest

from leakmit import timing
from leakmit.timing import (
    PublicGrid,
    TimingDataset,
    gen_branch_loop,
    gen_mod_exp,
    read_csv,
    relative_overhead,
    write_csv,
    write_table,
)

from oracles import dataset_csv_oracle


def grid(*points):
    return PublicGrid(tuple(float(p) for p in points))


class TestPublicGrid:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            PublicGrid((1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            PublicGrid((2.0, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PublicGrid(())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PublicGrid((1.0, bad))

    def test_frozen(self):
        g = grid(1, 2, 3)
        with pytest.raises(AttributeError):
            g.points = (4.0,)
        # the array view is a copy, mutating it cannot corrupt the grid
        g.array[0] = 9.0
        assert g.points[0] == 1.0


class TestModExpGenerator:
    def test_cost_model_single_cell(self):
        ds = gen_mod_exp(10, 1.0, 0.0, seed=0)
        secret = next(s for s in ds.secrets if int(s).bit_count() == 3)
        y_index = list(ds.grid.points).index(4.0)
        assert ds.times[ds.secrets.index(secret), y_index] == 12.0

    def test_popcount_groups_have_binomial_sizes(self):
        ds = gen_mod_exp(10, 1.0, 0.0, seed=0)
        counts = {}
        for s in ds.secrets:
            counts[int(s).bit_count()] = counts.get(int(s).bit_count(), 0) + 1
        assert [counts[w] for w in range(1, 11)] == [
            10, 45, 120, 210, 252, 210, 120, 45, 10, 1,
        ]

    def test_single_bit_space(self):
        ds = gen_mod_exp(1, 1.0, 0.0, seed=0)
        assert ds.secrets == (1,)
        assert ds.times.shape == (1, 1)

    def test_equal_popcount_secrets_share_a_function(self):
        ds = gen_mod_exp(6, 2.0, 0.0, seed=0)
        by_weight = {}
        for s in ds.secrets:
            by_weight.setdefault(int(s).bit_count(), []).append(s)
        for members in by_weight.values():
            rows = ds.times[[ds.secrets.index(s) for s in members]]
            assert np.array_equal(rows, np.broadcast_to(rows[0], rows.shape))

    def test_seed_reproducibility_with_noise(self):
        a = gen_mod_exp(5, 1.0, 0.3, seed=7)
        b = gen_mod_exp(5, 1.0, 0.3, seed=7)
        c = gen_mod_exp(5, 1.0, 0.3, seed=8)
        assert np.array_equal(a.times, b.times)
        assert not np.array_equal(a.times, c.times)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_mod_exp(0, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_mod_exp(21, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_mod_exp(4, 0.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_mod_exp(4, 1.0, -0.1, seed=0)
        # NaN used to pass every check and fail later as "execution times
        # must be finite".
        for unit_cost, sigma in ((math.nan, 0.0), (math.inf, 0.0),
                                 (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="unit_cost|noise_sigma"):
                gen_mod_exp(4, unit_cost, sigma, seed=0)


class TestBranchLoopGenerator:
    def test_group_shape(self):
        ds = gen_branch_loop((5, 5, 5, 10), (1.0, 2.0, 3.0, 4.0), 50, 0.0, 0)
        assert ds.n_secrets == 25
        distinct = {tuple(row) for row in ds.times}
        assert len(distinct) == 4

    def test_single_group_line(self):
        ds = gen_branch_loop((1,), (1.0,), n_publics=3, noise_sigma=0.0, seed=0)
        assert list(ds.grid.points) == [1.0, 2.0, 3.0]
        assert list(ds.times[0]) == [1.0, 2.0, 3.0]

    def test_slopes_must_strictly_increase(self):
        with pytest.raises(ValueError):
            gen_branch_loop((2, 2), (1.0, 1.0), 5, 0.0, 0)
        with pytest.raises(ValueError):
            gen_branch_loop((2, 2), (2.0, 1.0), 5, 0.0, 0)

    def test_non_finite_parameters_rejected(self):
        for slopes in ((math.nan, 2.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="slopes"):
                gen_branch_loop((2, 2), slopes, 5, 0.0, 0)
        with pytest.raises(ValueError, match="noise_sigma"):
            gen_branch_loop((2, 2), (1.0, 2.0), 5, math.nan, 0)


class TestCsvRoundTrip:
    def test_write_then_read(self, tmp_path):
        ds = gen_mod_exp(4, 1.5, 0.2, seed=3)
        path = tmp_path / "data.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert back.secrets == ds.secrets
        assert np.array_equal(back.grid.points, ds.grid.points)
        assert np.array_equal(back.times, ds.times)

    def test_header_is_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,1,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "secret_id,public_value,time_seconds\n1,1,1.0\n1,1,2.0\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            read_csv(path)

    def test_missing_cell_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            "secret_id,public_value,time_seconds\n"
            "1,1,1.0\n1,2,2.0\n2,1,1.0\n"
        )
        with pytest.raises(ValueError, match="missing"):
            read_csv(path)

    def test_rows_in_any_order(self, tmp_path):
        # Secrets keep the order of their first row; the grid is sorted.
        path = tmp_path / "shuffled.csv"
        path.write_text(
            "secret_id,public_value,time_seconds\n"
            "7,2,4.0\n3,1,1.0\n7,1,3.0\n3,2,2.0\n"
        )
        back = read_csv(path)
        assert back.secrets == (7, 3)
        assert back.grid.points == (1.0, 2.0)
        assert back.times.tolist() == [[3.0, 4.0], [1.0, 2.0]]

    def test_errors_count_blank_lines(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "secret_id,public_value,time_seconds\n"
            "1,1,1.0\n\n2,1,1.0\n\n2,1,3.0\n1,1,2.0\n"
        )
        with pytest.raises(ValueError, match=r":6: duplicate observation for secret 2"):
            read_csv(path)
        path.write_text(
            "secret_id,public_value,time_seconds\n"
            "1,1,1.0\n\n3,1,1.0\n2,1,1.0\n1,2,2.0\n"
        )
        with pytest.raises(ValueError, match="secret 3 is missing grid points"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["1,nan,1.0", "1,1,inf", "1,1,nan"])
    def test_non_finite_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"secret_id,public_value,time_seconds\n1,2,1.0\n{cell}\n")
        with pytest.raises(ValueError, match=r":3: values must be finite"):
            read_csv(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_csv(tmp_path / "absent.csv")


H = "secret_id,public_value,time_seconds\n"
# Inputs on which the loadtxt path and the checked loop must agree.
READ_CASES = {
    "spaces": H + " 1 , 1 , 1.5 \n 2 ,1, 2.5\n",
    "tabs": H + "\t1\t,1,\t1.5\n",
    "nbsp": H + "\xa01,1,1.5\xa0\n",
    "signs": H + "+1,+1,+1.5\n-0,1,-0\n",
    "bare-dots": H + "1,1.,.5\n",
    "leading-zeros": H + "007,01,01.50\n",
    "01-and-1": H + "01,1,1.0\n1,1,2.0\n",
    "nan": H + "1,nan,1.0\n",
    "NaN": H + "1,1,NaN\n",
    "Infinity": H + "1,1,Infinity\n",
    "1e400": H + "1,1,1e400\n",
    "400-digits": H + "1,1," + "9" * 400 + "\n",
    "hex-secret": H + "0x1,1,1.0\n",
    "1d3": H + "1,1,1d3\n",
    "float-secret": H + "1.0,1,1.0\n",
    "exp-secret": H + "1e1,1,1.0\n",
    "2**63": H + f"{2**63},1,1.0\n{2**63 + 1},1,2.0\n",
    "-2**63": H + f"{-2**63},1,1.0\n",
    "underscore": H + "1_0,1,1.0\n",
    "unicode-digit": H + "\u0661,1,1.0\n",
    "subnormals": H + "1,1,5e-324\n2,1,2.2250738585072014e-308\n",
    "blank-lines": H + "\n1,1,1.0\n\n2,1,2.0\n\n",
    "whitespace-line": H + "1,1,1.0\n   \n",
    "comment": H + "1,1,1.0\n#2,1,2.0\n",
    "quoted": H + '"1",1,"1.5"\n',
    "cr": (H + "1,1,1.0\n2,1,2.0\n").replace("\n", "\r"),
    "crlf": (H + "1,1,1.0\n2,1,2.0\n").replace("\n", "\r\n"),
    "cr-header": H.replace("\n", "\r") + "1,1,1.0\n",
    "nul": H + "1,1,1.0\x00\n",
    "trailing-comma": H + "1,1,1.0,\n",
    "two-columns": H + "1,1\n",
    "empty-field": H + "1,,1.0\n",
    "over-field-limit": H + "1,1," + "0" * 140_000 + "1\n",
    "header-only": H,
    "header-and-blanks": H + "\n\r\n",
    "empty": "",
    "duplicate": H + "1,1,1.0\n2,1,1.0\n1,1,2.0\n",
    "missing-point": H + "1,1,1.0\n1,2,2.0\n2,1,1.0\n",
    "overflowing-total": H + "1,1,1e308\n1,2,1e308\n",
    "negative-time": H + "1,1,-1.0\n",
    "wrong-header": "a,b,c\n1,1,1.0\n",
    "spaced-header": " secret_id , public_value,time_seconds \n1,1,1.0\n",
    "quoted-header": '"secret_id","public_value","time_seconds"\n1,1,1.0\n',
    "two-line-header": '"secret_id\n",public_value,time_seconds\n1,1,1.0\n',
    "shuffled": H + "7,2,4.0\n3,1,1.0\n7,1,3.0\n3,2,2.0\n",
}


def _outcome(read, path):
    try:
        ds = read(path)
    except Exception as exc:  # the loop's exception is the reference
        return type(exc), str(exc)
    return ds.secrets, ds.grid.points, ds.times.tobytes()


def _assert_read_matches_the_loop(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(read_csv, path)
    assert caught == []
    assert got == _outcome(timing._read_rows, path)


class TestReadCsvMatchesTheLoop:
    @pytest.mark.parametrize("text", READ_CASES.values(), ids=READ_CASES.keys())
    def test_edge_inputs(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode())
        _assert_read_matches_the_loop(path)

    def test_a_written_dataset_is_read_once(self, tmp_path, monkeypatch):
        # Only an input that loadtxt refuses or that fails a check is read
        # again by the loop.
        path = tmp_path / "in.csv"
        write_csv(gen_branch_loop((40, 40), (1.0, 2.0), 50, 0.05, 1), path)
        monkeypatch.setattr(timing, "_read_rows", lambda p: pytest.fail("read twice"))
        assert read_csv(path).times.shape == (80, 50)

    @pytest.mark.parametrize("dataset", [
        lambda: gen_mod_exp(10, 1.0, 0.0, seed=0),
        lambda: gen_branch_loop((40, 40, 40, 40), (1.0, 2.0, 3.0, 4.0), 50, 0.05, 1),
        lambda: TimingDataset((2**70, -3, 0), grid(-1.5, 0.0, 2.0),
                              [[0.0, 1.0, 5e-324], [-0.0, 1e300, 2.5], [3.0, 3.0, 3.0]]),
    ], ids=["mod-exp", "noisy", "wide-secrets"])
    def test_written_datasets(self, tmp_path, dataset):
        path = tmp_path / "in.csv"
        write_csv(dataset(), path)
        _assert_read_matches_the_loop(path)


class TestWriteTable:
    @pytest.mark.parametrize("n_secrets, n_points", [
        (1, 1), (3, 14), (700, 14), (2, 5000), (5, 4096), (5, 4097), (9, 2048),
    ])
    def test_dataset_bytes_match_the_row_loop(self, tmp_path, n_secrets, n_points):
        # Block edges: a grid longer than one block, a block that ends
        # mid-dataset, and a last block shorter than the rest.
        rng = np.random.default_rng(n_secrets * n_points)
        times = rng.exponential(3.0, size=(n_secrets, n_points))
        times[0, 0] = -0.0
        times[-1, -1] = 1e300
        secrets = tuple(range(-1, n_secrets - 1))
        ds = TimingDataset(secrets, PublicGrid(tuple(np.arange(n_points) * 0.1)), times)
        write_csv(ds, tmp_path / "a.csv")
        dataset_csv_oracle(ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("secrets", [(2**70, 3), (2**63, 1), (-1, 2**63)])
    def test_secret_ids_beyond_int64(self, tmp_path, secrets):
        # NumPy holds (2**63, 1) as float64, which would print 9.2e+18.
        ds = TimingDataset(secrets, grid(1, 2), [[1.0, 2.0], [3.0, 4.0]])
        write_csv(ds, tmp_path / "a.csv")
        dataset_csv_oracle(ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert read_csv(tmp_path / "a.csv").secrets == secrets

    CELL_TABLES = [
        ([
            (["a,b.csv", 'say "hi"', "plain"], [1, np.int64(2), 3],
             [0.1, np.float64(0.1), np.float32(0.1)]),
            (["line\nbreak"], np.array([4]), np.array([1e-7])),
            # summary.csv holds inf under --delta inf
            (["inf", "-inf", "-0"], [5, 6, 7],
             [math.inf, np.float64(-math.inf), np.float32(-0.0)]),
        ], (
            'name,n,x\n"a,b.csv",1,0.1\n"say ""hi""",2,0.1\n'
            "plain,3,0.10000000149011612\n"
            '"line\nbreak",4,1e-07\n'
            "inf,5,inf\n-inf,6,-inf\n-0,7,-0.0\n"
        )),
        # Float arrays are printed once per distinct value.  0.0 and -0.0
        # are equal but print differently, so they must not share a string.
        ([(np.array(["z", "nz", "nan", "inf", "-inf", "sub", "z"]),
           np.arange(7, dtype=np.int64),
           np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 0.0])),
          (np.array(["f32", "f32"]), np.array([7, 8], dtype=np.uint8),
           np.array([0.1, -0.0], dtype=np.float32))], (
            "name,n,x\nz,0,0.0\nnz,1,-0.0\nnan,2,nan\ninf,3,inf\n"
            "-inf,4,-inf\nsub,5,5e-324\nz,6,0.0\n"
            "f32,7,0.10000000149011612\nf32,8,-0.0\n"
        )),
    ]

    def test_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        for blocks, expected in self.CELL_TABLES:
            write_table(path, ("name", "n", "x"), blocks)
            assert path.read_text() == expected
            # The same bytes as the csv module writing one row at a time.
            with open(tmp_path / "ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(("name", "n", "x"))
                for block in blocks:
                    for row in zip(*block):
                        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                                         else v for v in row])
            assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    TEXT = ["a,b", 'say "hi"', "cr\r", "lf\n", "crlf\r\n", "", " lead", "trail ",
            "naïve 東京"]
    OTHER = [None, True, np.int64(7), np.float32(0.1), -0.0]

    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_text_cells_match_csv_writer(self, tmp_path, width, as_array):
        # Every cell lands in every column; width 1 has the csv module's
        # one special record, a single empty field.
        cells = self.TEXT + self.OTHER + self.TEXT[:width - 1]
        rows = [cells[i:i + width] for i in range(len(cells) - width + 1)]
        columns = [np.array(c, dtype=object) if as_array else c for c in zip(*rows)]
        for header in (self.TEXT[i:i + width] for i in range(len(self.TEXT) - width + 1)):
            write_table(tmp_path / "a.csv", header, [columns, columns])
            with open(tmp_path / "b.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                for row in rows + rows:
                    writer.writerow([float(v) if isinstance(v, np.floating) else v
                                     for v in row])
            assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_empty_table_is_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("a", "b"), [])
        assert path.read_text() == "a,b\n"


class TestDatasetInvariants:
    def test_duplicate_secrets_rejected(self):
        g = grid(1, 2)
        with pytest.raises(ValueError):
            TimingDataset((1, 1), g, np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TimingDataset((1, 2), grid(1, 2), [[1.0, 2.0], [bad, 2.0]])

    def test_relative_overhead(self):
        ds = TimingDataset((1, 2), grid(1, 2), [[1.0, 2.0], [3.0, 4.0]])
        padded = ds.with_times([[1.5, 2.0], [3.0, 5.5]])
        assert relative_overhead(ds, padded) == 0.2
        assert relative_overhead(ds, ds) == 0.0

    def test_times_are_read_only(self):
        ds = gen_mod_exp(3, 1.0, 0.0, seed=0)
        with pytest.raises(ValueError):
            ds.times[0, 0] = 99.0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TimingDataset((), grid(1, 2), np.ones((0, 2))),
         "at least one secret"),
        (lambda: TimingDataset((1, 2), grid(1, 2), np.ones((2, 3))),
         "times matrix must be n_secrets x n_grid_points"),
        (lambda: TimingDataset((1, 2), grid(1, 2), [[1.0, 2.0], [-1.0, 2.0]]),
         "execution times must be non-negative"),
        (lambda: gen_branch_loop((), (), 5, 0.0, 0), "need at least one group"),
        (lambda: gen_branch_loop((0, 5), (1.0, 2.0), 5, 0.0, 0),
         "group sizes must be positive"),
    ],
    ids=["no-secrets", "wrong-shape", "negative-time", "no-groups", "empty-group"],
)
def test_bad_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()
