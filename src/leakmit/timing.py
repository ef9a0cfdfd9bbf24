"""Timing datasets, their CSV form, and synthetic benchmark generators.

A timing function maps a public input magnitude to an execution time for one
fixed secret.  A dataset holds one such function per secret, sampled on a
shared grid of public values, as one row of its ``times`` matrix, and the
secrets themselves as one read-only id array beside it, not one Python
object per secret.  The two generators model a square-and-multiply style
loop (cost proportional to the number of set bits of the secret) and a
secret-dependent branch whose loop count grows linearly in the public value.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "PublicGrid",
    "TimingDataset",
    "secret_ids",
    "relative_overhead",
    "gen_mod_exp",
    "gen_branch_loop",
    "write_table",
    "write_csv",
    "read_csv",
]

CSV_HEADER = ("secret_id", "public_value", "time_seconds")
CSV_BLOCK_ROWS = 4096
MAX_CELLS = (2**20 - 1) * 20  # gen_mod_exp's table at n_bits = 20


@dataclass(frozen=True, eq=False)
class PublicGrid:
    """Strictly increasing public-input magnitudes shared by all functions,
    copied into one read-only float64 array and checked once."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1:
            raise ValueError("public grid points must be one flat sequence")
        if not pts.size:
            raise ValueError("public grid must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("public grid points must be finite")
        if np.any(pts[1:] <= pts[:-1]):
            raise ValueError("public grid points must be strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.size


def secret_ids(values) -> np.ndarray:
    """Secret identifiers as one read-only array, checked once.

    Integers of any kind and size are accepted; a float or a string is a
    ValueError, and so are no ids or a repeated one.  The array is int64,
    or holds Python ints (dtype object) when an id does not fit in int64.
    A read-only int64 array is kept as it is; anything else is copied.
    """
    try:
        ids = np.asarray(values)
    except ValueError:  # a ragged sequence
        ids = np.asarray(None)
    if ids.ndim == 1 and ids.dtype.kind in "biu" and np.can_cast(ids.dtype, np.int64):
        ids = ids.astype(np.int64, copy=ids is values and ids.flags.writeable)
    else:
        # NumPy saw no int64-sized integers: floats, strings, ids beyond
        # 64 bits, or ints it widened to float.  Each id decides for itself.
        try:
            ids = [operator.index(v) for v in values]
        except TypeError:
            raise ValueError("secret identifiers must be integers") from None
        try:
            ids = np.array(ids, dtype=np.int64)
        except OverflowError:
            ids = np.array(ids, dtype=object)
    if not ids.size:
        raise ValueError("dataset must contain at least one secret")
    # Ascending ids, as the generators make and CSVs mostly hold, are
    # unique without a sort.
    if not (ids[1:] > ids[:-1]).all():
        ordered = np.sort(ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("secret identifiers must be unique")
    ids.flags.writeable = False
    return ids


@dataclass(frozen=True)
class TimingDataset:
    """Per-secret timing functions over a shared grid.

    ``secrets`` is one read-only id array (see :func:`secret_ids`), and
    ``times[i, p]`` is the observed execution time of ``secrets[i]`` at grid
    point ``p``.  Both are frozen; derived datasets are new objects that
    share the ids.
    """

    secrets: np.ndarray
    grid: PublicGrid
    times: np.ndarray

    def __post_init__(self):
        secrets = secret_ids(self.secrets)
        times = np.array(self.times, dtype=float)
        if times.shape != (secrets.size, len(self.grid)):
            raise ValueError("times matrix must be n_secrets x n_grid_points")
        if not np.all(np.isfinite(times)):
            raise ValueError("execution times must be finite")
        if np.any(times < 0):
            raise ValueError("execution times must be non-negative")
        # Every overhead divides by the total, so it must not overflow.
        with np.errstate(over="ignore"):
            total = times.sum()
        if not np.isfinite(total):
            raise ValueError("execution times must sum to a finite total")
        times.flags.writeable = False
        object.__setattr__(self, "secrets", secrets)
        object.__setattr__(self, "times", times)

    @property
    def n_secrets(self) -> int:
        return self.secrets.size

    def with_times(self, times: np.ndarray) -> "TimingDataset":
        return TimingDataset(self.secrets, self.grid, times)


def relative_overhead(original: TimingDataset, mitigated: TimingDataset) -> float:
    """Relative added time (mitigated - original) / original, over all executions."""
    base = float(original.times.sum())
    return (float(mitigated.times.sum()) - base) / base


def _apply_noise(times: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    # Every parameter check is written as "not (in range)" so that NaN fails.
    if not 0 <= sigma < math.inf:
        raise ValueError("noise_sigma must be finite and >= 0")
    if sigma == 0:
        return times
    rng = np.random.default_rng(seed)
    noisy = times + rng.normal(0.0, sigma, size=times.shape)
    return np.clip(noisy, 0.0, None)


def gen_mod_exp(
    n_bits: int,
    unit_cost: float = 1.0,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> TimingDataset:
    """Square-and-multiply cost model: time(s, y) = unit_cost * setbits(s) * y.

    Secrets are every integer in [1, 2**n_bits - 1], the public grid is the
    possible set-bit counts {1..n_bits}, and optional Gaussian noise is added
    per observation (clamped at zero).
    """
    if not 1 <= int(n_bits) <= 20:
        raise ValueError("n_bits must be in [1, 20]")
    if not 0 < unit_cost < math.inf:
        raise ValueError("unit_cost must be finite and positive")
    n_bits = int(n_bits)
    secrets = np.arange(1, 2**n_bits, dtype=np.int64)
    setbits = np.zeros(secrets.size, dtype=np.int64)
    for b in range(n_bits):
        setbits += (secrets >> b) & 1
    grid = PublicGrid(np.arange(1.0, n_bits + 1))
    base = unit_cost * setbits[:, None].astype(float) * grid.points[None, :]
    times = _apply_noise(base, noise_sigma, seed)
    return TimingDataset(secrets, grid, times)


def gen_branch_loop(
    group_sizes: Sequence[int],
    slopes: Sequence[float],
    n_publics: int = 50,
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> TimingDataset:
    """Secret-dependent branch: group g loops slopes[g] times per public unit.

    ``group_sizes[g]`` secrets share the g-th branch, so with zero noise the
    dataset collapses into exactly ``len(group_sizes)`` distinct functions.
    """
    sizes = [int(g) for g in group_sizes]
    slope_list = [float(s) for s in slopes]
    if len(sizes) != len(slope_list):
        raise ValueError("group_sizes and slopes must have equal length")
    if not sizes:
        raise ValueError("need at least one group")
    if any(g <= 0 for g in sizes):
        raise ValueError("group sizes must be positive")
    if not all(0 < s < math.inf for s in slope_list) or not all(
        b > a for a, b in zip(slope_list, slope_list[1:])
    ):
        raise ValueError("slopes must be finite, positive and strictly increasing")
    if int(n_publics) < 1:
        raise ValueError("n_publics must be >= 1")
    if sum(sizes) * int(n_publics) > MAX_CELLS:
        raise ValueError(f"sum(group_sizes) * n_publics must be <= {MAX_CELLS}")
    slope_per_secret = np.repeat(np.asarray(slope_list), sizes)
    grid = PublicGrid(np.arange(1.0, int(n_publics) + 1))
    base = slope_per_secret[:, None] * grid.points[None, :]
    times = _apply_noise(base, noise_sigma, seed)
    return TimingDataset(np.arange(slope_per_secret.size), grid, times)


def write_table(path: str | Path, header: Sequence[str], blocks: Iterable) -> None:
    """Write a CSV table: ``header``, then the rows of each block in turn.

    Every CSV file the package writes goes through here.  A block is one
    column per header field, each a NumPy array or a sequence of cells, and
    only one block at a time is turned into text, so a caller streams a
    large table by yielding small blocks.  Floats are written as
    ``repr(float(v))``, every line ends in a bare line feed, and every other
    cell is written the way ``csv.writer`` writes it, quoting included.
    """
    with open(path, "w", newline="") as fh:
        fh.write(next(_lines([[field] for field in _strings(header)]), "") + "\n")
        for block in blocks:
            text = "\n".join(_lines([_strings(column) for column in block]))
            if text:
                fh.write(text + "\n")


def _lines(columns: list[list[str]]) -> Iterator[str]:
    if len(columns) == 1:
        # The csv module's one exception: a record that is a single empty
        # field is written as "".
        columns = [[cell or '""' for cell in columns[0]]]
    return map(",".join, zip(*columns))


def _strings(column) -> list[str]:
    """One column of a block as CSV fields."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        # repr once per distinct value, gathered back through the inverse
        # index.  Floats are keyed by their bits: keyed by value, -0.0 and
        # 0.0 in one block would print alike.
        if column.dtype.kind == "f":
            bits, index = np.unique(column.astype(float).view(np.int64),
                                    return_inverse=True)
            values = bits.view(float)
        else:
            values, index = np.unique(column, return_inverse=True)
        return np.array(list(map(repr, values.tolist())), dtype=object)[index].tolist()
    # Every other cell is formatted by the csv module itself, as the record
    # (v, ""), which it writes as "v,\n".  It writes a cell as str(v), and
    # str(np.float32(0.1)) is "0.1" where repr(float(v)) is
    # "0.10000000149011612", so every float becomes a Python float first.
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for v in column.tolist() if isinstance(column, np.ndarray) else column:
        writer.writerow((float(v) if isinstance(v, (float, np.floating)) else v, ""))
        fields.append(buf.getvalue()[:-2])
        buf.seek(0)
        buf.truncate()
    return fields


def write_csv(dataset: TimingDataset, path: str | Path) -> None:
    """Write rows secret-major, grid-ascending: secret_id,public_value,time_seconds."""
    points, secrets = dataset.grid.points, dataset.secrets
    # Blocks of whole secrets, about CSV_BLOCK_ROWS rows each: a block per
    # secret pays more in per-block overhead than the rows cost to write.
    step = max(1, CSV_BLOCK_ROWS // points.size)

    def blocks():
        for lo in range(0, secrets.size, step):
            times = dataset.times[lo:lo + step]
            yield (secrets[lo:lo + step].repeat(points.size),
                   np.tile(points, len(times)), times.ravel())

    write_table(path, CSV_HEADER, blocks())


def read_csv(path: str | Path) -> TimingDataset:
    """Load a dataset written by :func:`write_csv`.

    Every secret must be observed at every grid point exactly once.  Secrets
    keep the order of their first row.  One ``np.loadtxt`` call parses the
    rows; on any input it refuses or any check that fails, the file is read
    again by :func:`_read_rows`, which decides what is accepted and words
    every error.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            _check_header(path, next(reader, None))
            lines = _within_field_limit(fh)
            # loadtxt warns on a table with no rows, so look for one first.
            first = next((line for line in lines if line.strip("\r\n")), None)
            if first is not None:
                table = np.loadtxt(
                    itertools.chain([first], lines), delimiter=",", ndmin=1,
                    comments=None, dtype=[("secret", "i8"), ("public", "f8"), ("time", "f8")],
                )
                # A secret's rows come in runs.  The runs' secrets in order
                # of first appearance, and each run's rank, repeated over it.
                secret = table["secret"]
                starts = np.flatnonzero(np.r_[True, secret[1:] != secret[:-1]])
                ids, firsts, index = np.unique(
                    secret[starts], return_index=True, return_inverse=True)
                order = np.argsort(firsts)
                run_rank = np.argsort(order)[index]
                return _assemble(
                    path, ids[order],
                    np.repeat(run_rank, np.diff(starts, append=secret.size)),
                    table["public"], table["time"])
        except (ValueError, OverflowError, csv.Error):
            pass
    return _read_rows(path)


def _within_field_limit(lines: Iterable[str]) -> Iterator[str]:
    # csv.reader refuses a field longer than its limit; loadtxt would not.
    limit = csv.field_size_limit()
    for line in lines:
        if len(line) > limit:
            raise ValueError("line longer than the csv field size limit")
        yield line


def _check_header(path, header) -> None:
    if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
        raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")


def _read_rows(path: str | Path) -> TimingDataset:
    """:func:`read_csv` one row at a time, each error numbered by its line."""
    # One typed buffer per column: a row costs four machine numbers, not a
    # Python tuple.  Secrets may exceed int64, so each is stored as its row.
    row_of: dict[int, int] = {}
    rows, lines = array("q"), array("q")
    publics, times = array("d"), array("d")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next_line = 1  # the line the record being read starts on
        try:
            _check_header(path, next(reader, None))
            next_line = reader.line_num + 1
            for row in reader:
                # A quoted field may span lines; a record is numbered by its first.
                lineno, next_line = next_line, reader.line_num + 1
                if not row:
                    continue
                if len(row) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 3 columns")
                try:
                    secret = int(row[0])
                    publics.append(float(row[1]))
                    times.append(float(row[2]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                rows.append(row_of.setdefault(secret, len(row_of)))
                lines.append(lineno)
        except csv.Error as exc:
            # A field over the csv module's size limit, for one.
            raise ValueError(f"{path}:{next_line}: {exc}") from None
    if not row_of:
        raise ValueError(f"{path}: no observations")
    return _assemble(path, list(row_of), np.frombuffer(rows, dtype=np.int64),
                     np.frombuffer(publics), np.frombuffer(times), lines)


def _distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values, return_inverse=True)[0]``: the same sort, so where
    0.0 and -0.0 both occur, the same one of them is kept.  Without the
    inverse, it holds two of the N-row arrays that ``np.unique`` holds
    six of."""
    ordered = values[np.argsort(values, kind="quicksort")]
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _assemble(path, secrets, rows: np.ndarray, publics: np.ndarray,
              times: np.ndarray, lines: Sequence[int] | None = None) -> TimingDataset:
    """The dataset whose observation i is (secrets[rows[i]], publics[i], times[i]).

    An error names the line of the observation at fault, ``lines[i]``, when
    the lines are given.
    """
    def at(i) -> str:
        return f"{path}:{lines[i]}" if lines is not None else f"{path}"

    bad = ~(np.isfinite(publics) & np.isfinite(times))
    if bad.any():
        raise ValueError(f"{at(np.argmax(bad))}: values must be finite")
    negative = times < 0
    if negative.any():
        raise ValueError(f"{at(np.argmax(negative))}: execution times must be non-negative")
    grid_points = _distinct(publics)
    cols = np.searchsorted(grid_points, publics)
    filled = np.zeros((len(secrets), grid_points.size), dtype=bool)
    filled[rows, cols] = True
    if np.count_nonzero(filled) < rows.size:
        # The first row whose cell an earlier row already filled.
        cell = rows * grid_points.size + cols
        order = np.argsort(cell, kind="stable")
        first = int(order[1:][np.diff(cell[order]) == 0].min())
        raise ValueError(
            f"{at(first)}: duplicate observation for secret {secrets[rows[first]]}"
        )
    # With no cell filled twice, a secret with fewer rows than grid points
    # leaves a cell empty.
    short = ~filled.all(axis=1)
    if short.any():
        raise ValueError(
            f"{path}: secret {secrets[np.argmax(short)]} is missing grid points"
        )
    matrix = np.empty((len(secrets), grid_points.size))
    matrix[rows, cols] = times
    del rows, cols  # the dataset copies the matrix next
    try:
        return TimingDataset(secrets, PublicGrid(grid_points), matrix)
    except ValueError as exc:  # an overflowing total
        raise ValueError(f"{path}: {exc}") from None
