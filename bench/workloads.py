"""The three benchmark workloads: their inputs and their CLI job lists.

Every input is a pure function of the workload seed.  ``build_inputs``
writes the input files a workload needs into ``<work>/inputs`` and ``jobs``
lists the ``leakmit`` command lines of one pass.  All paths are relative to
the work directory, because ``summary.csv`` records the input path and the
artifact hashes must not depend on where the benchmark runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWEEP_GRID = "0.05:0.25:0.05"
SWEEP_BUDGETS = (0.05, 0.1, 0.15, 0.2, 0.25)
CLASSSET_KS = (8, 10, 12, 14, 8, 10, 12, 14)
MEASURES = ("minguess", "shannon", "guessing")
CLASSSET_GRID_POINTS = 8
FAMILY_SEED = 2019
JITTER = 0.02
NOISY_GROUPS = (320, 320, 320, 640)
NOISY_SLOPES = (1.0, 2.0, 3.0, 4.0)
NOISY_PUBLICS = 50
NOISY_SIGMA = 0.05
NOISY_PATH = "inputs/noisy.csv"


@dataclass(frozen=True)
class Job:
    """One ``leakmit`` invocation and what its output check needs to know."""

    name: str
    argv: tuple[str, ...]
    kind: str  # "enforce" | "compare" | "sweep"
    delta: float | None = None
    measure: str = "minguess"
    sizes: tuple[int, ...] = ()  # class sizes of a sweep input, for sweep_gain


@dataclass(frozen=True)
class ClassSpec:
    k: int
    measure: str
    sizes: tuple[int, ...]
    representatives: np.ndarray  # k x CLASSSET_GRID_POINTS, ascending means


def classset_specs(seed: int) -> list[ClassSpec]:
    """Eight class sets, k in {8, 10, 12, 14} twice, measures cycling.

    The sets are one fixed family: random representatives (uniform on
    [1, 10] at each grid point) and class sizes spread evenly over 1..100 in
    random order, all drawn from FAMILY_SEED.  The workload seed multiplies
    every representative value by 1 + N(0, JITTER).  Drawing whole sets from
    the workload seed made the k = 14 min-guess branch and bound take
    2.6 s to 17 s and moved the mean entropy gain by 20% between seeds;
    the jitter keeps the inputs distinct per seed at a steady cost.
    """
    family = np.random.default_rng(FAMILY_SEED)
    jitter = np.random.default_rng([seed, FAMILY_SEED])
    specs = []
    for n, k in enumerate(CLASSSET_KS):
        reps = family.uniform(1.0, 10.0, size=(k, CLASSSET_GRID_POINTS))
        sizes = family.permutation(np.round(np.linspace(1, 100, k)).astype(int))
        reps = reps * (1.0 + JITTER * jitter.standard_normal(reps.shape))
        order = np.argsort(reps.mean(axis=1), kind="stable")
        specs.append(ClassSpec(k, MEASURES[n % 3],
                               tuple(int(s) for s in sizes[order]), reps[order]))
    return specs


def _classset_path(n: int) -> str:
    return f"inputs/classset-{n}.csv"


def build_inputs(workload: str, seed: int, work: Path) -> None:
    """Write the workload's input files under ``work``."""
    from leakmit import timing

    (work / "inputs").mkdir(parents=True, exist_ok=True)
    if workload == "noisy-csv-enforce":
        ds = timing.gen_branch_loop(
            NOISY_GROUPS, NOISY_SLOPES, NOISY_PUBLICS, NOISY_SIGMA, seed
        )
        timing.write_csv(ds, work / NOISY_PATH)
    elif workload == "classset-sweep":
        grid = timing.PublicGrid(
            tuple(float(p) for p in range(1, CLASSSET_GRID_POINTS + 1))
        )
        for n, spec in enumerate(classset_specs(seed)):
            # Each representative repeated size times: clustering at the
            # default epsilon recovers exactly these classes.
            times = np.repeat(spec.representatives, spec.sizes, axis=0)
            ds = timing.TimingDataset(tuple(range(times.shape[0])), grid, times)
            timing.write_csv(ds, work / _classset_path(n))
    elif workload != "modexp-enforce":
        raise ValueError(f"unknown workload {workload!r}")


def jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass."""
    s = str(seed)
    if workload == "modexp-enforce":
        common = ("--gen", "mod_exp", "--n-bits", "14", "--measure", "minguess",
                  "--delta", "0.5", "--seed", s)
        return [
            Job("enforce", ("enforce", *common, "--algo", "stoch",
                            "--out", "out/enforce"), "enforce", 0.5),
            Job("compare", ("compare", *common, "--out", "out/compare"),
                "compare", 0.5),
        ]
    if workload == "noisy-csv-enforce":
        return [
            Job("enforce", ("enforce", "--input", NOISY_PATH, "--epsilon", "1.0",
                            "--algo", "det", "--measure", "minguess",
                            "--delta", "0.5", "--seed", s, "--out", "out/enforce"),
                "enforce", 0.5),
        ]
    if workload == "classset-sweep":
        return [
            Job(f"sweep-{n}", ("sweep", "--input", _classset_path(n),
                               "--sweep", SWEEP_GRID, "--measure", spec.measure,
                               "--seed", s, "--out", f"out/sweep-{n}"),
                "sweep", measure=spec.measure, sizes=spec.sizes)
            for n, spec in enumerate(classset_specs(seed))
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("modexp-enforce", "noisy-csv-enforce", "classset-sweep")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()
