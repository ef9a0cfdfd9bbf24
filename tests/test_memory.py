"""Peak memory of whole CLI jobs, as a multiple of the times matrix.

tracemalloc counts every Python object and every NumPy array buffer, so its
peak over one ``main`` call counts each N-row array the job holds at once,
transient or not.  The same job at a small size runs first, so that imports
and caches are not counted.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from leakmit.cli import main
from leakmit.enforcement import SPLIT_BLOCK, _best_cut
from leakmit.timing import gen_branch_loop, gen_mod_exp, write_csv

N_BITS = 14
JOB = ["--algo", "stoch", "--measure", "minguess", "--delta", "0.5"]


def traced_peak(argv) -> int:
    """Bytes traced at the peak of one ``main(argv)`` call, above its start."""
    return traced_call_peak(lambda: main(argv) == 0)


def traced_call_peak(call) -> int:
    """Bytes traced at the peak of one call, above its start; the call must
    return a true value."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        assert call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def times_nbytes() -> int:
    return gen_mod_exp(N_BITS).times.nbytes


def gen_job(command, n_bits, out):
    return [command, "--gen", "mod_exp", "--n-bits", str(n_bits), *JOB, "--out", str(out)]


# Bounds in multiples of the times matrix.  Before the tree grew on presorted
# index arrays and enforce padded in blocks, the generator's enforce job read
# 12.7, the CSV one 11.7 and compare 6.9.
@pytest.mark.parametrize("command, bound", [("enforce", 6.0), ("compare", 5.5)])
def test_generator_job_peak(tmp_path, command, bound):
    assert main(gen_job(command, 4, tmp_path / "warm")) == 0
    peak = traced_peak(gen_job(command, N_BITS, tmp_path / "job"))
    assert peak <= bound * times_nbytes()


def test_measured_csv_enforce_peak(tmp_path):
    # A measured dataset takes the read_csv and timing_features path.
    for n_bits, name in ((4, "warm"), (N_BITS, "job")):
        write_csv(gen_mod_exp(n_bits), tmp_path / f"{name}.csv")
    argv = ["enforce", "--input", str(tmp_path / "{}.csv"), *JOB, "--out", str(tmp_path)]
    assert main([a.format("warm") for a in argv]) == 0
    peak = traced_peak([a.format("job") for a in argv])
    assert peak <= 8.0 * times_nbytes()


def test_noisy_measured_csv_det_peak(tmp_path):
    # The benchmark's measured-data job: every time distinct, so the tree
    # searches ~80k cuts, and a deterministic policy.  Before the split
    # search counted in blocks of cuts, and before a point-mass policy
    # stopped drawing targets, it read 11.15.
    groups = {"warm": (8, 8, 8, 16), "job": (320, 320, 320, 640)}
    for name, sizes in groups.items():
        data = gen_branch_loop(sizes, (1, 2, 3, 4), 50, 0.05, 1)
        write_csv(data, tmp_path / f"{name}.csv")
    argv = ["enforce", "--input", str(tmp_path / "{}.csv"), "--epsilon", "1.0",
            "--algo", "det", "--out", str(tmp_path / "{}")]
    assert main([a.format("warm") for a in argv]) == 0
    peak = traced_peak([a.format("job") for a in argv])
    assert peak <= 8.0 * data.times.nbytes


def test_split_search_peak_does_not_grow_with_classes():
    # On n distinct values a cuts x classes count matrix grows by
    # n * (40 - 4) intp from k = 4 to k = 40, 57.6 MB here; counted in blocks
    # of cuts, the growth is a few blocks' worth, whatever n is.
    n = 200_000
    rng = np.random.default_rng(0)
    column = rng.permutation(n).astype(float)
    order = np.argsort(column, kind="stable")
    peaks = {}
    for k in (4, 40):
        y = rng.integers(0, k, n).astype(np.uint8)
        totals = np.bincount(y, minlength=k)
        peaks[k] = traced_call_peak(lambda: _best_cut(column, order, y, totals))
    assert peaks[40] - peaks[4] <= 8 * SPLIT_BLOCK * (40 - 4) * 8
