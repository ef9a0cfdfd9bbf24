"""Peak memory of whole CLI jobs, as a multiple of the times matrix.

tracemalloc counts every Python object and every NumPy array buffer, so its
peak over one ``main`` call counts each N-row array the job holds at once,
transient or not.  The same job at a small size runs first, so that imports
and caches are not counted.
"""

import gc
import tracemalloc

import pytest

from leakmit.cli import main
from leakmit.timing import gen_mod_exp, write_csv

N_BITS = 14
JOB = ["--algo", "stoch", "--measure", "minguess", "--delta", "0.5"]


def traced_peak(argv) -> int:
    """Bytes traced at the peak of one ``main(argv)`` call, above its start."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        assert main(argv) == 0
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
