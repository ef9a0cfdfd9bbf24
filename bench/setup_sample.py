"""One set-up sample: import leakmit, then build a workload's inputs.

Runs in a fresh interpreter so that the import is paid in full, and prints
one JSON line with the wall time and the leakmit module it imported.  The
caller takes the CPU time of the whole interpreter as the sample.

    python3 bench/setup_sample.py <workload> <seed> <work-dir>
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import leakmit  # noqa: E402,F401  (the import is part of the set-up cost)
import workloads  # noqa: E402


def main() -> None:
    name, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.build_inputs(name, seed, work)
    print(json.dumps({"wall_s": time.perf_counter() - START,
                      "leakmit": leakmit.__file__}))


if __name__ == "__main__":
    main()
