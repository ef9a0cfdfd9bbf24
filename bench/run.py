"""Benchmark of the leakmit CLI on three fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process through ``leakmit.cli.main``, as a user
runs the tool, for about S seconds of back-to-back passes over the
workload's job list, and checks every job's artifacts.  The inputs are a
pure function of the seed.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` jobs, and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median CPU time of fresh-interpreter set-ups: import leakmit, build the
inputs), ``pass_s`` (median CPU time of a pass, all threads and child
processes), ``peak_rss_mb`` (peak resident memory of this process up to
the end of its first pass, as a user running each command once sees it) and
``sweep_gain`` (mean entropy_after / entropy_before over the solver results
a pass writes).  Times are CPU time because wall time on a shared two-CPU
virtual machine swung from 19 s to 37 s for the same two-thread pass;
wall times are in the report.

With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones of ``tracer.PER_LAYER`` (medians over the traced
passes) plus the tracing overhead.  Traced artifacts must be byte-identical
to untraced ones.

Everything else (per-job wall times, artifact sha256, the noise indicator,
the environment, and in traced runs every span) goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.  Scratch files live in
``.bench_run/`` and are removed on exit.  Without ``src/leakmit`` beside
this directory the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
NOISE_LOOP = 3_000_000


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed job)."""


def noise_indicator() -> float:
    """Seconds for a fixed pure-Python loop: how fast this machine is now."""
    start = perf_counter()
    total = 0
    for i in range(NOISE_LOOP):
        total += i
    return perf_counter() - start


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def environment(threads_before: str | None) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "LEAKMIT_THREADS_unset": threads_before is None,
        "LEAKMIT_THREADS_before": threads_before,
    }


def set_up(workload: str, seed: int, scratch: Path) -> tuple[Path, dict]:
    """Build the inputs SETUP_SAMPLES times, each in a fresh interpreter.

    Returns the work directory of the first sample and the set-up record.
    A sample is the CPU time of the child interpreter, start-up included.
    Every sample must write byte-identical inputs.
    """
    samples, walls, inputs = [], [], None
    for n in range(SETUP_SAMPLES):
        work = scratch / f"setup-{n}"
        cpu_start = cpu_seconds()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "setup_sample.py"), workload,
                 str(seed), str(work)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up took over {SETUP_TIMEOUT_S} s") from None
        samples.append(cpu_seconds() - cpu_start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(sample["leakmit"]).resolve().is_relative_to(SRC):
            raise BenchError(f"set-up imported leakmit from {sample['leakmit']}")
        walls.append(sample["wall_s"])
        written = {str(p.relative_to(work)): workloads.sha256(p)
                   for p in sorted((work / "inputs").rglob("*")) if p.is_file()}
        if inputs is None:
            inputs = written
        elif written != inputs:
            raise BenchError("set-up wrote different inputs for the same seed")
        if n:
            shutil.rmtree(work)
    record = {"samples": samples, "median_s": statistics.median(samples),
              "wall_s": walls, "inputs": inputs}
    return scratch / "setup-0", record


def import_cli():
    sys.path.insert(0, str(SRC))
    import leakmit
    from leakmit import cli

    if not Path(leakmit.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported leakmit from {leakmit.__file__}, not {SRC}")
    return cli


def run_pass(cli, jobs, trace: tracer.Tracer | None) -> dict:
    """One timed pass over the job list; artifacts are checked afterwards."""
    for job in jobs:
        shutil.rmtree(Path("out") / job.name, ignore_errors=True)
    gc.collect()
    if trace is not None:
        trace.install()
    windows, codes, logs = {}, {}, {}
    try:
        start, cpu_start = perf_counter(), cpu_seconds()
        for job in jobs:
            if trace is not None:
                trace.job = job.name
            sink = io.StringIO()
            job_start = perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    codes[job.name] = cli.main(list(job.argv))
            except Exception as exc:  # a crashing job is a failed job
                codes[job.name] = f"{type(exc).__name__}: {exc}"
            windows[job.name] = (job_start, perf_counter())
            logs[job.name] = sink.getvalue()
        wall_s = perf_counter() - start
        cpu_s = cpu_seconds() - cpu_start
    finally:
        if trace is not None:
            trace.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"wall_s": wall_s, "cpu_s": cpu_s, "rss_mb": rss_mb, "traced": trace is not None,
            "windows": windows, "codes": codes, "logs": logs}


def check_pass(jobs, result: dict, reference: dict) -> tuple[dict, list[float]]:
    """Check and hash every job's artifacts.  ``reference`` holds the
    hashes of the first pass; later passes must reproduce them."""
    errors, gains = {}, []
    for job in jobs:
        out = Path("out") / job.name
        code = result["codes"][job.name]
        if code != 0:
            errors[job.name] = [f"exit {code}: {result['logs'][job.name].strip()[-500:]}"]
            continue
        hashes = {p.name: workloads.sha256(p) for p in sorted(out.iterdir())}
        problems, job_gains = checks.CHECKS[job.kind](out, job)
        reference.setdefault(job.name, hashes)
        if hashes != reference[job.name]:
            problems.append("artifacts differ from the first pass")
        if problems:
            errors[job.name] = problems
        gains.extend(job_gains)
    return errors, gains


def measure(cli, jobs, seconds: float, traced: bool) -> tuple[list[dict], dict]:
    """Alternate untraced and traced passes (traced runs) or run untraced
    passes, starting another only while it should end inside the window.
    Returns the passes and the artifact hashes of the first one."""
    passes, reference = [], {}
    deadline = perf_counter() + seconds
    while True:
        trace = tracer.Tracer() if traced and len(passes) % 2 == 1 else None
        result = run_pass(cli, jobs, trace)
        result["errors"], result["gains"] = check_pass(jobs, result, reference)
        if trace is not None:
            spans = trace.spans()
            result["layers"] = tracer.layer_metrics(spans, result["windows"])
            result["unbound"] = trace.unbound
            origin = min(start for start, _ in result["windows"].values())
            result["spans"] = tracer.span_records(spans, origin)
        passes.append(result)
        needed = 2 if traced else 1
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= needed and perf_counter() + typical > deadline:
            break
    return passes, reference


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(passes: list[dict], setup: dict, traced: bool) -> tuple[dict, dict]:
    untraced = [p for p in passes if not p["traced"]]
    pass_s = statistics.median(p["cpu_s"] for p in untraced)
    if not traced:
        gains = passes[0]["gains"]
        metrics = {
            "setup_s": (setup["median_s"], "s"),
            "pass_s": (pass_s, "s"),
            # Repeated passes in one process fragment the heap, so later
            # passes would report more than one run of the CLI needs.
            "peak_rss_mb": (passes[0]["rss_mb"], "MB"),
            "sweep_gain": (sum(gains) / len(gains) if gains else 0.0, "ratio"),
        }
    else:
        layered = [p for p in passes if p["traced"]]
        metrics = {
            name: (statistics.median(p["layers"][name] for p in layered), unit)
            for name, unit in tracer.PER_LAYER.items()
            if name != "trace.overhead_s"
        }
        traced_s = statistics.median(p["cpu_s"] for p in layered)
        metrics["trace.overhead_s"] = (traced_s - pass_s, "s")
    detail = {
        f"pass_{kind}": {"median": statistics.median(values),
                         "quartiles": quartiles(values), "samples": len(values)}
        for kind in ("cpu_s", "wall_s")
        for values in [[p[kind] for p in untraced]]
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def run(args: argparse.Namespace) -> dict:
    if not (SRC / "leakmit" / "__init__.py").is_file():
        raise BenchError(f"no leakmit sources at {SRC}")
    threads_before = os.environ.pop("LEAKMIT_THREADS", None)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(threads_before),
              "noise_loop_s": [noise_indicator()]}
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_run"))
    try:
        work, report["setup"] = set_up(args.workload, args.seed, scratch)
        cli = import_cli()
        jobs = workloads.jobs(args.workload, args.seed)
        os.chdir(work)
        try:
            passes, report["artifacts"] = measure(cli, jobs, args.seconds, args.trace == 1)
        finally:
            os.chdir(ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_run").rmdir()
    report["noise_loop_s"].append(noise_indicator())

    metrics, detail = summarize(passes, report["setup"], args.trace == 1)
    failures = {f"pass {n} {job}": errors for n, p in enumerate(passes)
                for job, errors in p["errors"].items()}
    attempted = len(passes) * len(jobs)
    report.update(detail)
    kept = ("wall_s", "cpu_s", "rss_mb", "traced", "codes", "layers", "unbound", "spans")
    report["passes"] = [
        {key: p[key] for key in kept if key in p}
        | {"job_s": {j: e - s for j, (s, e) in p["windows"].items()}}
        for p in passes
    ]
    report["failures"] = failures
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    report["result"] = result

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report) + "\n")
    print(f"report: {path.relative_to(ROOT)}")
    for name, errors in failures.items():
        print(f"FAILED {name}: {'; '.join(errors)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
