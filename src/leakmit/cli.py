"""Command line driver.

Subcommands: generate, cluster, entropy, synthesize, baseline, enforce,
sweep, compare.  Inputs come from a CSV dataset (--input) or a generator
(--gen); every setting is a flag.  All artifacts are written atomically
(temp file + rename) and are byte-identical across reruns with the same
flags and seed.

Exit codes: 0 ok, 1 configuration error, 2 data error, 3 solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from . import baselines, clustering, enforcement, timing
from .deterministic import synthesize_det
from .entropy import EntropyMeasure, entropy
from .errors import SolverError
from .policy import build_report, expected_overhead, policy_to_json
from .stochastic import MAX_STARTS, synthesize_local, synthesize_minguess

__all__ = ["ConfigError", "PipelineConfig", "run_pipeline", "sweep", "compare", "main"]


class ConfigError(Exception):
    """Bad flags or an unusable flag combination."""


def _setting(default, **metadata):
    """A PipelineConfig field whose flag takes these argparse keywords."""
    return dataclasses.field(default=default, metadata=metadata)


@dataclass
class PipelineConfig:
    """Every setting of a run.  Each field but ``command`` is one flag of
    every subcommand (``--`` and its name, ``_`` as ``-``); a flag left out
    keeps the field's default.  Its annotation types the flag (``X | None``
    takes an ``X``, a tuple a comma list); its metadata holds the flag's
    ``choices`` or ``help``."""

    command: str = "enforce"
    input: str | None = _setting(None, help="dataset CSV path")
    gen: str | None = _setting(None, choices=("mod_exp", "branch_loop"))
    n_bits: int = 10
    noise_sigma: float = 0.0
    group_sizes: tuple[int, ...] = (5, 5, 5, 10)
    slopes: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    n_publics: int = 50
    epsilon: float = 1e-6
    measure: str = _setting("minguess", choices=tuple(m.value for m in EntropyMeasure))
    delta: float = 0.5
    algo: str | None = _setting(None, choices=("det", "stoch"))
    n_starts: int = 8
    baseline: str = _setting("double", choices=("double", "bucketing"))
    buckets: int = 2
    sweep: str | None = _setting(None, help="budget grid start:stop:step")
    seed: int = 0
    out: str = _setting("out", help="output directory")


# The settings that are flags, and their resolved types.
_SETTINGS = {
    f.name: f for f in dataclasses.fields(PipelineConfig) if f.name != "command"
}
_HINTS = typing.get_type_hints(PipelineConfig)


def _write_atomic(path: Path, write) -> Path:
    """Call ``write(tmp_path)``, then rename the temp file over ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)
    return path


def _write_text(path: Path, text: str) -> Path:
    return _write_atomic(path, lambda tmp: tmp.write_text(text))


def _write_json(path: Path, data) -> Path:
    # json.dump writes the text of json.dumps piece by piece, so a large
    # report is never one string.
    def write(tmp: Path) -> None:
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")

    return _write_atomic(path, write)


def _write_dataset(path: Path, dataset) -> Path:
    return _write_atomic(path, lambda tmp: timing.write_csv(dataset, tmp))


def _write_rows(path: Path, header, rows) -> Path:
    """A small table, given as rows, through the one CSV writer."""
    columns = tuple(zip(*rows))
    return _write_atomic(path, lambda tmp: timing.write_table(tmp, header, [columns]))


def _announce(paths: list[Path]) -> list[Path]:
    for path in paths:
        print(f"wrote {path}")
    return paths


def _load_dataset(config: PipelineConfig):
    if config.input is not None and config.gen is not None:
        raise ConfigError("give either --input or --gen, not both")
    if config.input is not None:
        return timing.read_csv(config.input)
    try:
        if config.gen == "mod_exp":
            return timing.gen_mod_exp(
                config.n_bits, noise_sigma=config.noise_sigma, seed=config.seed
            )
        if config.gen == "branch_loop":
            return timing.gen_branch_loop(
                config.group_sizes,
                config.slopes,
                config.n_publics,
                config.noise_sigma,
                config.seed,
            )
    except ValueError as exc:
        # A generator's parameters are all settings, so a bad one is a
        # configuration error, not a data error.
        raise ConfigError(f"--gen {config.gen}: {exc}") from None
    raise ConfigError("provide --input CSV or --gen {mod_exp,branch_loop}")


def _load_classes(config: PipelineConfig):
    """Load and cluster: returns (dataset, classes)."""
    dataset = _load_dataset(config)
    return dataset, clustering.cluster_functions(dataset, config.epsilon)


def _entropies(sizes) -> dict[str, float]:
    """The entropy of a class-size vector under every measure, by name."""
    return {m.value: entropy(sizes, m) for m in EntropyMeasure}


def _solve(classes, config: PipelineConfig, algo: str, delta: float):
    """Synthesize under ``delta`` and check the policy against it.

    Returns (policy, report, diagnostics or None)."""
    measure = EntropyMeasure(config.measure)
    diag = None
    if algo == "det":
        policy, _ = synthesize_det(classes, measure, delta)
    elif measure is EntropyMeasure.MINGUESS:
        policy, diag = synthesize_minguess(classes, delta)
    else:
        policy, diag = synthesize_local(
            classes, measure, delta, n_starts=config.n_starts, seed=config.seed
        )
    return policy, build_report(policy, classes, measure, delta), diag


def _write_policy(out_dir: Path, policy, report, diag) -> Path:
    diag_dict = dataclasses.asdict(diag) if diag is not None else None
    payload = policy_to_json(policy, report, diag_dict)
    return _write_json(out_dir / "policy.json", payload)


def _run_baseline(dataset, config: PipelineConfig, method: str):
    """Apply a reference mitigation and re-cluster the result.

    Returns (mitigated dataset, classes after, relative overhead)."""
    if method == "double":
        mitigated, after = baselines.double_scheme(dataset, epsilon=config.epsilon)
    else:
        buckets = baselines.fit_buckets(dataset.times.ravel(), config.buckets)
        mitigated, after = baselines.apply_buckets(
            dataset, buckets, epsilon=config.epsilon
        )
    return mitigated, after, timing.relative_overhead(dataset, mitigated)


def cmd_generate(config: PipelineConfig) -> list[Path]:
    dataset = _load_dataset(config)
    out = _write_dataset(Path(config.out) / "dataset.csv", dataset)
    print(f"wrote {out} ({dataset.n_secrets} secrets x {len(dataset.grid)} points)")
    return [out]


def cmd_cluster(config: PipelineConfig) -> list[Path]:
    dataset, classes = _load_classes(config)
    out = _write_json(
        Path(config.out) / "classes.json", clustering.classset_to_json(classes)
    )
    print(f"wrote {out} ({classes.k} classes from {dataset.n_secrets} secrets)")
    return [out]


def cmd_entropy(config: PipelineConfig) -> list[Path]:
    _, classes = _load_classes(config)
    values = _entropies(classes.sizes)
    data = {
        "k": classes.k,
        "class_sizes": [int(s) for s in classes.sizes],
        "entropies": values,
    }
    out = _write_json(Path(config.out) / "entropy.json", data)
    print(
        "entropies: "
        + " ".join(f"{name}={value!r}" for name, value in values.items())
    )
    return [out]


def cmd_synthesize(config: PipelineConfig) -> list[Path]:
    _, classes = _load_classes(config)
    algo = config.algo or "det"
    policy, report, diag = _solve(classes, config, algo, config.delta)
    out = _write_policy(Path(config.out), policy, report, diag)
    print(
        f"{algo} policy: entropy {report.entropy_before!r} -> "
        f"{report.entropy_after!r}, overhead {report.expected_overhead!r}"
    )
    return _announce([out])


def cmd_baseline(config: PipelineConfig) -> list[Path]:
    dataset, classes = _load_classes(config)
    mitigated, after, overhead = _run_baseline(dataset, config, config.baseline)
    before, post = _entropies(classes.sizes), _entropies(after.sizes)
    report = {
        "method": config.baseline,
        "classes_before": classes.k,
        "classes_after": after.k,
        "overhead": overhead,
        "entropies": [
            {"measure": m, "entropy_before": before[m], "entropy_after": post[m]}
            for m in before
        ],
    }
    out_dir = Path(config.out)
    written = [
        _write_dataset(out_dir / "mitigated.csv", mitigated),
        _write_json(out_dir / "baseline_classes.json",
                    clustering.classset_to_json(after)),
        _write_json(out_dir / "baseline_report.json", report),
    ]
    print(
        f"{config.baseline}: {classes.k} -> {after.k} classes, "
        f"overhead {overhead!r}"
    )
    return written


def _features(dataset, config: PipelineConfig):
    """A generator's cost model gives simulated instrumentation counters; a
    measured dataset has only its times."""
    if config.gen is None:
        return enforcement.timing_features(dataset)
    if config.gen == "mod_exp":
        return enforcement.counter_features(
            dataset, enforcement.mod_exp_counts(dataset)
        )
    return enforcement.counter_features(
        dataset,
        enforcement.branch_loop_counts(dataset, config.group_sizes, config.slopes),
    )


def run_pipeline(config: PipelineConfig) -> list[Path]:
    """Cluster, synthesize, train the classifier, enforce, and report."""
    dataset, classes = _load_classes(config)
    algo = config.algo or "det"
    policy, report, diag = _solve(classes, config, algo, config.delta)

    features = _features(dataset, config)
    tree = enforcement.learn_tree(enforcement.training_samples(features, classes))
    mitigated, enforce_report = enforcement.enforce(
        dataset, classes, policy, tree, config.seed, features,
        epsilon=config.epsilon,
    )

    summary = {
        "source": config.input if config.input is not None else config.gen,
        "k_before": classes.k,
        "classes_after": enforce_report.n_classes_after,
        "measure": config.measure,
        "delta": report.delta_bound,
        "algo": algo,
        "entropy_before": report.entropy_before,
        "entropy_after": report.entropy_after,
        "expected_overhead": report.expected_overhead,
        "realized_overhead": enforce_report.realized_overhead,
        "misclassification_rate": enforce_report.misclassification_rate,
    }
    out_dir = Path(config.out)
    artifacts = [
        _write_json(out_dir / "classes.json", clustering.classset_to_json(classes)),
        _write_policy(out_dir, policy, report, diag),
        _write_json(out_dir / "tree.json", enforcement.tree_to_json(tree)),
        _write_dataset(out_dir / "mitigated.csv", mitigated),
        _write_json(out_dir / "enforcement.json",
                    enforcement.report_to_json(enforce_report)),
        _write_rows(out_dir / "summary.csv", tuple(summary), [summary.values()]),
    ]
    print(
        f"enforced {algo}/{config.measure}: {classes.k} -> "
        f"{enforce_report.n_classes_after} classes, realized overhead "
        f"{enforce_report.realized_overhead!r}"
    )
    return _announce(artifacts)


# A budget grid with more points than this is a mistake, not a sweep
# (0:1e9:1e-9 would never finish).
MAX_SWEEP_POINTS = 10_000


def _parse_sweep_grid(raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ConfigError("--sweep expects start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError("--sweep expects numeric start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("--sweep expects finite start:stop:step")
    if step <= 0 or stop < start:
        raise ConfigError("--sweep needs step > 0 and stop >= start")
    grid = []
    value = start
    while value <= stop + 1e-12:
        if len(grid) == MAX_SWEEP_POINTS:
            raise ConfigError(f"--sweep grid has more than {MAX_SWEEP_POINTS} points")
        grid.append(round(value, 12))
        value += step
    return grid


def _svg_line_chart(series, x_label: str, y_label: str, title: str) -> str:
    """Hand-emitted SVG polyline chart; no timestamps, fully deterministic."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 50
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x: float) -> float:
        return left + (x - x_lo) / span_x * plot_w

    def sy(y: float) -> float:
        return top + plot_h - (y - y_lo) / span_y * plot_h

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black"/>',
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
        f'y2="{top + plot_h}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * span_x
        yv = y_lo + frac * span_y
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{top + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xv:.4g}</text>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{y_label}</text>'
    )
    for idx, (name, pts) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + plot_w - 4}" y="{top + 16 + 16 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def sweep(config: PipelineConfig) -> list[Path]:
    """Solve across a budget grid; entropy per algorithm never decreases."""
    if not config.sweep:
        raise ConfigError("--sweep start:stop:step is required")
    grid = _parse_sweep_grid(config.sweep)
    _, classes = _load_classes(config)
    algos = [config.algo] if config.algo else ["det", "stoch"]
    measure = EntropyMeasure(config.measure).value

    rows = []
    for algo in algos:
        best = None
        for delta in grid:
            _, report, _ = _solve(classes, config, algo, delta)
            point = (report.entropy_after, report.expected_overhead)
            # A feasible policy stays feasible at any larger budget, so
            # carrying the best-so-far forward repairs any local-search wobble.
            if best is not None and best[0] > point[0]:
                point = best
            best = point
            rows.append((delta, algo, measure, *point))

    series = {
        algo: [(delta, ent) for delta, a, _, ent, _ in rows if a == algo]
        for algo in algos
    }
    out_dir = Path(config.out)
    return _announce([
        _write_rows(out_dir / "sweep.csv",
                    ("delta", "algo", "measure", "entropy_after", "overhead"), rows),
        _write_text(out_dir / "sweep.svg", _svg_line_chart(
            series, "overhead budget", f"{measure} entropy", "budget sweep"
        )),
    ])


def compare(config: PipelineConfig) -> list[Path]:
    """One table row per mitigation approach on a shared dataset."""
    dataset, classes = _load_classes(config)
    header = ("method", "classes_after", "minguess", "shannon", "guessing", "overhead")

    def row(name, n_classes, sizes, overhead):
        ents = _entropies(sizes)
        return (name, n_classes, *(ents[m] for m in header[2:5]), overhead)

    rows = [row("initial", classes.k, classes.sizes, 0.0)]
    for method in ("double", "bucketing"):
        after, overhead = _run_baseline(dataset, config, method)[1:]
        rows.append(row(method, after.k, after.sizes, overhead))
    for algo in ("det", "stoch"):
        policy, report, _ = _solve(classes, config, algo, config.delta)
        post = report.expected_sizes
        rows.append(row(algo, sum(c > 1e-9 for c in post), post,
                        expected_overhead(policy, classes)))
    return _announce([_write_rows(Path(config.out) / "compare.csv", header, rows)])


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _comma_list(item: type):
    """The flag parser of a tuple setting: comma-separated ``item`` values."""
    noun = "integer" if item is int else "number"

    def parse(raw: str) -> tuple:
        try:
            return tuple(item(v) for v in raw.split(","))
        except ValueError:
            raise ConfigError(f"expected a comma-separated {noun} list, got {raw!r}")

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="leakmit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, setting in _SETTINGS.items():
            hint, keywords = _HINTS[name], dict(setting.metadata, dest=name)
            if typing.get_origin(hint) is tuple:
                keywords["type"] = _comma_list(typing.get_args(hint)[0])
            else:  # X | None takes an X
                keywords["type"] = (typing.get_args(hint) or (hint,))[0]
            p.add_argument("--" + name.replace("_", "-"), **keywords)
    return parser


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    # A flag left out parses as None, and the field's default stands.
    config = PipelineConfig(**{k: v for k, v in vars(args).items() if v is not None})
    # Written as "not >=" so that NaN fails too.
    if not config.delta >= 0:
        raise ConfigError("delta must be >= 0")
    if not config.epsilon > 0:
        raise ConfigError("epsilon must be > 0")
    for name, low in (("seed", 0), ("n_starts", 0), ("buckets", 1)):
        if getattr(config, name) < low:
            raise ConfigError(f"{name} must be >= {low}")
    if config.n_starts > MAX_STARTS:
        raise ConfigError(f"n_starts must be <= {MAX_STARTS}")
    return config


# Each subcommand's function and help line.
_COMMANDS = {
    "generate": (cmd_generate, "write a synthetic dataset CSV"),
    "cluster": (cmd_cluster, "group secrets into observation classes"),
    "entropy": (cmd_entropy, "report the leakage of a dataset"),
    "synthesize": (cmd_synthesize, "search for a mitigation policy"),
    "baseline": (cmd_baseline, "run a reference mitigation"),
    "enforce": (run_pipeline, "full pipeline: synthesize, classify, pad, report"),
    "sweep": (sweep, "synthesize across a budget grid"),
    "compare": (compare, "table of all mitigation approaches"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _build_config(args)
        command, _ = _COMMANDS[config.command]
        command(config)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
