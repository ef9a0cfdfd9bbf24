"""Command line driver.

Subcommands: generate, cluster, entropy, synthesize, baseline, enforce,
sweep, compare.  Inputs come from a CSV dataset (--input) or a generator
(--gen); an optional JSON config file supplies defaults that explicit flags
override.  All artifacts are written atomically (temp file + rename) and are
byte-identical across reruns with the same config and seed.

Exit codes: 0 ok, 1 configuration error, 2 data error, 3 solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
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
from .policy import build_report, expected_overhead, expected_sizes, policy_to_json
from .stochastic import synthesize_local, synthesize_minguess

__all__ = ["ConfigError", "PipelineConfig", "run_pipeline", "sweep", "compare", "main"]


class ConfigError(Exception):
    """Bad flags, bad config file, or an unusable flag combination."""


@dataclass
class PipelineConfig:
    command: str = "enforce"
    input: str | None = None
    gen: str | None = None
    n_bits: int = 10
    unit_cost: float = 1.0
    noise_sigma: float = 0.0
    group_sizes: tuple[int, ...] = (5, 5, 5, 10)
    slopes: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    n_publics: int = 50
    epsilon: float = 1e-6
    measure: str = "minguess"
    delta: float = 0.5
    algo: str | None = None
    n_starts: int = 8
    baseline: str = "double"
    buckets: int = 2
    sweep: str | None = None
    seed: int = 0
    out: str = "out"
    max_depth: int = 6
    min_leaf: int = 1
    dump_tables: bool = False


def _write_atomic(path: Path, write) -> None:
    """Call ``write(tmp_path)``, then rename the temp file over ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _write_text(path: Path, text: str) -> None:
    _write_atomic(path, lambda tmp: tmp.write_text(text))


def _write_json(path: Path, data) -> None:
    _write_text(path, json.dumps(data, indent=2) + "\n")


def _write_dataset(path: Path, dataset) -> None:
    _write_atomic(path, lambda tmp: timing.write_csv(dataset, tmp))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(v) for v in row) + "\n")
    return buf.getvalue()


def _fmt(v: float) -> str:
    return repr(float(v))


def _load_dataset(config: PipelineConfig):
    """Returns (dataset, counts) where counts are simulated instrumentation
    counters when a generator cost model is available, else None."""
    if config.input is not None and config.gen is not None:
        raise ConfigError("give either --input or --gen, not both")
    if config.input is not None:
        return timing.read_csv(config.input), None
    if config.gen == "mod_exp":
        ds = timing.gen_mod_exp(
            config.n_bits, config.unit_cost, config.noise_sigma, config.seed
        )
        return ds, enforcement.mod_exp_counts(ds)
    if config.gen == "branch_loop":
        ds = timing.gen_branch_loop(
            config.group_sizes,
            config.slopes,
            config.n_publics,
            config.noise_sigma,
            config.seed,
        )
        return ds, enforcement.branch_loop_counts(ds, config.group_sizes, config.slopes)
    raise ConfigError("provide --input CSV or --gen {mod_exp,branch_loop}")


def _synthesize(classes, config: PipelineConfig, algo: str, delta: float,
                warm_starts=()):
    """Returns (policy, diagnostics or None, DP tables or None)."""
    measure = EntropyMeasure(config.measure)
    if algo == "det":
        policy, tables = synthesize_det(classes, measure, delta, scan_all_r=True)
        return policy, None, tables
    if measure is EntropyMeasure.MINGUESS:
        policy, diag = synthesize_minguess(classes, delta)
    else:
        policy, diag = synthesize_local(
            classes,
            measure,
            delta,
            n_starts=config.n_starts,
            seed=config.seed,
            warm_starts=warm_starts,
        )
    return policy, diag, None


def cmd_generate(config: PipelineConfig) -> list[Path]:
    dataset, _ = _load_dataset(config)
    out = Path(config.out) / "dataset.csv"
    _write_dataset(out, dataset)
    print(f"wrote {out} ({dataset.n_secrets} secrets x {len(dataset.grid)} points)")
    return [out]


def cmd_cluster(config: PipelineConfig) -> list[Path]:
    dataset, _ = _load_dataset(config)
    classes = clustering.cluster_functions(dataset, config.epsilon)
    out = Path(config.out) / "classes.json"
    _write_json(out, clustering.classset_to_json(classes))
    print(f"wrote {out} ({classes.k} classes from {dataset.n_secrets} secrets)")
    return [out]


def cmd_entropy(config: PipelineConfig) -> list[Path]:
    dataset, _ = _load_dataset(config)
    classes = clustering.cluster_functions(dataset, config.epsilon)
    sizes = classes.sizes
    values = {m.value: entropy(sizes, m) for m in EntropyMeasure}
    data = {
        "k": classes.k,
        "class_sizes": [int(s) for s in sizes],
        "entropies": values,
    }
    out = Path(config.out) / "entropy.json"
    _write_json(out, data)
    print(
        "entropies: "
        + " ".join(f"{name}={value!r}" for name, value in values.items())
    )
    return [out]


def cmd_synthesize(config: PipelineConfig) -> list[Path]:
    dataset, _ = _load_dataset(config)
    classes = clustering.cluster_functions(dataset, config.epsilon)
    algo = config.algo or "det"
    policy, diag, tables = _synthesize(classes, config, algo, config.delta)
    report = build_report(policy, classes, config.measure, config.delta)
    out = Path(config.out) / "policy.json"
    diag_dict = dataclasses.asdict(diag) if diag is not None else None
    _write_json(out, policy_to_json(policy, report, diag_dict))
    written = [out]
    if tables is not None and config.dump_tables:
        tables_path = Path(config.out) / "dp_tables.csv"
        _write_atomic(tables_path, tables.to_csv)
        written.append(tables_path)
    print(
        f"{algo} policy: entropy {report.entropy_before!r} -> "
        f"{report.entropy_after!r}, overhead {report.expected_overhead!r}"
    )
    for path in written:
        print(f"wrote {path}")
    return written


def cmd_baseline(config: PipelineConfig) -> list[Path]:
    dataset, _ = _load_dataset(config)
    classes = clustering.cluster_functions(dataset, config.epsilon)
    if config.baseline == "double":
        mitigated, after = baselines.double_scheme(dataset, epsilon=config.epsilon)
    elif config.baseline == "bucketing":
        buckets = baselines.fit_buckets(dataset.times.ravel(), config.buckets)
        mitigated, after = baselines.apply_buckets(
            dataset, buckets, epsilon=config.epsilon
        )
    else:
        raise ConfigError(f"unknown baseline {config.baseline!r}")
    overhead = timing.relative_overhead(dataset, mitigated)
    report = {
        "method": config.baseline,
        "classes_before": classes.k,
        "classes_after": after.k,
        "overhead": overhead,
        "entropies": [
            {
                "measure": m.value,
                "entropy_before": entropy(classes.sizes, m),
                "entropy_after": entropy(after.sizes, m),
            }
            for m in EntropyMeasure
        ],
    }
    out_dir = Path(config.out)
    csv_path = out_dir / "mitigated.csv"
    _write_dataset(csv_path, mitigated)
    classes_path = out_dir / "baseline_classes.json"
    _write_json(classes_path, clustering.classset_to_json(after))
    report_path = out_dir / "baseline_report.json"
    _write_json(report_path, report)
    print(
        f"{config.baseline}: {classes.k} -> {after.k} classes, "
        f"overhead {overhead!r}"
    )
    return [csv_path, classes_path, report_path]


def run_pipeline(config: PipelineConfig) -> list[Path]:
    """Cluster, synthesize, train the classifier, enforce, and report."""
    dataset, counts = _load_dataset(config)
    classes = clustering.cluster_functions(dataset, config.epsilon)
    algo = config.algo or "det"
    policy, diag, _ = _synthesize(classes, config, algo, config.delta)
    report = build_report(policy, classes, config.measure, config.delta)

    if counts is None:
        features = enforcement.timing_features(dataset)
    else:
        features = enforcement.counter_features(dataset, counts)
    samples = enforcement.training_samples(features, classes)
    tree = enforcement.learn_tree(samples, config.max_depth, config.min_leaf)
    mitigated, enforce_report = enforcement.enforce(
        dataset, classes, policy, tree, config.seed, features,
        epsilon=config.epsilon,
    )

    out_dir = Path(config.out)
    artifacts: list[Path] = []

    classes_path = out_dir / "classes.json"
    _write_json(classes_path, clustering.classset_to_json(classes))
    artifacts.append(classes_path)

    policy_path = out_dir / "policy.json"
    diag_dict = dataclasses.asdict(diag) if diag is not None else None
    _write_json(policy_path, policy_to_json(policy, report, diag_dict))
    artifacts.append(policy_path)

    tree_path = out_dir / "tree.json"
    _write_json(tree_path, enforcement.tree_to_json(tree))
    artifacts.append(tree_path)

    mitigated_path = out_dir / "mitigated.csv"
    _write_dataset(mitigated_path, mitigated)
    artifacts.append(mitigated_path)

    enforcement_path = out_dir / "enforcement.json"
    _write_json(enforcement_path, enforcement.report_to_json(enforce_report))
    artifacts.append(enforcement_path)

    summary_path = out_dir / "summary.csv"
    header = (
        "source", "k_before", "classes_after", "measure", "delta", "algo",
        "entropy_before", "entropy_after", "expected_overhead",
        "realized_overhead", "misclassification_rate",
    )
    source = config.input if config.input is not None else config.gen
    row = (
        source,
        classes.k,
        enforce_report.n_classes_after,
        config.measure,
        _fmt(config.delta),
        algo,
        _fmt(report.entropy_before),
        _fmt(report.entropy_after),
        _fmt(report.expected_overhead),
        _fmt(enforce_report.realized_overhead),
        _fmt(enforce_report.misclassification_rate),
    )
    _write_text(summary_path, _csv_text(header, [row]))
    artifacts.append(summary_path)

    print(
        f"enforced {algo}/{config.measure}: {classes.k} -> "
        f"{enforce_report.n_classes_after} classes, realized overhead "
        f"{enforce_report.realized_overhead!r}"
    )
    for path in artifacts:
        print(f"wrote {path}")
    return artifacts


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
    """Solve across a budget grid; entropy per algorithm must never decrease."""
    if not config.sweep:
        raise ConfigError("--sweep start:stop:step is required")
    grid = _parse_sweep_grid(config.sweep)
    dataset, _ = _load_dataset(config)
    classes = clustering.cluster_functions(dataset, config.epsilon)
    algos = [config.algo] if config.algo else ["det", "stoch"]
    measure = EntropyMeasure(config.measure)

    rows = []
    for algo in algos:
        repaired = []
        for delta in grid:
            policy, _, _ = _synthesize(classes, config, algo, delta)
            report = build_report(policy, classes, measure, delta)
            ent, over = report.entropy_after, report.expected_overhead
            # A feasible policy stays feasible at any larger budget, so
            # carrying the best-so-far forward repairs any local-search wobble.
            if repaired and repaired[-1][0] > ent:
                ent, over = repaired[-1]
            repaired.append((ent, over))
            rows.append((delta, algo, ent, over))
        ents = [r[0] for r in repaired]
        if any(b < a for a, b in zip(ents, ents[1:])):
            raise SolverError("sweep entropies are not monotone in the budget")

    out_dir = Path(config.out)
    csv_path = out_dir / "sweep.csv"
    header = ("delta", "algo", "measure", "entropy_after", "overhead")
    csv_rows = [
        (_fmt(delta), algo, measure.value, _fmt(ent), _fmt(over))
        for delta, algo, ent, over in rows
    ]
    _write_text(csv_path, _csv_text(header, csv_rows))

    series = {
        algo: [(delta, ent) for delta, a, ent, _ in rows if a == algo]
        for algo in algos
    }
    svg_path = out_dir / "sweep.svg"
    _write_text(
        svg_path,
        _svg_line_chart(
            series, "overhead budget", f"{measure.value} entropy", "budget sweep"
        ),
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return [csv_path, svg_path]


def compare(config: PipelineConfig) -> list[Path]:
    """One table row per mitigation approach on a shared dataset."""
    dataset, _ = _load_dataset(config)
    classes = clustering.cluster_functions(dataset, config.epsilon)

    def all_entropies(sizes):
        return {m: entropy(sizes, m) for m in EntropyMeasure}

    results = [("initial", classes.k, all_entropies(classes.sizes), 0.0)]
    mitigated, after = baselines.double_scheme(dataset, epsilon=config.epsilon)
    results.append(("double", after.k, all_entropies(after.sizes),
                    timing.relative_overhead(dataset, mitigated)))
    buckets = baselines.fit_buckets(dataset.times.ravel(), config.buckets)
    mitigated, after = baselines.apply_buckets(dataset, buckets, epsilon=config.epsilon)
    results.append(("bucketing", after.k, all_entropies(after.sizes),
                    timing.relative_overhead(dataset, mitigated)))
    for algo in ("det", "stoch"):
        policy, _, _ = _synthesize(classes, config, algo, config.delta)
        post = expected_sizes(policy, classes.sizes)
        nonzero = int((post > 1e-9).sum())
        results.append(
            (algo, nonzero, all_entropies(post), expected_overhead(policy, classes))
        )

    out_dir = Path(config.out)
    csv_path = out_dir / "compare.csv"
    header = ("method", "classes_after", "minguess", "shannon", "guessing", "overhead")
    csv_rows = [
        (
            name,
            n_classes,
            _fmt(ents[EntropyMeasure.MINGUESS]),
            _fmt(ents[EntropyMeasure.SHANNON]),
            _fmt(ents[EntropyMeasure.GUESSING]),
            _fmt(overhead),
        )
        for name, n_classes, ents, overhead in results
    ]
    _write_text(csv_path, _csv_text(header, csv_rows))
    print(f"wrote {csv_path}")
    return [csv_path]


# Allowed values of the string settings, for flags and config files alike.
_CHOICES = {
    "gen": ("mod_exp", "branch_loop"),
    "measure": tuple(m.value for m in EntropyMeasure),
    "algo": ("det", "stoch"),
    "baseline": ("double", "bucketing"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _float_list(raw: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {raw!r}")


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in str(raw).split(","))
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {raw!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="leakmit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "generate": "write a synthetic dataset CSV",
        "cluster": "group secrets into observation classes",
        "entropy": "report the leakage of a dataset",
        "synthesize": "search for a mitigation policy",
        "baseline": "run a reference mitigation",
        "enforce": "full pipeline: synthesize, classify, pad, report",
        "sweep": "synthesize across a budget grid",
        "compare": "table of all mitigation approaches",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with flag defaults")
        p.add_argument("--input", help="dataset CSV path")
        p.add_argument("--gen", choices=_CHOICES["gen"])
        p.add_argument("--n-bits", dest="n_bits", type=int)
        p.add_argument("--unit-cost", dest="unit_cost", type=float)
        p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
        p.add_argument("--group-sizes", dest="group_sizes", type=_int_list)
        p.add_argument("--slopes", type=_float_list)
        p.add_argument("--n-publics", dest="n_publics", type=int)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--measure", choices=_CHOICES["measure"])
        p.add_argument("--delta", type=float)
        p.add_argument("--algo", choices=_CHOICES["algo"])
        p.add_argument("--n-starts", dest="n_starts", type=int)
        p.add_argument("--baseline", choices=_CHOICES["baseline"])
        p.add_argument("--buckets", type=int)
        p.add_argument("--sweep", help="budget grid start:stop:step")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--max-depth", dest="max_depth", type=int)
        p.add_argument("--min-leaf", dest="min_leaf", type=int)
        p.add_argument("--dump-tables", dest="dump_tables", action="store_true",
                       default=None)
    return parser


def _json_fits(value, hint) -> bool:
    """Whether a JSON config value has the type of a PipelineConfig field."""
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_json_fits(v, item) for v in value)
    if typing.get_args(hint):  # an optional field: X | None
        return any(_json_fits(value, arg) for arg in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _build_config(args: argparse.Namespace) -> PipelineConfig:
    fields = {f.name: f for f in dataclasses.fields(PipelineConfig)}
    hints = typing.get_type_hints(PipelineConfig)
    values = {"command": args.command}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in raw.items():
            if key not in fields or key == "command":
                raise ConfigError(f"unknown config key {key!r}")
            if not _json_fits(value, hints[key]):
                raise ConfigError(
                    f"config key {key!r} must be {fields[key].type}, got {value!r}"
                )
            if isinstance(value, list):
                value = tuple(map(typing.get_args(hints[key])[0], value))
            values[key] = value
    for name in fields:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    config = PipelineConfig(**values)
    for name, allowed in _CHOICES.items():
        value = getattr(config, name)
        if value is not None and value not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
    # Written as "not >=" so that NaN fails too.
    if not config.delta >= 0:
        raise ConfigError("delta must be >= 0")
    if not config.epsilon > 0:
        raise ConfigError("epsilon must be > 0")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")
    if config.max_depth < 1 or config.min_leaf < 1:
        raise ConfigError("max_depth and min_leaf must be >= 1")
    return config


_DISPATCH = {
    "generate": cmd_generate,
    "cluster": cmd_cluster,
    "entropy": cmd_entropy,
    "synthesize": cmd_synthesize,
    "baseline": cmd_baseline,
    "enforce": run_pipeline,
    "sweep": sweep,
    "compare": compare,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _build_config(args)
        _DISPATCH[config.command](config)
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
