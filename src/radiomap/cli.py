"""Command-line front end: sweep and grid experiments, plus the self-check suite.

Subcommands
-----------
sweep     spatial-average RMSE for every (spacing ratio, method) pair
grid      per-point RMSE surface, histogram/CDF and heatmap at one ratio
validate  run the independent-oracle checks and report pass/fail

Configuration is a single JSON document mirroring ExperimentConfig field
for field, with the kernel settings in a "correlation" object. The key
check, parsing and manifest echo derive from the dataclass fields, and
ExperimentConfig.validate() checks every value. Every output is written
through a temp file and a rename. CSV files carry a header row, '.'
decimals and 12 significant digits; identical config and seed produce
byte-identical CSV regardless of --threads.

Exit codes: 0 success, 1 I/O failure, 2 invalid configuration, a kernel
and ratio outside the numeric range, or a resolution or realizations too
large for memory, 3 degenerate geometry, 4 validation check failure,
5 a Monte Carlo worker process that died or failed (killed by a signal,
say); its one stderr line names the worker's points and its status or signal.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import Point
from .estimators import ALL_METHODS, DegenerateGeometryError
from .harness import (
    CORRELATION_KEYS,
    EMITTER_PRESETS,
    MAX_THREADS,
    MODES,
    ConfigError,
    ExperimentConfig,
    WorkerError,
    grid_rmse,
    rmse_distribution,
    sweep,
)
from .svgplot import heatmap, line_chart
from .validation import INJECTABLE_BUGS, VALIDATION_SEED, run_validation

__all__ = ["main", "cmd_sweep", "cmd_grid", "cmd_validate", "load_config"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_VALIDATION = 4
EXIT_WORKER = 5

# Most histogram bins grid --bins takes: dist.csv has one row per bin.
MAX_BINS = 100_000


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _parse_emitter(raw) -> Point:
    if isinstance(raw, str) and raw in EMITTER_PRESETS:
        return EMITTER_PRESETS[raw]
    if isinstance(raw, tuple) and len(raw) == 2:
        try:
            return Point(*raw)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"field 'emitter': {err}") from err
    presets = ", ".join(sorted(EMITTER_PRESETS))
    raise ConfigError(f"field 'emitter' must be a preset ({presets}) or an [x, y] pair, got {raw!r}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Map a JSON config file onto ExperimentConfig and validate it; no value is coerced."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise OSError(f"cannot read config file {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    corr = doc.pop("correlation", {})
    unknown = set(doc) - ({f.name for f in fields(ExperimentConfig)} - set(CORRELATION_KEYS.values()))
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    if not isinstance(corr, dict):
        raise ConfigError("field 'correlation' must be an object")
    bad = set(corr) - set(CORRELATION_KEYS)
    if bad:
        raise ConfigError(f"unknown field(s) in 'correlation': {', '.join(sorted(bad))}")

    raw = {**doc, **{CORRELATION_KEYS[key]: value for key, value in corr.items()}}
    kwargs = {name: tuple(v) if isinstance(v, list) else v for name, v in raw.items()}
    if "emitter" in kwargs:
        kwargs["emitter"] = _parse_emitter(kwargs["emitter"])
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if not 1 <= args.threads <= MAX_THREADS:
        raise ConfigError(f"flag '--threads' must be between 1 and {MAX_THREADS}, got {args.threads}")
    updates = {}
    if getattr(args, "mode", None) is not None:
        updates["mode"] = args.mode
    if getattr(args, "seed", None) is not None:
        updates["master_seed"] = args.seed
    if getattr(args, "res", None) is not None:
        updates["resolution"] = args.res
    if getattr(args, "realizations", None) is not None:
        updates["realizations"] = args.realizations
    if getattr(args, "nu", None) is not None:
        updates["nu"] = float(args.nu)
    if updates:
        config = replace(config, **updates)
        config.validate()
    return config


def _config_echo(config: ExperimentConfig) -> dict:
    """The config in the JSON file's shape, for the manifest."""
    echo = {}
    for f in fields(config):
        value = getattr(config, f.name)
        echo[f.name] = [value.x, value.y] if isinstance(value, Point) else value
    echo["correlation"] = {key: echo.pop(name) for key, name in CORRELATION_KEYS.items()}
    return echo


def _write_manifest(
    out_dir: Path, config_echo: dict | None, seed: int | None, started: str, outputs: list[str], **settings
) -> None:
    """manifest.json: the run's config as it ran, any command settings outside it, its seed, times and outputs."""
    manifest = {
        "tool": "radiomap",
        "version": __version__,
        "master_seed": seed,
        "config": config_echo,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": outputs,
        **settings,
    }
    _write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file and a rename, so no reader sees a partial output."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def cmd_sweep(config_path: str, out_dir: str, args: argparse.Namespace) -> int:
    started = _utc_now()
    config = _apply_overrides(load_config(config_path), args)
    rows = sweep(config, threads=args.threads)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "sweep.csv",
        ["ratio", "method", "spatial_rmse_db", "mode", "mc_stderr_db"],
        (
            [_fmt(r.ratio), r.method, _fmt(r.spatial_rmse), r.mode, "" if r.mc_stderr is None else _fmt(r.mc_stderr)]
            for r in rows
        ),
    )

    series = []
    for method in config.methods:
        pts = [(r.ratio, r.spatial_rmse) for r in rows if r.method == method]
        series.append((method, [p[0] for p in pts], [p[1] for p in pts]))
    svg = line_chart(
        series,
        xlabel="sensor spacing / correlation distance",
        ylabel="spatial RMSE (dB)",
        title=f"interpolation error, {config.kernel} kernel, emitter ({config.emitter.x:g}, {config.emitter.y:g})",
    )
    _write_atomic(out / "sweep.svg", svg)
    _write_manifest(out, _config_echo(config), config.master_seed, started, ["sweep.csv", "sweep.svg"])
    return EXIT_OK


def cmd_grid(config_path: str, ratio: float, method: str, out_dir: str, args: argparse.Namespace) -> int:
    started = _utc_now()
    config = _apply_overrides(load_config(config_path), args)
    if not (math.isfinite(ratio) and ratio > 0 and config.side_m / ratio > 0):
        raise ConfigError(f"flag '--ratio' must be finite and > 0 with side_m / ratio > 0, got {ratio} at side_m {config.side_m}")
    if args.bins < 1:
        raise ConfigError(f"flag '--bins' must be >= 1, got {args.bins}")
    if args.bins > MAX_BINS:
        raise ConfigError(f"flag '--bins' must be <= {MAX_BINS}, got {args.bins}")
    surface = grid_rmse(config, ratio, method, threads=args.threads)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "grid.csv",
        ["x_m", "y_m", "rmse_db"],
        ([_fmt(x), _fmt(y), _fmt(v)] for (x, y), v in zip(surface.xy.tolist(), surface.rmse)),
    )
    dist = rmse_distribution(surface, bins=args.bins)
    _write_csv(
        out / "dist.csv",
        ["bin_center_db", "pdf", "cdf"],
        ([_fmt(c), _fmt(p), _fmt(q)] for c, p, q in zip(dist.bin_centers, dist.pdf, dist.cdf)),
    )

    values = np.asarray(surface.rmse).reshape(config.resolution, config.resolution)
    svg = heatmap(
        values,
        side=config.side_m,
        label=f"{method} RMSE (dB), spacing ratio {ratio:g}, spatial avg {surface.spatial_rmse:.3f}",
    )
    _write_atomic(out / "grid.svg", svg)
    # the one-ratio, one-method config that grid_rmse ran and the bins are what rebuild grid.csv and dist.csv
    echo = _config_echo(replace(config, ratios=(ratio,), methods=(method,)))
    _write_manifest(out, echo, config.master_seed, started, ["grid.csv", "dist.csv", "grid.svg"], bins=args.bins)
    return EXIT_OK


def cmd_validate(out_dir: str, args: argparse.Namespace) -> int:
    started = _utc_now()
    seed = VALIDATION_SEED if args.seed is None else args.seed
    results = run_validation(master_seed=seed, inject_bug=args.inject_bug)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "validate.csv",
        ["check", "passed", "delta", "threshold"],
        ([r.name, str(r.passed).lower(), _fmt(r.delta), _fmt(r.threshold)] for r in results),
    )
    _write_manifest(out, None, seed, started, ["validate.csv"])
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name}: {status} (delta {r.delta:.3g}, threshold {r.threshold:.3g})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radiomap",
        description="Radio-map interpolation experiments over a square sensor layout.",
    )
    parser.add_argument("--version", action="version", version=f"radiomap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--mode", choices=MODES, default=None, help="override config mode")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--res", type=int, default=None, help="override grid resolution")
        p.add_argument("--realizations", type=int, default=None, help="override realization count")
        p.add_argument("--nu", type=int, choices=(1, 2, 3), default=None, help="inverse-distance exponent")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help=f"Monte Carlo workers, 1 to {MAX_THREADS}; analytic mode uses one",
        )

    p_sweep = sub.add_parser("sweep", help="spatial RMSE vs spacing ratio for each method")
    p_sweep.add_argument("config", help="JSON config file")
    p_sweep.add_argument("out_dir", help="output directory")
    add_common(p_sweep)

    p_grid = sub.add_parser("grid", help="per-point RMSE surface at one spacing ratio")
    p_grid.add_argument("config", help="JSON config file")
    p_grid.add_argument("out_dir", help="output directory")
    p_grid.add_argument("--ratio", type=float, required=True, help="spacing / correlation distance")
    p_grid.add_argument("--method", required=True, choices=ALL_METHODS, help="estimator to evaluate")
    p_grid.add_argument("--bins", type=int, default=40, help=f"histogram bin count, 1 to {MAX_BINS}")
    add_common(p_grid)

    p_val = sub.add_parser("validate", help="run the independent-oracle check suite")
    p_val.add_argument("out_dir", help="output directory")
    p_val.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    p_val.add_argument("--inject-bug", choices=INJECTABLE_BUGS, default=None, help=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out_dir, args)
        if args.command == "grid":
            return cmd_grid(args.config, args.ratio, args.method, args.out_dir, args)
        return cmd_validate(args.out_dir, args)  # the subparsers are required: the command is validate
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateGeometryError as err:
        print(f"degenerate geometry: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("out of memory: lower 'resolution' or 'realizations'", file=sys.stderr)
        return EXIT_CONFIG
    except WorkerError as err:
        print(f"worker failed: {err}", file=sys.stderr)
        return EXIT_WORKER


if __name__ == "__main__":
    sys.exit(main())
