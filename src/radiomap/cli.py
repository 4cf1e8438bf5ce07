"""Command-line front end: sweep and grid experiments, plus the self-check suite.

Subcommands
-----------
sweep     spatial-average RMSE for every (spacing ratio, method) pair
grid      per-point RMSE surface, histogram/CDF and heatmap at one ratio
validate  run the independent-oracle checks and report pass/fail

Configuration is a single JSON document mirroring ExperimentConfig field
for field; unknown keys are rejected so typos surface immediately. CSV
files carry a header row, '.' decimals and 12 significant digits; identical
config and seed produce byte-identical CSV regardless of --threads.

Exit codes: 0 success, 1 I/O failure, 2 invalid configuration, 3 degenerate
geometry, 4 validation check failure.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import Point
from .estimators import ALL_METHODS, DegenerateGeometryError
from .harness import (
    EMITTER_PRESETS,
    MODES,
    ConfigError,
    ExperimentConfig,
    grid_rmse,
    rmse_distribution,
    sweep,
)
from .svgplot import heatmap, line_chart
from .validation import run_validation

__all__ = ["main", "cmd_sweep", "cmd_grid", "cmd_validate", "load_config"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_VALIDATION = 4

_CONFIG_KEYS = {
    "side_m",
    "emitter",
    "a_db",
    "gamma",
    "sigma_db",
    "correlation",
    "ratios",
    "resolution",
    "realizations",
    "methods",
    "master_seed",
    "mode",
    "nu",
}
_CORRELATION_KEYS = {"kind", "axis_ratio", "rotation_rad"}


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _parse_emitter(raw) -> Point:
    if isinstance(raw, str):
        if raw not in EMITTER_PRESETS:
            raise ConfigError(
                f"field 'emitter': unknown preset {raw!r}; presets: {', '.join(sorted(EMITTER_PRESETS))}"
            )
        return EMITTER_PRESETS[raw]
    if isinstance(raw, (list, tuple)) and len(raw) == 2:
        try:
            return Point(float(raw[0]), float(raw[1]))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"field 'emitter': {err}") from err
    raise ConfigError("field 'emitter' must be a preset name or an [x, y] pair")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment configuration."""
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

    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")

    kwargs = {}
    if "emitter" in doc:
        kwargs["emitter"] = _parse_emitter(doc["emitter"])
    if "correlation" in doc:
        corr = doc["correlation"]
        if not isinstance(corr, dict):
            raise ConfigError("field 'correlation' must be an object")
        bad = set(corr) - _CORRELATION_KEYS
        if bad:
            raise ConfigError(f"unknown field(s) in 'correlation': {', '.join(sorted(bad))}")
        if "kind" in corr:
            kwargs["kernel"] = corr["kind"]
        if "axis_ratio" in corr:
            kwargs["axis_ratio"] = float(corr["axis_ratio"])
        if "rotation_rad" in corr:
            kwargs["rotation_rad"] = float(corr["rotation_rad"])

    for key, conv in (
        ("side_m", float),
        ("a_db", float),
        ("gamma", float),
        ("sigma_db", float),
        ("resolution", int),
        ("realizations", int),
        ("master_seed", int),
        ("mode", str),
        ("nu", float),
    ):
        if key in doc:
            try:
                kwargs[key] = conv(doc[key])
            except (TypeError, ValueError) as err:
                raise ConfigError(f"field {key!r}: {err}") from err
    if "ratios" in doc:
        try:
            kwargs["ratios"] = tuple(float(r) for r in doc["ratios"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"field 'ratios': {err}") from err
    if "methods" in doc:
        if not isinstance(doc["methods"], list):
            raise ConfigError("field 'methods' must be a list of method names")
        kwargs["methods"] = tuple(str(m) for m in doc["methods"])

    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.threads < 1:
        raise ConfigError(f"flag '--threads' must be >= 1, got {args.threads}")
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
    return {
        "side_m": config.side_m,
        "emitter": [config.emitter.x, config.emitter.y],
        "a_db": config.a_db,
        "gamma": config.gamma,
        "sigma_db": config.sigma_db,
        "correlation": {
            "kind": config.kernel,
            "axis_ratio": config.axis_ratio,
            "rotation_rad": config.rotation_rad,
        },
        "ratios": list(config.ratios),
        "resolution": config.resolution,
        "realizations": config.realizations,
        "methods": list(config.methods),
        "master_seed": config.master_seed,
        "mode": config.mode,
        "nu": config.nu,
    }


def _write_manifest(
    out_dir: Path, config_echo: dict | None, seed: int | None, started: str, outputs: list[str]
) -> None:
    manifest = {
        "tool": "radiomap",
        "version": __version__,
        "master_seed": seed,
        "config": config_echo,
        "started_utc": started,
        "finished_utc": _utc_now(),
        "outputs": outputs,
    }
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, out_dir / "manifest.json")


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _named_degenerate(config: ExperimentConfig, err: DegenerateGeometryError) -> DegenerateGeometryError:
    return DegenerateGeometryError(
        f"emitter at ({config.emitter.x:g}, {config.emitter.y:g}): {err}"
    )


def cmd_sweep(config_path: str, out_dir: str, args: argparse.Namespace) -> int:
    started = _utc_now()
    config = _apply_overrides(load_config(config_path), args)
    try:
        rows = sweep(config, threads=args.threads)
    except DegenerateGeometryError as err:
        raise _named_degenerate(config, err) from err

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ratio", "method", "spatial_rmse_db", "mode", "mc_stderr_db"])
        for row in rows:
            writer.writerow(
                [
                    _fmt(row.ratio),
                    row.method,
                    _fmt(row.spatial_rmse),
                    row.mode,
                    "" if row.mc_stderr is None else _fmt(row.mc_stderr),
                ]
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
    (out / "sweep.svg").write_text(svg)
    _write_manifest(out, _config_echo(config), config.master_seed, started, ["sweep.csv", "sweep.svg"])
    return EXIT_OK


def cmd_grid(config_path: str, ratio: float, method: str, out_dir: str, args: argparse.Namespace) -> int:
    started = _utc_now()
    config = _apply_overrides(load_config(config_path), args)
    if not (math.isfinite(ratio) and ratio > 0):
        raise ConfigError(f"flag '--ratio' must be finite and > 0, got {ratio}")
    if args.bins < 1:
        raise ConfigError(f"flag '--bins' must be >= 1, got {args.bins}")
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}; valid methods: {', '.join(ALL_METHODS)}")
    try:
        surface = grid_rmse(config, ratio, method, threads=args.threads)
    except DegenerateGeometryError as err:
        raise _named_degenerate(config, err) from err

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "grid.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_m", "y_m", "rmse_db"])
        for p, v in zip(surface.points, surface.rmse):
            writer.writerow([_fmt(p.x), _fmt(p.y), _fmt(v)])

    dist = rmse_distribution(surface, bins=args.bins)
    with open(out / "dist.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center_db", "pdf", "cdf"])
        for c, p, q in zip(dist.bin_centers, dist.pdf, dist.cdf):
            writer.writerow([_fmt(c), _fmt(p), _fmt(q)])

    values = np.asarray(surface.rmse).reshape(config.resolution, config.resolution)
    svg = heatmap(
        values,
        side=config.side_m,
        label=f"{method} RMSE (dB), spacing ratio {ratio:g}, spatial avg {surface.spatial_rmse:.3f}",
    )
    (out / "grid.svg").write_text(svg)
    _write_manifest(
        out, _config_echo(config), config.master_seed, started, ["grid.csv", "dist.csv", "grid.svg"]
    )
    return EXIT_OK


def cmd_validate(out_dir: str, args: argparse.Namespace) -> int:
    started = _utc_now()
    results = run_validation(master_seed=args.seed if args.seed is not None else 20240,
                             inject_bug=args.inject_bug)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "validate.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check", "passed", "delta", "threshold"])
        for r in results:
            writer.writerow([r.name, str(r.passed).lower(), _fmt(r.delta), _fmt(r.threshold)])
    _write_manifest(out, None, getattr(args, "seed", None), started, ["validate.csv"])
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
        p.add_argument("--threads", type=int, default=1, help="worker threads for grid evaluation")

    p_sweep = sub.add_parser("sweep", help="spatial RMSE vs spacing ratio for each method")
    p_sweep.add_argument("config", help="JSON config file")
    p_sweep.add_argument("out_dir", help="output directory")
    add_common(p_sweep)

    p_grid = sub.add_parser("grid", help="per-point RMSE surface at one spacing ratio")
    p_grid.add_argument("config", help="JSON config file")
    p_grid.add_argument("out_dir", help="output directory")
    p_grid.add_argument("--ratio", type=float, required=True, help="spacing / correlation distance")
    p_grid.add_argument("--method", required=True, choices=ALL_METHODS, help="estimator to evaluate")
    p_grid.add_argument("--bins", type=int, default=40, help="histogram bin count")
    add_common(p_grid)

    p_val = sub.add_parser("validate", help="run the independent-oracle check suite")
    p_val.add_argument("out_dir", help="output directory")
    p_val.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    p_val.add_argument("--inject-bug", default=None, help=argparse.SUPPRESS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args.config, args.out_dir, args)
        if args.command == "grid":
            return cmd_grid(args.config, args.ratio, args.method, args.out_dir, args)
        if args.command == "validate":
            return cmd_validate(args.out_dir, args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateGeometryError as err:
        print(f"degenerate geometry: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
