"""Workload definitions, seeded config generation and the output checker.

A workload is one radiomap CLI command with a fixed size. The benchmark
seed only picks the master seed and the emitter position; the program sees
nothing but the generated JSON config and the command line.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import random
from dataclasses import asdict, dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

SIDE_M = 640.0
N_RATIOS = 9  # the default ratio list, left to the program
ALL_METHODS = ("sm0", "sm1", "sm2", "nn", "idw", "nat")

# Absolute tolerance against the recorded reference, in dB: the bound the
# ROADMAP sets for a batched engine against the scalar one.
REFERENCE_ATOL_DB = 1e-9
# sm0 is the MMSE bound; it may tie another method only to round-off.
ORDER_TOL_DB = 1e-9


class StaleReferenceError(RuntimeError):
    """The recorded reference does not belong to this workload definition."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "sweep" or "grid"
    mode: str
    resolution: int
    realizations: int
    threads: int
    kernel: dict
    why: str
    grid_method: str | None = None
    grid_ratio: float | None = None

    @property
    def evals(self) -> int:
        """RMSE values one CLI call produces: (point, ratio, method, engine) tuples."""
        points = self.resolution**2
        if self.command == "sweep":
            return points * N_RATIOS * len(ALL_METHODS)
        engines = 2 if self.mode == "both" else 1
        return points * engines

    def config(self, seed: int) -> dict:
        """The JSON config the program reads; a pure function of the seed."""
        rng = random.Random(seed)
        radius = SIDE_M * rng.uniform(0.75, 2.0)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        centre = SIDE_M / 2.0
        return {
            "side_m": SIDE_M,
            "emitter": [centre + radius * math.cos(angle), centre + radius * math.sin(angle)],
            "correlation": dict(self.kernel),
            "resolution": self.resolution,
            "realizations": self.realizations,
            "mode": self.mode,
            "master_seed": rng.randrange(2**63),
        }

    def argv(self, config_path: str, out_dir: str, threads: int | None = None) -> list[str]:
        """radiomap CLI arguments for one call."""
        argv = [self.command, config_path, out_dir]
        if self.command == "grid":
            argv += ["--method", self.grid_method, "--ratio", repr(self.grid_ratio)]
        return argv + ["--threads", str(self.threads if threads is None else threads)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-analytic",
            command="sweep",
            mode="analytic",
            resolution=12,
            realizations=10000,
            threads=1,
            kernel={"kind": "exponential"},
            why="paper headline curve in closed form; all time in the scalar correlation/linalg/estimators/analysis loop",
        ),
        Workload(
            name="sweep-mc",
            command="sweep",
            mode="mc",
            resolution=6,
            realizations=10000,
            threads=2,
            kernel={"kind": "exponential"},
            why="Monte Carlo sweep on 2 threads; bulk Philox normals, row correlation and refits, analysis never called",
        ),
        Workload(
            name="grid-both",
            command="grid",
            mode="both",
            resolution=32,
            realizations=2000,
            threads=1,
            kernel={"kind": "elliptical", "axis_ratio": 3.3, "rotation_rad": 0.5},
            grid_method="nat",
            grid_ratio=1.0,
            why="one-thread baseline: per-point MC overhead, elliptical kernel, Sibson at one ratio, heaviest CSV/SVG writer",
        ),
    )
}


def toy(workload: Workload) -> Workload:
    """The same command at toy size, for the benchmark's self-test."""
    return replace(workload, resolution=4, realizations=100)


# ---------------------------------------------------------------------------
# outputs


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def output_values(workload: Workload, out_dir: Path) -> dict[str, list[float]]:
    """Every number the CSV contract carries, by series name."""
    if workload.command == "sweep":
        rows = _read_csv(out_dir / "sweep.csv")
        values = {"sweep.spatial_rmse_db": [float(r["spatial_rmse_db"]) for r in rows]}
        if workload.mode != "analytic":
            values["sweep.mc_stderr_db"] = [float(r["mc_stderr_db"]) for r in rows]
        return values
    grid = _read_csv(out_dir / "grid.csv")
    dist = _read_csv(out_dir / "dist.csv")
    return {
        "grid.rmse_db": [float(r["rmse_db"]) for r in grid],
        "dist.bin_center_db": [float(r["bin_center_db"]) for r in dist],
        "dist.pdf": [float(r["pdf"]) for r in dist],
        "dist.cdf": [float(r["cdf"]) for r in dist],
    }


def check_outputs(workload: Workload, out_dir: Path, reference: dict | None) -> list[str]:
    """Problems with one call's outputs; an empty list means correct."""
    try:
        values = output_values(workload, out_dir)
    except (OSError, KeyError, ValueError) as err:
        return [f"unreadable output: {err}"]
    problems = []
    for series, vals in values.items():
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"{series}: non-finite value")

    if workload.command == "sweep":
        rows = _read_csv(out_dir / "sweep.csv")
        if len(rows) != N_RATIOS * len(ALL_METHODS):
            problems.append(f"sweep.csv: {len(rows)} rows, expected {N_RATIOS * len(ALL_METHODS)}")
        by_ratio: dict[str, dict[str, float]] = {}
        for r in rows:
            by_ratio.setdefault(r["ratio"], {})[r["method"]] = float(r["spatial_rmse_db"])
        for ratio, methods in by_ratio.items():
            best_other = min(v for m, v in methods.items() if m != "sm0")
            if not methods.get("sm0", math.inf) <= best_other + ORDER_TOL_DB:
                problems.append(f"sweep.csv: sm0 is not the lowest method at ratio {ratio}")
    elif len(values["grid.rmse_db"]) != workload.resolution**2:
        problems.append(f"grid.csv: {len(values['grid.rmse_db'])} rows, expected {workload.resolution**2}")

    if reference is not None:
        for series, ref in reference.items():
            got = values.get(series)
            if got is None or len(got) != len(ref):
                problems.append(f"{series}: shape differs from the reference")
                continue
            worst = max((abs(a - b) for a, b in zip(got, ref)), default=0.0)
            if not worst <= REFERENCE_ATOL_DB:
                problems.append(f"{series}: differs from the reference by {worst:.3g} dB")
    return problems


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json.gz"


def load_reference(workload: Workload, seed: int) -> dict | None:
    """Recorded output values for this seed, or None if the seed has none."""
    path = reference_path(workload)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        doc = json.load(fh)
    if _command_fields(doc["workload"]) != _command_fields(asdict(workload)):
        raise StaleReferenceError(f"{path.name} was recorded for another definition of {workload.name}")
    return doc["seeds"].get(str(seed))


def _command_fields(fields: dict) -> dict:
    return {k: v for k, v in fields.items() if k != "why"}
