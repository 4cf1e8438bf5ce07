"""Experiment orchestration: Monte Carlo and analytic RMSE over query grids.

A configuration fixes the square geometry, the propagation constants and
the correlation kernel; the sweep variable is the ratio of sensor spacing
to correlation distance (the correlation distance is set to side / ratio
with the geometry held fixed). Per-point RMS interpolation error is
computed either in closed form from the estimators' error forms (analytic
mode, the default) or by averaging squared errors over simulated shadow
realizations (mc mode); 'both' computes the two side by side and flags
points where they disagree beyond Monte Carlo noise. What no ratio changes
(the grid's (N, 2) coordinate array, the geometry-only weights) is
gathered once per sweep, and so is what every ratio needs: each ratio's
covariances and solve weights, built as stacks once for both engines, in
one set-up call (analysis.sweep_setup). The set-up then decides, before
either engine runs, whether the run can finish and, when it cannot, the
one error raised, with the same precedence in every mode (_grid_evals):
factor failures come back as values, not exceptions, and a run that
fails solves, draws and evaluates nothing. The closed form is one
array evaluation of every ratio at every grid point. The Monte Carlo
kernel only computes, point-major, in chunks and blocks of points (see its
section below), writing one (K, M, N) array. One driver, _mc_rmse, runs a
grid's points, point_rmse_mc's one point and the validation check's
points. Each engine's spatial aggregates come from one row-wise pass.

Monte Carlo determinism: realizations for grid point i come from the
substream keyed by (master_seed, i), so results are bitwise identical for
any worker count, any method grouping and any set of ratios.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import threading
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import NoReturn

import numpy as np

from .geometry import DegenerateGeometryError, Point, QueryGrid, Scenario, build_square_scenario, coordinates, make_grid
from .correlation import CorrelationModel, KERNEL_KINDS, EXPONENTIAL
from .field import _check_stream_keys, correlate_normals, standard_normal_block
from .estimators import ALL_METHODS, OutsideHullError, _DEVIATIONS, _MEASUREMENTS, _RESIDUALS, _UNBIASED, _estimator, lse_fit
from .analysis import SweepSetup, grid_analytic_rmse, sweep_setup

__all__ = [
    "CORRELATION_KEYS",
    "DEFAULT_RATIOS",
    "EMITTER_PRESETS",
    "MAX_THREADS",
    "ConfigError",
    "WorkerError",
    "ExperimentConfig",
    "check_master_seed",
    "RmseSurface",
    "SweepRow",
    "RmseDistribution",
    "spatial_average",
    "point_rmse_mc",
    "grid_rmse",
    "sweep",
    "rmse_distribution",
]

DEFAULT_RATIOS = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)

EMITTER_PRESETS = {
    "E1": Point(-100.0, 0.0),
    "E2": Point(-100.0, 320.0),
    "E3": Point(-400.0, -400.0),
}

MODES = ("analytic", "mc", "both")

# Most Monte Carlo workers a run takes. Each worker is a process (a thread
# where fork is not safe) that holds the workspace _workspace_shapes sizes,
# so the bound caps memory as well as OS processes.
MAX_THREADS = 64

# Most grid points (resolution^2) and realizations a config may ask for: far
# below numpy's 2^63-byte array limit, so a run too large for memory ends in
# MemoryError, not a sizing error; one row of 2^40 doubles is 8 TiB.
_MAX_COUNT = 2**40

# Keys of the JSON config's "correlation" object, mapped to the fields they set.
CORRELATION_KEYS = {"kind": "kernel", "axis_ratio": "axis_ratio", "rotation_rad": "rotation_rad"}

# Field names as the JSON config spells them, where they differ.
_JSON_NAMES = {name: f"correlation.{key}" for key, name in CORRELATION_KEYS.items()}
# What a field takes, by the type of its default.
_KINDS = {float: "a finite number", int: "an integer", str: "a string", Point: "a point with finite coordinates"}


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending field."""


class WorkerError(RuntimeError):
    """A Monte Carlo worker process failed; the message names its points and its exit status or signal."""


def check_master_seed(seed: int) -> None:
    """Raise ConfigError unless seed keys a Philox stream: an unsigned 64-bit integer."""
    if seed < 0 or seed >= 2**64:
        raise ConfigError(f"field 'master_seed' must fit in an unsigned 64-bit integer, got {seed}")


def _kind(default) -> str:
    if isinstance(default, tuple):
        return f"a list with each item {_kind(default[0])}"
    return _KINDS[type(default)]


def _accepts(default, value) -> bool:
    """Whether value has the type that a field with this default takes."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_accepts(default[0], v) for v in value)
    if isinstance(default, Point):
        return isinstance(value, Point) and _accepts(0.0, value.x) and _accepts(0.0, value.y)
    if isinstance(value, bool):
        return False
    if isinstance(default, float):  # finite: rules out nan, inf and ints beyond the double range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; mirrors the JSON config file field for field."""

    side_m: float = 640.0
    emitter: Point = EMITTER_PRESETS["E1"]
    a_db: float = 15.3
    gamma: float = 3.76
    sigma_db: float = 5.0
    kernel: str = EXPONENTIAL
    axis_ratio: float = 3.3
    rotation_rad: float = 0.0
    ratios: tuple[float, ...] = DEFAULT_RATIOS
    resolution: int = 64
    realizations: int = 10000
    methods: tuple[str, ...] = ALL_METHODS
    master_seed: int = 12345
    mode: str = "analytic"
    nu: float = 1.0

    def validate(self) -> None:
        """Raise ConfigError naming the first field with a wrong type or value."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not _accepts(f.default, value):
                name = _JSON_NAMES.get(f.name, f.name)
                raise ConfigError(f"field {name!r} must be {_kind(f.default)}, got {value!r}")
        for name in ("side_m", "gamma", "sigma_db", "resolution", "realizations"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"field {name!r} must be positive, got {getattr(self, name)}")
        for name, count in (("resolution", self.resolution**2), ("realizations", self.realizations)):
            if count > _MAX_COUNT:
                raise ConfigError(f"field {name!r} is too large: over 2^40 points or draws, got {getattr(self, name)}")
        if not math.isfinite(math.hypot(self.side_m, self.side_m)):
            raise ConfigError(f"field 'side_m' is too large: the sensor diagonal overflows, got {self.side_m}")
        for name, allowed in (("kernel", KERNEL_KINDS), ("mode", MODES), ("nu", (1, 2, 3))):
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"field {_JSON_NAMES.get(name, name)!r} must be one of {allowed}, got {value!r}")
        if self.axis_ratio < 1:
            raise ConfigError(f"field 'correlation.axis_ratio' must be >= 1, got {self.axis_ratio}")
        if not self.ratios or self.ratios[0] <= 0 or list(self.ratios) != sorted(set(self.ratios)):
            raise ConfigError(f"field 'ratios' must be non-empty, positive and strictly ascending, got {self.ratios}")
        if not self.side_m / self.ratios[-1] > 0:
            raise ConfigError(f"field 'ratios' must keep side_m / ratio > 0, got {self.ratios[-1]} at side_m {self.side_m}")
        if not self.methods or len(set(self.methods)) != len(self.methods):
            raise ConfigError(f"field 'methods' must be non-empty without duplicates, got {self.methods}")
        for m in self.methods:
            if m not in ALL_METHODS:
                raise ConfigError(
                    f"field 'methods' contains unknown method {m!r}; valid methods: {', '.join(ALL_METHODS)}"
                )
        check_master_seed(self.master_seed)

    @classmethod
    def desk_preset(cls, **overrides) -> "ExperimentConfig":
        """Coarse, fast settings for interactive work: res 16, 2000 realizations."""
        settings = {"resolution": 16, "realizations": 2000}
        settings.update(overrides)
        return cls(**settings)

    def correlation_for_ratio(self, ratio: float) -> CorrelationModel:
        return CorrelationModel(
            kind=self.kernel,
            sigma=self.sigma_db,
            xc=self.side_m / ratio,
            axis_ratio=self.axis_ratio,
            rotation=self.rotation_rad,
        )

    def scenario(self, ratio: float) -> Scenario:
        return build_square_scenario(
            self.side_m, self.emitter, self.a_db, self.gamma, self.correlation_for_ratio(ratio)
        )

    def grid(self) -> QueryGrid:
        return make_grid(self.side_m, self.resolution)


@dataclass(frozen=True)
class RmseSurface:
    """Per-grid-point RMS errors for one (ratio, method) plus the spatial aggregate.

    xy is the grid's (N, 2) coordinate array (QueryGrid.xy), and rmse[i]
    the error at row i. mc_stderr is the standard error of spatial_rmse
    from the independent per-point Monte Carlo estimates, in mc and both
    modes.
    """

    method: str
    mode: str
    ratio: float
    resolution: int
    xy: np.ndarray
    rmse: np.ndarray
    spatial_rmse: float
    rmse_analytic: np.ndarray | None = None
    rmse_mc: np.ndarray | None = None
    mc_within_3se: np.ndarray | None = None
    mc_stderr: float | None = None


@dataclass(frozen=True)
class SweepRow:
    ratio: float
    method: str
    spatial_rmse: float
    mode: str
    mc_stderr: float | None


@dataclass(frozen=True)
class RmseDistribution:
    bin_centers: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray


def spatial_average(per_point: np.ndarray) -> float:
    """Root of the spatial mean of squared per-point values.

    The squares are taken relative to a power of two just above the largest
    magnitude, so they cannot overflow, and the scaling is exact. An empty
    per_point raises ValueError.
    """
    if not (values := np.reshape(np.asarray(per_point, dtype=float), (1, -1))).size:
        raise ValueError("spatial_average needs per-point values, got an empty array")
    return float(_rms_rows(values)[0])


def _rms_rows(rows: np.ndarray) -> np.ndarray:
    """spatial_average of each row of a 2-D array, each with the bits it has alone.

    A row whose mean square lies in _PLAIN_MEAN_SQUARES takes the root of
    its plain mean square (_root_mean_squares), which has the bits of the
    scaled formula there; every other row, NaN and inf included, takes the
    scaled formula (_scaled_rms_rows).
    """
    with np.errstate(over="ignore"):  # such rows take the scaled formula
        rms, plain = _root_mean_squares(np.square(rows))
    if not plain.all():
        rms[~plain] = _scaled_rms_rows(rows[~plain])
    return rms


# Mean squares whose root _root_mean_squares takes as it is. Scaling a row by
# a power of two commutes with every rounding of its squares, sum, mean and
# root while all of them stay normal, so inside this range the plain root has
# the scaled formula's bits: squares too small to be normal lie far below the
# last bit of the sum (0 mismatches in 12,000 random rows of tiny, huge and
# zero entries).
_PLAIN_MEAN_SQUARES = (2.0**-700, 2.0**700)


def _root_mean_squares(squares: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The root of the mean of each row of squares (its last axis), and whether it lies in _PLAIN_MEAN_SQUARES."""
    mean = np.mean(squares, axis=-1)
    low, high = _PLAIN_MEAN_SQUARES
    return np.sqrt(mean), (mean >= low) & (mean <= high)


def _scaled_rms_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """spatial_average of each row (its last axis) of an array, scaled against overflow, in one pass over the block.

    A row-wise reduction gives each row the bits it has alone. The rows'
    magnitudes are scaled in out, if given, which may be rows itself: the
    squares of the magnitudes are those of the values. Multiplying by the
    reciprocal of a power of two is dividing by it, bit for bit. A row below
    2^-1023, whose reciprocal would overflow, is scaled by 2^1023 instead:
    its values, squares, mean and root are then those of division times one
    exact power of two, none subnormal, and the last product is the same.
    """
    scaled = np.abs(rows, out=out)
    top = np.maximum(_power_of_two_above(scaled, axis=-1), 2.0**-1023)
    scaled *= (1.0 / top)[..., None]
    return np.sqrt(np.mean(np.square(scaled, out=scaled), axis=-1)) * top


def _power_of_two_above(magnitudes: np.ndarray, axis: int | None = None) -> np.ndarray:
    """The power of two just above the largest of the magnitudes (along axis): dividing by it is exact.

    Above 2^1023 it is 2^1023, the largest power of two a double holds, and
    the scaled magnitudes lie below 2.
    """
    return np.ldexp(1.0, np.minimum(np.frexp(magnitudes.max(axis=axis))[1], 1023))


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
#
# The simulated route shares the estimators' weights and method table but
# re-runs the estimation pipeline on each realized measurement vector, with
# its own refit (lse_fit) batched across realizations, instead of reusing
# the closed-form error coefficients, so that analytic and Monte Carlo
# results stay independent checks of one another. A point's normals depend
# on its stream alone, so one draw serves every ratio.
#
# Set-up runs before any draw, in analysis.sweep_setup(joint=True): one
# in-place factor of every point's joint covariance under every ratio,
# decided before the solve weights, which are the analytic engine's, and the
# first failing ratio and its error returned as values. Past set-up nothing
# fails: the fit's constants were checked there, and the kernel runs
# with numpy's errors off, its inf and NaN named later by the finiteness checks.
#
# The points run as min(threads, N) tasks over contiguous chunks, each in
# blocks of P = max(1, _BLOCK_DOUBLES // R) points, written with out= into
# one workspace of sensor-major R-length rows per task (_McWorkspace):
# fresh temporaries of a few hundred KB would fault in new pages each
# time. Each point holds its rows in one (P, rows, R) stack: its truth
# row, its measurement rows, then its deviation rows when sm0 runs and its
# refit rows when a method refits. Everything but the draws runs once over
# the block at each ratio: the row correlation (one stacked matmul), the
# median powers, the deviations, the refit (lse_fit on a (P, R, n) stack)
# and one product that predicts every method, the block's (P, M, width)
# weights, zero where a method does not apply, against the contiguous
# measurement, deviation and residual rows, with the biases added after.
# The RMS squares the errors in place and takes the root of each row's
# mean, two passes where the scaled formula takes five; a block with a
# mean square outside _PLAIN_MEAN_SQUARES computes its errors again for
# the scaled formula. Two runners take the tasks. The first, _run_forked,
# runs the first task in the caller and each later one in a forked worker
# process, each writing its chunk of one (K, M, N) result in an anonymous
# shared mapping; a one-worker run is one task and forks nothing. Fork is
# safe only while the caller runs no thread of its own, so otherwise, and
# where os.fork is missing, the second runner, a thread pool, takes more
# than one task. Threads buy little, since numpy drops the interpreter
# lock only inside a call, and at R = 10^4 calls last tens of
# microseconds: the sweep-mc config in one process took about 134 ms on
# one worker, 103 ms on two threads and 79 ms on two forked workers
# (medians of 24 interleaved rounds), on a 2-core Xeon VM. On one worker
# the draws take about 44 ms of it, and the rest about 260 us per point
# and ratio. Streams keyed by point make the split invisible in the bits.


# Least sigma_db a Monte Carlo run takes, as a fraction of the largest median
# power magnitude |P|: smaller shadows are lost in the round-off of P + s,
# and sm0's RMSE reads 0. Near the limit (|P| = 127.7 dB, sigma 1.3e-7 dB)
# sm0's and sm1's RMSEs strayed from sigma-scaling by 1e-9 and 8e-9. Any
# sigma of at least 1e-3 dB passes while |P| stays below 1e6 dB.
_SIGMA_FRACTION = 1e-9
# Least spread of P, or sigma_db where larger, any run takes, likewise: below
# it the path-loss bias is lost in the round-off of P (a_db 1e20 read nn 0.936
# dB for 9.66); near it (a_db 3.2e8 dB) sweeps strayed from a_db 15.3's by 7e-9.
_SPREAD_FRACTION = 1e-7


def _lost_sigma(setup: SweepSetup, sigma: float) -> str | None:
    """Why a Monte Carlo run of the set-up at this sigma (dB) would lose its shadows to round-off, or None if it would not."""
    top = float(max(np.abs(setup.pm0).max(), np.abs(setup.pm).max()))
    if sigma < _SIGMA_FRACTION * top < math.inf:  # non-finite medians are named by the finiteness checks
        return (
            f"{sigma!r} dB is below {_SIGMA_FRACTION:g} of the largest median power magnitude, {top:.6g} dB, "
            "so the shadows would be lost to round-off"
        )
    return None


def _lost_medians(setup: SweepSetup, config: ExperimentConfig) -> str | None:
    """Why the set-up's medians would lose the path-loss bias to round-off, or its analytic square overflow, or None."""
    p = np.concatenate((setup.pm0, setup.pm))
    top, term = np.abs(p).max(), np.abs(config.a_db - p).max()
    cause = f"field {'a_db' if abs(config.a_db) >= term else 'gamma'!r} sets median powers of up to {top:.6g} dB"
    if config.mode != "mc" and top > 2.0**510:  # each bias, up to 2 |P|, is squared
        return f"{cause}, above 2^510 dB, past which the analytic engine's squared bias may overflow"
    if top < math.inf and max(spread := np.ptp(p), config.sigma_db) < _SPREAD_FRACTION * top:
        return f"{cause}; spread {spread:.6g} dB and sigma_db under {_SPREAD_FRACTION:g} of it lose the bias to round-off"
    return None


# Doubles in one (points, R) plane of a block: P = max(1, _BLOCK_DOUBLES // R)
# points run per numpy pass, 8 at R = 2,000, one at R = 10^4.
_BLOCK_DOUBLES = 2**14


@contextmanager
def _unbuffered(row_length: int) -> Iterator[None]:
    """Run numpy's broadcast passes over rows of row_length along whole rows, not through its ufunc buffers, until exit.

    numpy 2 copies a broadcast operand, such as a (5, 1) column against
    (2000,) rows, into buffers (8192 elements by default) to run inner
    loops longer than a row; on rows of a few thousand doubles the copies
    cost more than they save (11 us against 3-4 us for that product on a
    2-core Xeon VM). A 16-element buffer, the smallest numpy takes, leaves
    nothing worth buffering. Rows as long as the default buffer are never
    joined, and there the small buffer only costs a few percent, so they
    keep the default. Elementwise results do not depend on the buffer, nor
    do sums along contiguous rows, which are never buffered. The buffer
    size is restored on exit, with the error state.
    """
    with np.errstate():
        if row_length < np.getbufsize():
            np.setbufsize(16)
        yield


def _operand(methods: Sequence[str]) -> list[str]:
    """The applied-to families whose n rows a point's stack holds for the product, in order: the measurements, then
    the deviations and the refit residuals when a method applies to them."""
    applied = {_estimator(m)[1] for m in methods}
    return [_MEASUREMENTS] + [family for family in (_DEVIATIONS, _RESIDUALS) if family in applied]


def _workspace_shapes(n_sensors: int, methods: Sequence[str], realizations: int, points: int) -> dict[str, tuple]:
    """The shape of each part of a Monte Carlo task's workspace (_McWorkspace) for blocks of up to points points.

    The one statement of its size: a task holds the sum of the parts' sizes
    in doubles, per point (2n + 2 + M') R, n sensors, M methods and M' =
    max(M, 2), plus n R for the deviations when sm0 runs and (n + 2) R for
    the refit when a method refits, and M' x width weights, width = n per
    family of the operand. Beside it a task holds one draw's R x W Philox
    words, W the n + 1 normals of a point rounded up to a multiple of 4.
    """
    families, rows = _operand(methods), max(len(methods), 2)  # a lone method's row runs twice
    width = n_sensors * len(families)
    return {
        "z": (points, n_sensors + 1, realizations),
        "stack": (points, 1 + width + 2 * (_RESIDUALS in families), realizations),
        "errors": (points, rows, realizations),
        "weights": (points, rows, width),
    }


class _McWorkspace:
    """What one Monte Carlo task writes every block of points and every ratio into, as _workspace_shapes sizes it.

    Each part is a view of one allocation, rows. z holds each point's
    normals, drawn once for every ratio, as (points, n + 1, R) rows. stack
    holds each point's R-length rows as one (points, rows, R) stack: its
    truth row, its n measurement rows, then n deviations from the sensors'
    median powers when sm0 runs, then lse_fit's n residual rows, a_hat and
    slope rows when a method refits; the slope rows then hold the fitted
    median. first maps each family of the operand (_operand) to its first
    row in a point's stack. errors holds max(M, 2) rows per point, one per
    method in the order of methods, and weights the block's weight rows
    against the operand, zero where a method does not apply. Every row is
    written before it is read at each ratio, so nothing carries from one
    block or ratio to the next. bitgen is the Philox generator that every
    draw keys afresh.
    """

    def __init__(self, n_sensors: int, methods: Sequence[str], realizations: int, points: int):
        shapes = _workspace_shapes(n_sensors, methods, realizations, points).values()
        sizes = [math.prod(shape) for shape in shapes]
        self.rows = np.empty(sum(sizes))
        parts = np.split(self.rows, np.cumsum(sizes[:-1]))
        self.z, self.stack, self.errors, self.weights = (part.reshape(shape) for part, shape in zip(parts, shapes))
        self.first = {family: 1 + f * n_sensors for f, family in enumerate(_operand(methods))}
        self.bitgen = np.random.Philox(0)  # keyed afresh by every draw


def _mc_block_rmse(
    setup: SweepSetup,
    block: range,
    indices: Sequence[int],
    realizations: int,
    master_seed: int,
    ws: _McWorkspace,
    out: np.ndarray,
) -> None:
    """Write the RMS prediction error of each method at a block of points under each scenario into out.

    setup is the sweep's set-up, whose weights the methods apply and whose
    joint factors (setup.joint) correlate its K scenarios' draws, block
    holds the points' indices into the set-up, indices[i] keys point i's
    stream, ws is the calling task's workspace, with room for the block,
    and out the (K, M, N) RMSEs, M methods in the order of setup.methods:
    the block writes out[:, :, block]. Each point's results have the bits
    of a block of one.
    """
    n, points, m = len(setup.pm), len(block), len(setup.methods)
    for p, i in enumerate(block):
        standard_normal_block(master_seed, indices[i], n + 1, realizations, out=ws.z[p], bitgen=ws.bitgen)
    at = slice(block.start, block.stop)
    medians = np.empty((points, n + 1, 1))  # each point's and the sensors' median powers
    medians[:, 0, 0], medians[:, 1:, 0] = setup.pm0[at], setup.pm
    joint = ws.stack[:points, : n + 1]  # each point's truth row, then its measurement rows
    errors = ws.errors[:points, :m]  # a lone method's second row is left out
    with _unbuffered(realizations):
        for k in range(len(setup.joint)):
            correlate_normals(setup.joint[k, at], ws.z[:points].swapaxes(1, 2), out=joint)
            joint += medians
            _block_errors(setup, k, block, ws)
            # the squares overwrite the errors, so a block with a row whose mean square lies outside
            # _PLAIN_MEAN_SQUARES computes its errors again for the scaled formula
            rms, plain = _root_mean_squares(np.square(errors, out=errors))
            if not plain.all():
                _block_errors(setup, k, block, ws)
                rms = _scaled_rms_rows(errors, out=errors)
            out[k, :, at] = rms.T


def _block_errors(setup: SweepSetup, k: int, block: range, ws: _McWorkspace) -> None:
    """Write each point's truth row less each method's prediction under scenario k into ws.errors: one product.

    ws.stack holds each point's truth row, then its measurement rows. The
    deviations and the refit run once over the block, into the rows after
    them; then one product of the block's weights against its measurement,
    deviation and residual rows predicts every method, with the biases
    added after: sm0's median power, the fitted methods' fitted median.
    """
    n, points, at, first = len(setup.pm), len(block), slice(block.start, block.stop), ws.first
    stack, weights = ws.stack[:points], ws.weights[:points]
    meas = stack[:, 1 : n + 1]  # (P, n, R): the powers
    if (d := first.get(_DEVIATIONS)) is not None:
        np.subtract(meas, setup.pm[:, None], out=stack[:, d : d + n])
    if (r := first.get(_RESIDUALS)) is not None:
        fit = lse_fit(setup.design, meas.swapaxes(1, 2), out=stack[:, r : r + n + 2])
        # fitted median a_hat + 10 gamma_hat x0, x0 the points' log10 emitter distances, in the slope rows
        median = stack[:, r + n + 1]
        median *= 10.0
        median *= setup.x0[at, None]
        median += fit.a_hat
    weights.fill(0.0)
    for j, method in enumerate(setup.methods):
        w, c = setup.weights[method], first[_estimator(method)[1]] - 1
        weights[:, j, c : c + n] = w[k, at] if w.ndim == 3 else w[at]
    # numpy sends a one-row product to gemv, whose bits differ from a gemm row's, while the rows of gemm products
    # agree bit for bit whatever the other rows: a lone method's row runs twice, so each method's bits do not
    # depend on which methods run
    weights[:, len(setup.methods) :] = weights[:, :1]
    predictions = np.matmul(weights, stack[:, 1 : 1 + weights.shape[-1]], out=ws.errors[:points])
    for j, method in enumerate(setup.methods):
        applied_to = _estimator(method)[1]
        if applied_to == _DEVIATIONS:
            predictions[:, j] += setup.pm0[at, None]
        elif applied_to == _RESIDUALS:
            predictions[:, j] += median
    errors = predictions[:, : len(setup.methods)]
    np.subtract(stack[:, :1], errors, out=errors)  # the truth rows less the predictions


def _mc_rmse(
    setup: SweepSetup,
    indices: Sequence[int],
    realizations: int,
    master_seed: int,
    threads: int = 1,
) -> np.ndarray:
    """(K, M, N) Monte Carlo RMSEs of each method at every point of the set-up under its K ratios, one task per chunk of points.

    setup is the sweep's set-up, with its joint factors (joint=True).
    indices[i] keys point i's stream. Before any draw, ValueError names a
    stream key outside the unsigned 64-bit range, then realizations that
    are not an integer of at least 1; then setup.error is raised; then
    ValueError names a sigma (each joint factor's [0, 0] entry) lost in
    the round-off of the median powers. _run_forked runs one task here
    and the rest in forked workers; more than one task runs on a thread
    pool instead when os.fork is missing or the caller runs another thread.
    Either runner's tasks write their chunks into one anonymous shared
    mapping.
    """
    for index in (min(indices), max(indices)):
        _check_stream_keys(master_seed=master_seed, point_index=index)
    if not _accepts(0, realizations) or realizations < 1:
        raise ValueError(f"realizations must be an integer of at least 1, got {realizations!r}")
    if setup.error is not None:
        raise setup.error
    if lost := _lost_sigma(setup, float(setup.joint[..., 0, 0].min())):
        raise ValueError(f"sigma is too small for Monte Carlo: {lost}")
    n_points = len(setup.xy)
    shape = (len(setup.joint), len(setup.methods), n_points)
    tasks = min(threads, n_points)
    chunks = [range(n_points * t // tasks, n_points * (t + 1) // tasks) for t in range(tasks)]
    per_block = max(1, _BLOCK_DOUBLES // realizations)
    rmse = np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape), flags=mmap.MAP_SHARED)).reshape(shape)

    def eval_chunk(chunk: range) -> None:
        ws = _McWorkspace(len(setup.pm), setup.methods, realizations, min(per_block, len(chunk)))
        with np.errstate(all="ignore"):  # pool threads do not inherit the caller's state
            for start in range(0, len(chunk), per_block):
                block = chunk[start : start + per_block]
                _mc_block_rmse(setup, block, indices, realizations, master_seed, ws, rmse)

    if tasks == 1 or (hasattr(os, "fork") and threading.active_count() == 1):  # one chunk forks nothing
        _run_forked(eval_chunk, chunks)
    else:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            list(pool.map(eval_chunk, chunks))
    return rmse


# Exit status of a forked worker whose chunk ran out of memory; any other
# exception exits 1.
_WORKER_OUT_OF_MEMORY = 3


def _run_forked(eval_chunk: Callable[[range], None], chunks: list[range]) -> None:
    """Run eval_chunk on the first chunk in this process and on each other in a forked worker; reap every worker.

    One chunk forks nothing. The workers inherit what eval_chunk reads
    copy-on-write, so nothing is pickled, and leave through os._exit, never
    returning into the caller's frames: what they write must live in shared
    memory. A chunk whose fork fails (EAGAIN or ENOMEM) runs in this
    process, with the same bits. A worker's MemoryError is raised here as
    MemoryError; any other failure, or a signal such as the OOM killer's
    SIGKILL, as WorkerError naming the worker's points. When anything raises
    here, a KeyboardInterrupt too, every worker still running is killed and
    reaped first: none outlives the call.
    """
    workers: dict[int, range] = {}  # pid -> chunk
    local = chunks[:1]
    try:
        for t in range(1, len(chunks)):
            try:
                pid = os.fork()
            except OSError:  # no process to be had: the rest run here
                local += chunks[t:]
                break
            if pid == 0:
                _worker(eval_chunk, chunks[t])
            workers[pid] = chunks[t]
        for chunk in local:
            eval_chunk(chunk)
        for pid in list(workers):
            status = os.waitpid(pid, 0)[1]
            chunk = workers.pop(pid)
            code = os.waitstatus_to_exitcode(status)
            points = f"points {chunk.start} to {chunk.stop - 1} of {chunks[-1].stop}"
            if code == _WORKER_OUT_OF_MEMORY:
                raise MemoryError(f"the Monte Carlo worker for {points} ran out of memory")
            if code < 0:
                signame = signal.strsignal(-code)
                raise WorkerError(f"the Monte Carlo worker for {points} was killed by signal {-code} ({signame})")
            if code:
                raise WorkerError(f"the Monte Carlo worker for {points} exited with status {code}")
    finally:
        for pid in workers:
            os.kill(pid, signal.SIGKILL)
        for pid in workers:
            os.waitpid(pid, 0)


def _worker(eval_chunk: Callable[[range], None], chunk: range) -> NoReturn:
    """A forked worker's whole life: run its chunk, then leave through os._exit with its status."""
    status = 1
    try:
        eval_chunk(chunk)
        status = 0
    except MemoryError:
        status = _WORKER_OUT_OF_MEMORY
    finally:
        os._exit(status)


def point_rmse_mc(
    scn: Scenario,
    p0: Point,
    method: str,
    realizations: int,
    master_seed: int,
    point_index: int = 0,
    nu: float = 1.0,
) -> float:
    """RMS prediction error at one point over simulated shadow realizations.

    master_seed and point_index key the point's stream and must each fit in
    an unsigned 64-bit integer, and realizations must be an integer of at
    least 1: ValueError names the first that does not, before any draw.
    A covariance that is not positive definite raises its
    NotPositiveDefiniteError next, before any draw as well.
    """
    setup = sweep_setup(scn, coordinates([p0]), (method,), [scn.correlation], nu, joint=True)
    return float(_mc_rmse(setup, [point_index], realizations, master_seed)[0, 0, 0])


# ---------------------------------------------------------------------------
# grid evaluation


def _out_of_range(config: ExperimentConfig, ratio: float, cause) -> ConfigError:
    return ConfigError(f"{config.kernel} kernel at spacing ratio {ratio} is outside the numeric range: {cause}")


def _spatial_rows(rmse: np.ndarray) -> np.ndarray:
    """(K, M) spatial averages of a (K, M, N) block of per-point RMSEs, in one row-wise pass."""
    return _rms_rows(rmse.reshape(-1, rmse.shape[-1])).reshape(rmse.shape[:-1])


def _finite_aggregates(config: ExperimentConfig, k: int, spatial: dict[str, np.ndarray]) -> None:
    """Raise ConfigError naming the first method whose spatial RMSE at ratio k is not finite in some engine."""
    for j, m in enumerate(config.methods):
        # a finite spatial RMSE implies finite per-point values
        if not all(math.isfinite(s[k, j]) for s in spatial.values()):
            raise _out_of_range(config, config.ratios[k], f"{m} RMSE is not finite")


def _grid_evals(
    config: ExperimentConfig, threads: int = 1
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, np.ndarray], np.ndarray | None]:
    """Every method's RMSEs at every point and every ratio of the config, from each engine the mode runs.

    Returns the grid's (N, 2) coordinate array, each engine's (K, M, N)
    per-point RMSEs and (K, M) spatial aggregates, keyed "analytic" and
    "mc", and in mc and both modes the (K, M) standard errors of the Monte
    Carlo aggregates (None in analytic mode).

    One set-up decides, before either engine runs, whether the run can
    finish; a run that cannot raises one error and has solved, drawn and
    evaluated nothing. The precedence is the same in every mode; the first
    of these that applies is raised:
    1. a sigma^2 below the least normal double when an unbiased method runs
       (its error is all shadow, and a subnormal sigma^2 has lost digits),
       named as sigma^2 underflowing;
    2. a factor failure at the first ratio;
    3. median powers past _lost_medians' limits;
    4. in mc and both modes, a sigma_db below _SIGMA_FRACTION of their
       largest magnitude;
    5. a factor failure at a later ratio.
    A factor fails where a ratio's sensor covariance Cn is not positive
    definite, when a method takes the solve, or, in mc and both modes, where
    its joint covariance at some point is not: the lowest such ratio is
    named, and at one ratio Cn's error wins over the lowest failing
    point's. A failure at pivot 0, which is sigma^2 itself, is named as
    sigma^2 underflowing.

    The ratio-free parts of the error forms, the geometry-only weights above
    all, are gathered once from one scenario, and every ratio's Cn, C0 and
    solve weights are built once, as stacks, in the same set-up call
    (analysis.sweep_setup), for both engines. Both engines then run every
    ratio: the analytic engine on the calling thread as one stack, the
    Monte Carlo stage with one worker per chunk of points (_mc_rmse), each
    point's normals drawn once. Each engine's aggregates come from one row-wise pass.
    """
    if not (_accepts(0, threads) and 1 <= threads <= MAX_THREADS):
        raise ConfigError(f"threads must be an integer between 1 and {MAX_THREADS}, got {threads!r}")
    ratios, methods = config.ratios, config.methods
    mc = config.mode in ("mc", "both")
    grid = config.grid()
    try:
        with np.errstate(all="ignore"):  # the finiteness checks name what an inf or NaN means
            if (grid.xy == (config.emitter.x, config.emitter.y)).all(axis=1).any():
                raise DegenerateGeometryError(f"coincides with a query point of the resolution-{config.resolution} grid")
            models = [config.correlation_for_ratio(ratio) for ratio in ratios]
            setup = sweep_setup(config.scenario(ratios[0]), grid.xy, methods, models, config.nu, joint=mc)
    except DegenerateGeometryError as err:
        raise DegenerateGeometryError(f"emitter at ({config.emitter.x:g}, {config.emitter.y:g}): {err}") from err
    except (OutsideHullError, ArithmeticError) as err:
        # grid points lie strictly inside the sensor hull, so these come only from doubles out of
        # range, at every ratio alike: a sigma^2 that overflows, say
        raise _out_of_range(config, ratios[0], err) from err
    error = setup.error
    underflow = f"sigma^2 underflows a double at sigma = {config.sigma_db!r} dB"
    failure = None
    if error is not None:  # pivot 0 is sigma^2 itself: a failure there is its underflow to 0
        failure = _out_of_range(config, ratios[setup.failed], underflow if error.pivot_index == 0 else error)
        failure.__cause__ = error
    if config.sigma_db**2 < np.finfo(float).tiny and not _UNBIASED.isdisjoint(methods):
        raise _out_of_range(config, ratios[0], underflow)
    if setup.failed == 0:
        raise failure
    if lost := _lost_medians(setup, config):
        raise _out_of_range(config, ratios[0], lost)
    if mc and (lost := _lost_sigma(setup, config.sigma_db)):
        raise ConfigError(f"field 'sigma_db' is too small for Monte Carlo: {lost}")
    if failure is not None:
        raise failure
    engines: dict[str, np.ndarray] = {}  # each engine's (K, M, N) RMSEs
    with np.errstate(all="ignore"):
        if config.mode in ("analytic", "both"):
            engines["analytic"] = grid_analytic_rmse(setup)
        if mc:
            indices = range(len(grid.xy))
            engines["mc"] = _mc_rmse(setup, indices, config.realizations, config.master_seed, threads)
        spatial = {engine: _spatial_rows(rmse) for engine, rmse in engines.items()}
        stderr = _spatial_stderr(engines["mc"], config.realizations, spatial["mc"]) if mc else None
    return grid.xy, engines, spatial, stderr


def _point_stderr(rmse: np.ndarray, realizations: int) -> np.ndarray:
    """Standard error of a per-point Monte Carlo RMSE estimate: an RMS from R Gaussian errors has about rmse / sqrt(2R).

    That holds for errors with zero mean (sm0, sm1, sm2) and overstates the
    biased methods', about sqrt(s^4 + 2 b^2 s^2) / (rmse sqrt(2R)) for bias b
    and spread s: 12.9x for nn at (100, 200) at ratio 0.05 (README gives more).
    """
    return rmse / math.sqrt(2.0 * realizations)


def grid_rmse(config: ExperimentConfig, ratio: float, method: str, threads: int = 1) -> RmseSurface:
    """Per-point RMSE surface for one method at one spacing ratio: the sweep of a config with them alone."""
    config = replace(config, ratios=(ratio,), methods=(method,))
    config.validate()
    xy, engines, spatial, stderr = _grid_evals(config, threads)
    _finite_aggregates(config, 0, spatial)
    a_vals, mc_vals = (engines[engine][0, 0] if engine in engines else None for engine in ("analytic", "mc"))
    primary = "mc" if mc_vals is not None else "analytic"
    flags = None
    if a_vals is not None and mc_vals is not None:
        with np.errstate(all="ignore"):
            flags = np.abs(mc_vals - a_vals) <= 3.0 * _point_stderr(a_vals, config.realizations)
    return RmseSurface(
        method=method,
        mode=config.mode,
        ratio=ratio,
        resolution=config.resolution,
        xy=xy,
        rmse=engines[primary][0, 0],
        spatial_rmse=float(spatial[primary][0, 0]),
        rmse_analytic=a_vals,
        rmse_mc=mc_vals,
        mc_within_3se=flags,
        mc_stderr=None if stderr is None else float(stderr[0, 0]),
    )


def _spatial_stderr(per_point_rmse: np.ndarray, realizations: int, spatial: np.ndarray) -> np.ndarray:
    """Standard error of each spatial aggregate from independent per-point MC estimates.

    Each row along the last axis of per_point_rmse holds the per-point
    RMSEs behind one aggregate of spatial; a zero aggregate has zero error.
    Each point's estimate has _point_stderr's error, rmse / sqrt(2R), so its
    mean square has variance 2 rmse^4 / R, too large for biased methods.
    The fourth powers are taken relative to a power of two just above each
    row's largest value, so they cannot overflow, and the scaling is exact.
    """
    r = np.asarray(per_point_rmse, dtype=float)
    top = _power_of_two_above(np.abs(r), axis=-1)
    var_sq = (2.0 / realizations) * np.mean((r / top[..., None]) ** 4, axis=-1) / r.shape[-1]
    return np.where(spatial <= 0.0, 0.0, np.sqrt(var_sq) * top / spatial * (0.5 * top))  # 2 * spatial may overflow


def sweep(config: ExperimentConfig, threads: int = 1) -> list[SweepRow]:
    """One row per (ratio, method): the spatial RMSE aggregate for the whole grid."""
    config.validate()
    _, _, spatial, stderr = _grid_evals(config, threads)
    primary = spatial["mc" if "mc" in spatial else "analytic"]
    rows: list[SweepRow] = []
    for k, ratio in enumerate(config.ratios):
        _finite_aggregates(config, k, spatial)
        for j, method in enumerate(config.methods):
            se = None if stderr is None else float(stderr[k, j])
            if se is not None and not math.isfinite(se):
                raise _out_of_range(config, ratio, f"{method} standard error is not finite")
            rows.append(
                SweepRow(ratio=ratio, method=method, spatial_rmse=float(primary[k, j]), mode=config.mode, mc_stderr=se)
            )
    return rows


def rmse_distribution(surface: RmseSurface, bins: int) -> RmseDistribution:
    """Histogram density and empirical CDF of the per-point RMSE values."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    values = np.asarray(surface.rmse, dtype=float)
    lo = float(values.min())
    hi = float(values.max())
    if hi - lo <= 1e-9 * max(1.0, abs(hi)):
        # a constant surface: pad it, relative to its size when large, so the bin edges stay distinct
        pad = max(0.5, 1e-9 * abs(hi))
        lo -= pad
        hi += pad
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    widths = np.diff(edges)
    pdf = counts / (values.size * widths)
    cdf = np.cumsum(counts) / values.size
    centers = (edges[:-1] + edges[1:]) / 2.0
    return RmseDistribution(bin_centers=centers, pdf=pdf, cdf=cdf)
