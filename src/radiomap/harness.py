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
covariances and sensor factor, built as stacks once for both engines
(analysis.sweep_covariances). The closed form is one array evaluation of
every ratio at every grid point. The Monte Carlo route decides every way a
ratio can fail in its set-up, before any draw; its kernel then only
computes, point-major, in chunks and blocks of points (see its section
below), writing one (K, M, N) array. One driver, _mc_rmse, runs a grid's
points, point_rmse_mc's one point and the validation check's points. Each
engine's spatial aggregates come from one row-wise pass.

Monte Carlo determinism: realizations for grid point i come from the
substream keyed by (master_seed, i), so results are bitwise identical for
any worker count, any method grouping and any set of ratios.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .geometry import DegenerateGeometryError, Point, QueryGrid, Scenario, build_square_scenario, coordinates, make_grid
from .correlation import CorrelationModel, KERNEL_KINDS, EXPONENTIAL
from .field import _check_stream_keys, correlate_normals, joint_factors, standard_normal_block
from .estimators import SM0, SM1, SM2, ALL_METHODS, OutsideHullError, lse_fit, sm0_weight_rows
from .analysis import GridForms, SweepCovariances, grid_analytic_rmse, grid_forms, sweep_covariances
from .linalg import NotPositiveDefiniteError

__all__ = [
    "CORRELATION_KEYS",
    "DEFAULT_RATIOS",
    "EMITTER_PRESETS",
    "MAX_THREADS",
    "ConfigError",
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

# Most worker threads a Monte Carlo run takes. Each worker holds one
# workspace of (3n + 2 + M) R doubles per point of a block (n sensors, M
# methods), for blocks of max(1, 2^14 // R) points, plus (n + 5) R with a
# fitted method, and while it draws a point, the point's R x W Philox
# words, so the bound caps memory as well as OS threads.
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
    magnitude, so they cannot overflow, and the scaling is exact.
    """
    return float(_rms_rows(np.reshape(np.asarray(per_point, dtype=float), (1, -1)))[0])


def _rms_rows(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """spatial_average of each row of a 2-D array, in one pass over the block.

    A row-wise reduction gives each row the bits it has alone. The rows'
    magnitudes are scaled in out, if given, which may be rows itself: the
    squares of the magnitudes are those of the values. Multiplying by the
    reciprocal of a power of two is dividing by it, bit for bit. A row below
    2^-1023, whose reciprocal would overflow, is scaled by 2^1023 instead:
    its values, squares, mean and root are then those of division times one
    exact power of two, none subnormal, and the last product is the same.
    """
    scaled = np.abs(rows, out=out)
    top = np.maximum(_power_of_two_above(scaled, axis=1), 2.0**-1023)
    scaled *= (1.0 / top)[:, None]
    return np.sqrt(np.mean(np.square(scaled, out=scaled), axis=1)) * top


def _power_of_two_above(magnitudes: np.ndarray, axis: int | None = None) -> np.ndarray:
    """The power of two just above the largest of the magnitudes (along axis): dividing by it is exact.

    Above 2^1023 it is 2^1023, the largest power of two a double holds, and
    the scaled magnitudes lie below 2.
    """
    return np.ldexp(1.0, np.minimum(np.frexp(magnitudes.max(axis=axis))[1], 1023))


# Errors of a ratio's numerics that mean its kernel and spacing ratio are
# outside the range of doubles.
_RANGE_ERRORS = (NotPositiveDefiniteError, OutsideHullError, ArithmeticError)


# ---------------------------------------------------------------------------
# Monte Carlo evaluation
#
# The simulated route shares the estimators' weights but deliberately
# re-runs the estimation pipeline on each realized measurement vector, with
# its own refit (lse_fit) batched across realizations, instead of reusing
# the closed-form error coefficients, so that analytic and Monte Carlo
# results stay independent checks of one another. A point's normals depend
# on its stream alone, so one draw serves every ratio.
#
# Set-up (_mc_setup) runs before any draw and decides every failure. From
# each ratio's Cn and C0 in the sweep's covariances it factors the joint
# covariances of every point as one (N, n+1, n+1) stack and solves every
# point's sm0 weights against the ratio's sensor factor in one stacked
# call; the first ratio that fails stops the set-up, and its error is the
# one the sweep raises at that ratio. Past set-up nothing fails: the fit's
# constants were checked with the forms, and the kernel runs with numpy's
# errors off, its inf and NaN named later by the finiteness checks.
#
# The points run as min(threads, N) tasks over contiguous chunks, each in
# blocks of P = max(1, _BLOCK_DOUBLES // R) points, written with out= into
# one workspace of sensor-major R-length rows per task (_McWorkspace):
# fresh temporaries of a few hundred KB would fault in new pages each time.
# The row correlation, the median powers, the errors and the scaled RMS run
# once over a block's (P, rows, R) stack; each point's refit and
# predictions run along whole rows, one call each. A second thread buys
# little (sweep-mc in one process: 224 ms on one thread, 195 ms on two, on
# a 2-core Xeon VM): numpy drops the interpreter lock only inside a call,
# and at R = 10^4 calls last tens of microseconds, so two threads mostly
# trade the lock (~4,300 voluntary context switches a sweep, none on one).


@dataclass(frozen=True)
class _McSetup:
    """What every point of a Monte Carlo run shares, one entry per ratio set up before the first that fails.

    joint[k] holds the (N, n+1, n+1) joint factors of every point under
    ratio k, and sm0[k] their (N, n) sm0 and sm1 weights; sm0 is empty if
    neither method runs. error is the failing ratio's, None if none fails.
    """

    forms: GridForms
    joint: list[np.ndarray]
    sm0: list[np.ndarray]
    error: Exception | None


def _mc_setup(forms: GridForms, cov: SweepCovariances) -> _McSetup:
    """Factor each ratio's joint stack, and solve its sm0 weights if sm0 or sm1 runs, up to the first that fails.

    Both come from the ratio's Cn, C0 and sensor factor in cov. A ratio
    fails at its lowest failing point: a joint factor that is not positive
    definite at err.index, or the sensor factor (cov.error) at every point,
    the joint factor's error winning at point 0. Nothing after it is set
    up.
    """
    joint: list[np.ndarray] = []
    sm0: list[np.ndarray] = []
    with np.errstate(all="ignore"):
        for k, c_n in enumerate(cov.c_n):
            failures: list[tuple[int, Exception]] = []  # (lowest failing point, its error), the joint factor's first
            try:
                factors = joint_factors(cov.c_0[k], c_n)
            except NotPositiveDefiniteError as err:
                failures.append((err.index, err))
            if cov.factors is not None:
                if k < len(cov.factors):
                    sm0.append(sm0_weight_rows(cov.factors[k], cov.c_0[k]))
                else:
                    failures.append((0, cov.error))
            if failures:
                return _McSetup(forms, joint, sm0[: len(joint)], min(failures, key=lambda f: f[0])[1])
            joint.append(factors)
    return _McSetup(forms, joint, sm0, None)


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


class _McWorkspace:
    """The R-length rows that one Monte Carlo task writes every block of points and every ratio into.

    Each part is a (points, rows, R) view of one allocation, contiguous
    for any leading run of points. z holds each point's normals, drawn once
    for every ratio; joint its truth row, then one measurement row per
    sensor; dev sm0's deviations of the measurements from the sensors'
    median powers, and before them the scratch rows of the row correlation
    and the refit; errors one row per method. When a fitted method runs,
    fit holds lse_fit's rows and median the fitted median power, which one
    point uses at a time; they are None otherwise. Every row is written
    before it is read at each ratio, so nothing carries from one block or
    ratio to the next. bitgen is the Philox generator that every draw keys
    afresh.
    """

    def __init__(self, n_sensors: int, n_methods: int, realizations: int, points: int, fitted: bool):
        n = n_sensors
        sizes = [n + 1, n + 1, n, n_methods]
        self.rows = np.empty((points * sum(sizes) + (n + 5 if fitted else 0)) * realizations)
        *parts, shared = np.split(self.rows, np.cumsum([points * size for size in sizes]) * realizations)
        self.z, self.joint, self.dev, self.errors = (part.reshape(points, -1, realizations) for part in parts)
        self.fit = self.median = None
        if fitted:
            self.fit, self.median = shared[:-realizations].reshape(n + 4, -1), shared[-realizations:]
        self.bitgen = np.random.Philox(0)  # keyed afresh by every draw


def _mc_block_rmse(
    setup: _McSetup,
    block: range,
    indices: Sequence[int],
    realizations: int,
    master_seed: int,
    ws: _McWorkspace,
    out: np.ndarray,
) -> None:
    """Write the RMS prediction error of each method at a block of points under each scenario set up into out.

    block holds the points' indices into the setup's forms, indices[i] keys
    point i's stream, ws is the calling task's workspace, with room for the
    block, and out the (K', M, N) RMSEs, K' scenarios and M methods in the
    order of forms.methods: the block writes out[:, :, block]. Each point's
    results have the bits of a block of one.
    """
    forms = setup.forms
    n, points = len(forms.pm), len(block)
    for p, i in enumerate(block):
        standard_normal_block(master_seed, indices[i], n + 1, realizations, out=ws.z[p], bitgen=ws.bitgen)
    at = slice(block.start, block.stop)
    medians = np.empty((points, n + 1, 1))  # each point's and the sensors' median powers
    medians[:, 0, 0], medians[:, 1:, 0] = forms.pm0[at], forms.pm
    with _unbuffered(realizations):
        for j, joint in enumerate(setup.joint):
            sm0 = setup.sm0[j][at] if setup.sm0 else None
            out[j, :, at] = _mc_block_ratio(forms, joint[at], sm0, block, medians, ws).T


def _mc_block_ratio(
    forms: GridForms,
    joint: np.ndarray,
    sm0: np.ndarray | None,
    block: range,
    medians: np.ndarray,
    ws: _McWorkspace,
) -> np.ndarray:
    """(P, M) RMSEs of one scenario at a block of P points, from its joint factors and sm0 rows there and ws.z."""
    pm = forms.pm[:, None]  # (n, 1)
    rows, errors, dev = ws.joint[: len(block)], ws.errors[: len(block)], ws.dev[: len(block)]
    correlate_normals(joint, ws.z[: len(block)].swapaxes(1, 2), out=rows, scratch=dev)
    rows += medians
    for p, k in enumerate(block):  # each point's refit and predictions, one call each
        meas = rows[p, 1:]  # (n, R): the powers
        if forms.fit is not None:
            fit = lse_fit(forms.fit[0], meas.T, out=ws.fit, scratch=dev[p])
            # fitted median a_hat + 10 gamma_hat x0, x0 the point's log10 emitter distance
            median = np.multiply(fit.gamma_hat, 10.0, out=ws.median)
            median *= forms.fit[3][k]
            median += fit.a_hat
        for row, method in zip(errors[p], forms.methods):
            w = sm0[p] if method in (SM0, SM1) else forms.weights[method][k]
            if method == SM0:
                np.matmul(w, np.subtract(meas, pm, out=dev[p]), out=row)
                row += forms.pm0[k]
            elif method in (SM1, SM2):
                np.matmul(w, fit.residuals.T, out=row)
                row += median
            else:
                np.matmul(w, meas, out=row)
    np.subtract(rows[:, 0, None], errors, out=errors)  # the truth rows less the predictions
    flat = errors.reshape(-1, errors.shape[-1])
    return _rms_rows(flat, out=flat).reshape(len(block), -1)  # RMS over realizations, scaled against overflow


def _mc_rmse(
    forms: GridForms,
    cov: SweepCovariances,
    indices: Sequence[int],
    realizations: int,
    master_seed: int,
    threads: int = 1,
) -> tuple[np.ndarray, Exception | None]:
    """Monte Carlo RMSE of each method at every point of the forms under cov's K ratios, one task per chunk of points.

    indices[i] keys point i's stream. Set-up decides every failure before
    any draw (_mc_setup), and the points then run only the K' ratios before
    the first that fails. Returns their (K', M, N) RMSEs and that ratio's
    error, if any. ValueError names a stream key outside the unsigned
    64-bit range, or realizations that are not an integer of at least 1,
    before any set-up.
    """
    for index in (min(indices), max(indices)):
        _check_stream_keys(master_seed=master_seed, point_index=index)
    if not _accepts(0, realizations) or realizations < 1:
        raise ValueError(f"realizations must be an integer of at least 1, got {realizations!r}")
    setup = _mc_setup(forms, cov)
    n_points = len(forms.xy)
    rmse = np.empty((len(setup.joint), len(forms.methods), n_points))
    tasks = min(threads, n_points) if setup.joint else 0  # nothing to draw when the first ratio fails
    chunks = [range(n_points * t // tasks, n_points * (t + 1) // tasks) for t in range(tasks)]
    per_block = max(1, _BLOCK_DOUBLES // realizations)

    def eval_chunk(chunk: range) -> None:
        ws = _McWorkspace(
            len(forms.pm), len(forms.methods), realizations, min(per_block, len(chunk)), forms.fit is not None
        )
        with np.errstate(all="ignore"):  # pool threads do not inherit the caller's state
            for start in range(0, len(chunk), per_block):
                _mc_block_rmse(setup, chunk[start : start + per_block], indices, realizations, master_seed, ws, rmse)

    if tasks > 1:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            list(pool.map(eval_chunk, chunks))
    else:
        for chunk in chunks:
            eval_chunk(chunk)
    return rmse, setup.error


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
    """
    forms = grid_forms(scn, coordinates([p0]), (method,), nu)
    rmse, error = _mc_rmse(forms, sweep_covariances(forms, [scn.correlation]), [point_index], realizations, master_seed)
    if error is not None:
        raise error
    return float(rmse[0, 0, 0])


# ---------------------------------------------------------------------------
# grid evaluation


def _out_of_range(config: ExperimentConfig, ratio: float, cause) -> ConfigError:
    return ConfigError(f"{config.kernel} kernel at spacing ratio {ratio} is outside the numeric range: {cause}")


def _spatial_rows(rmse: np.ndarray) -> np.ndarray:
    """(K, M) spatial averages of a (K, M, N) block of per-point RMSEs, in one row-wise pass."""
    return _rms_rows(rmse.reshape(-1, rmse.shape[-1])).reshape(rmse.shape[:-1])


def _surfaces(
    config: ExperimentConfig,
    ratio: float,
    xy: np.ndarray,
    methods: tuple[str, ...],
    rmse: dict[str, np.ndarray],
    spatial: dict[str, np.ndarray],
    stderr: np.ndarray | None,
) -> dict[str, RmseSurface]:
    """Every method's surface at one ratio from each engine's (M, N) per-point RMSEs and (M,) aggregates."""
    a_vals, mc_vals = rmse.get("analytic"), rmse.get("mc")
    primary = "mc" if mc_vals is not None else "analytic"
    surfaces: dict[str, RmseSurface] = {}
    for j, m in enumerate(methods):
        # a finite spatial RMSE implies finite per-point values
        if not all(math.isfinite(s[j]) for s in spatial.values()):
            raise _out_of_range(config, ratio, f"{m} RMSE is not finite")
        flags = None
        if a_vals is not None and mc_vals is not None:
            # RMS estimate from R Gaussian errors has stderr ~ rmse / sqrt(2R)
            se = a_vals[j] / math.sqrt(2.0 * config.realizations)
            flags = np.abs(mc_vals[j] - a_vals[j]) <= 3.0 * se
        surfaces[m] = RmseSurface(
            method=m,
            mode=config.mode,
            ratio=ratio,
            resolution=config.resolution,
            xy=xy,
            rmse=rmse[primary][j],
            spatial_rmse=float(spatial[primary][j]),
            rmse_analytic=None if a_vals is None else a_vals[j],
            rmse_mc=None if mc_vals is None else mc_vals[j],
            mc_within_3se=flags,
            mc_stderr=None if stderr is None else float(stderr[j]),
        )
    return surfaces


@contextmanager
def _at_ratio(config: ExperimentConfig, ratio: float) -> Iterator[None]:
    """Run one ratio's numerics with numpy's warnings off and its failures named.

    Grid points lie strictly inside the sensor hull and the emitter on no
    sensor or grid point, so the second handler's errors come only from
    doubles running out of range. The finiteness checks name what an inf or
    NaN means, so numpy's warnings stay off stderr.
    """
    try:
        with np.errstate(all="ignore"):
            yield
    except DegenerateGeometryError as err:
        raise DegenerateGeometryError(f"emitter at ({config.emitter.x:g}, {config.emitter.y:g}): {err}") from err
    except _RANGE_ERRORS as err:
        raise _out_of_range(config, ratio, err) from err


def _grid_evals(
    config: ExperimentConfig,
    ratios: tuple[float, ...],
    methods: tuple[str, ...],
    threads: int = 1,
) -> Iterator[dict[str, RmseSurface]]:
    """Every method's RMSE surface, one ratio after the other.

    The ratio-free parts of the error forms, the geometry-only weights above
    all, are gathered once, at the first ratio, for both engines, and the
    emitter is checked against the grid once. Every ratio's Cn, C0 and
    sensor factor are built once, as stacks (analysis.sweep_covariances),
    for both engines. Both engines then run every ratio before the first is
    yielded: the analytic engine on the calling thread as one stack of all
    the ratios, the Monte Carlo stage with one worker task per chunk of
    points, each point's normals drawn once. Each
    engine's aggregates come from one row-wise pass. Errors surface in the
    order of a ratio-by-ratio run: a ratio's set-up, its analytic step,
    then its Monte Carlo step, each after the ratios before it are yielded.
    """
    if not (_accepts(0, threads) and 1 <= threads <= MAX_THREADS):
        raise ConfigError(f"threads must be an integer between 1 and {MAX_THREADS}, got {threads!r}")
    grid = config.grid()
    scns: list[Scenario] = []  # one per ratio set up so far
    forms = None
    try:
        for ratio in ratios:
            if not (ratio > 0 and config.side_m / ratio > 0):
                raise ConfigError(f"spacing ratio must be > 0 with side_m / ratio > 0, got {ratio}")
            with _at_ratio(config, ratio):
                if forms is None and (grid.xy == (config.emitter.x, config.emitter.y)).all(axis=1).any():
                    raise DegenerateGeometryError(
                        f"coincides with a query point of the resolution-{config.resolution} grid"
                    )
                scn = config.scenario(ratio)
                if forms is None:
                    forms = grid_forms(scn, grid.xy, methods, config.nu)
            scns.append(scn)
    except (ConfigError, DegenerateGeometryError) as err:
        setup_error = err  # raised below, once the ratios before it are yielded
    # each engine's (K', M, N) RMSEs and the error of the ratio that stopped it, analytic first
    engines: dict[str, tuple[np.ndarray, Exception | None]] = {}
    if scns:
        with _at_ratio(config, ratios[0]):  # a sigma^2 that overflows does so at every ratio
            cov = sweep_covariances(forms, [scn.correlation for scn in scns])
        if config.mode in ("analytic", "both"):
            with np.errstate(all="ignore"):
                rmse = grid_analytic_rmse(forms, cov)
            engines["analytic"] = np.stack([rmse[m] for m in methods], axis=1), cov.error
        if config.mode in ("mc", "both"):
            engines["mc"] = _mc_rmse(forms, cov, range(len(grid.xy)), config.realizations, config.master_seed, threads)
    with np.errstate(all="ignore"):
        spatial = {engine: _spatial_rows(rmse) for engine, (rmse, _) in engines.items()}
        stderr = _spatial_stderr(engines["mc"][0], config.realizations, spatial["mc"]) if "mc" in engines else None
    for k, ratio in enumerate(ratios[: len(scns)]):
        with _at_ratio(config, ratio):
            for rmse, error in engines.values():
                if k == len(rmse):
                    raise error
            surfaces = _surfaces(
                config,
                ratio,
                grid.xy,
                methods,
                {engine: rmse[k] for engine, (rmse, _) in engines.items()},
                {engine: s[k] for engine, s in spatial.items()},
                None if stderr is None else stderr[k],
            )
        yield surfaces
    if len(scns) < len(ratios):
        raise setup_error


def _grid_eval(
    config: ExperimentConfig,
    ratio: float,
    methods: tuple[str, ...],
    threads: int = 1,
) -> dict[str, RmseSurface]:
    return next(_grid_evals(config, (ratio,), methods, threads))


def grid_rmse(
    config: ExperimentConfig, ratio: float, method: str, threads: int = 1
) -> RmseSurface:
    """Per-point RMSE surface for one method at one spacing ratio."""
    config.validate()
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}; valid methods: {', '.join(ALL_METHODS)}")
    return _grid_eval(config, ratio, (method,), threads)[method]


def _spatial_stderr(per_point_rmse: np.ndarray, realizations: int, spatial: np.ndarray) -> np.ndarray:
    """Standard error of each spatial aggregate from independent per-point MC estimates.

    Each row along the last axis of per_point_rmse holds the per-point
    RMSEs behind one aggregate of spatial; a zero aggregate has zero error.
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
    rows: list[SweepRow] = []
    for ratio, surfaces in zip(config.ratios, _grid_evals(config, config.ratios, config.methods, threads)):
        for method in config.methods:
            surf = surfaces[method]
            if surf.mc_stderr is not None and not math.isfinite(surf.mc_stderr):
                raise _out_of_range(config, ratio, f"{method} standard error is not finite")
            rows.append(
                SweepRow(
                    ratio=ratio,
                    method=method,
                    spatial_rmse=surf.spatial_rmse,
                    mode=config.mode,
                    mc_stderr=surf.mc_stderr,
                )
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
