"""The six radio-map interpolators, each also exposable as an affine map.

The methods differ on two axes only, both held in _ESTIMATORS, the one
method table: whose weights a method applies (the conditional-mean solve
against the sensor covariance C_n, or a geometry-only family) and what it
applies them to (deviations from the true medians, residuals of a
log-distance refit, or the raw measurements). method_weights() and
geometry_weights() pick the weight family from it, _SOLVED, _REFIT and
_UNBIASED say which methods take the solve, the refit and no bias, and
predict(), _affine_rows() and the Monte Carlo kernel branch, each with its
own arithmetic, on the applied-to family. Its one lookup, _estimator(),
refuses unknown names.

Every estimator is affine in the measurements: _affine_rows() turns (N, n)
weight rows into intercepts and coefficient rows for the analysis module's
error engine, and as_affine() is their row at one point. sm0_weight_rows()
solves every point's weights under every model of a sweep in one stacked
call, which both engines read, and geometry_weights() computes a
geometry-only family for a whole point set as one (N, n) table in array
passes. The one-point entries (sm0_weights, sm2_weights, sibson_weights,
method_weights) take Points and are their rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DegenerateGeometryError, Point, Scenario, coordinates
from .correlation import CorrelationModel, covariance_matrix, cross_covariance_stack
from .field import emitter_log_distances, median_powers
from .linalg import cholesky, solve_cholesky

__all__ = [
    "SM0",
    "SM1",
    "SM2",
    "NN",
    "IDW",
    "NATURAL",
    "ALL_METHODS",
    "DegenerateGeometryError",
    "OutsideHullError",
    "FitResult",
    "Prediction",
    "AffinePowerMap",
    "LseDesign",
    "lse_design",
    "lse_fit",
    "sensor_factor",
    "sm0_weight_rows",
    "sm0_weights",
    "geometry_weights",
    "sm2_weights",
    "sibson_weights",
    "method_weights",
    "predict",
    "as_affine",
]

SM0, SM1, SM2, NN, IDW, NATURAL = "sm0", "sm1", "sm2", "nn", "idw", "nat"
ALL_METHODS = (SM0, SM1, SM2, NN, IDW, NATURAL)

# The one method table: each method's weight family (the solve against C_n,
# or a geometry-only family of geometry_weights) and what its weights are
# applied to (the measurements less the sensors' true median powers, the
# log-distance refit's residuals, or the measurements); and from it, which
# methods take the solve, which the refit, and which have no bias: the
# medians lie on the log-distance law, so their deviations and residuals are 0.
_SOLVE, _INVERSE_DISTANCE, _NEAREST, _SIBSON = "solve", "inverse distance", "nearest", "sibson"
_DEVIATIONS, _RESIDUALS, _MEASUREMENTS = "deviations", "residuals", "measurements"
_ESTIMATORS = {
    SM0: (_SOLVE, _DEVIATIONS),  # Simple Kriging, with the true constants
    SM1: (_SOLVE, _RESIDUALS),
    SM2: (_INVERSE_DISTANCE, _RESIDUALS),  # like sm1, with no correlation knowledge
    NN: (_NEAREST, _MEASUREMENTS),
    IDW: (_INVERSE_DISTANCE, _MEASUREMENTS),
    NATURAL: (_SIBSON, _MEASUREMENTS),  # natural-neighbor (Sibson) weights
}
_SOLVED = {m for m, (weights, _) in _ESTIMATORS.items() if weights == _SOLVE}  # which take the solve
_REFIT = {m for m, (_, applied_to) in _ESTIMATORS.items() if applied_to == _RESIDUALS}  # which take the refit
_UNBIASED = {m for m, (_, applied_to) in _ESTIMATORS.items() if applied_to != _MEASUREMENTS}  # which have no bias

# Queries closer to a sensor than this fraction of the sensor span snap to it.
_SNAP_RTOL = 1e-9
# Natural-neighbor queries must lie farther inside every edge of the sensor
# hull than this fraction of the sensor span.
_HULL_RTOL = 1e-12
# LSE denominator must exceed this fraction of its positive part.
_LSE_RTOL = 1e-9


def _estimator(method: str) -> tuple[str, str]:
    """A method's (weight family, applied-to family); the one check of a method name every entry reaches."""
    if method not in _ESTIMATORS:
        raise ValueError(f"unknown method {method!r}, expected one of {ALL_METHODS}")
    return _ESTIMATORS[method]


class OutsideHullError(ValueError):
    """Natural-neighbor query lies on or outside the sensors' convex hull."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares estimates of the power-law constants plus per-sensor residuals.

    For (..., R, n) measurement rows, a_hat and gamma_hat are (..., R)
    arrays and residuals is (..., R, n).
    """

    a_hat: float | np.ndarray
    gamma_hat: float | np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class Prediction:
    """Predicted power at the query point and the sensor weights actually applied.

    value is a float for one measurement vector and an (R,) array for (R, n) rows.
    """

    value: float | np.ndarray
    method: str
    weights: np.ndarray


@dataclass(frozen=True)
class AffinePowerMap:
    """Exact affine representation of an estimator: value = intercept + coeffs . measurements."""

    intercept: float
    coeffs: np.ndarray

    def evaluate(self, measurements: np.ndarray) -> float:
        return self.intercept + float(self.coeffs @ np.asarray(measurements, dtype=float))


# ---------------------------------------------------------------------------
# least-squares fit of the log-distance power law


def _log_distances(distances: np.ndarray) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("all emitter distances must be positive")
    return np.log10(d)


def _lse_denominator(x: np.ndarray) -> float:
    n = x.size
    denom = n * float(x @ x) - float(x.sum()) ** 2
    if denom <= _LSE_RTOL * n * float(x @ x):
        raise DegenerateGeometryError(
            "all sensors are effectively equidistant from the emitter; "
            "the log-distance regressor is constant"
        )
    return denom


@dataclass(frozen=True)
class LseDesign:
    """What a least-squares fit takes from the sensor distances alone.

    x holds the log10 distances, sx and sxx their sum and sum of squares,
    denom the checked denominator n * sxx - sx^2. matrix is the (n, 2)
    design [1, x] and operator the (2, n) solution of its normal equations,
    [[sxx, -sx], [-sx, n]] / denom @ matrix.T: [a_hat, 10 * gamma_hat] =
    operator @ powers.
    """

    x: np.ndarray
    sx: float
    sxx: float
    denom: float
    matrix: np.ndarray
    operator: np.ndarray


def lse_design(distances: np.ndarray) -> LseDesign:
    """The distance-only constants of lse_fit, computed and checked once for every fit on these distances.

    Raises ValueError unless there are more than 2 distances, all positive,
    and DegenerateGeometryError if the log distances are effectively
    constant.
    """
    x = _log_distances(distances)
    n = x.size
    if n <= 2:
        raise ValueError(f"need more than 2 sensors, got {n}")
    sx, sxx, denom = float(x.sum()), float(x @ x), _lse_denominator(x)
    matrix = np.stack((np.ones(n), x), axis=1)
    operator = np.array([[sxx, -sx], [-sx, n]]) / denom @ matrix.T
    return LseDesign(x=x, sx=sx, sxx=sxx, denom=denom, matrix=matrix, operator=operator)


def lse_fit(distances: np.ndarray | LseDesign, powers: np.ndarray, out: np.ndarray | None = None) -> FitResult:
    """Fit powers = a_hat + 10 * gamma_hat * log10(d) by least squares.

    distances are the sensors' emitter distances, or their lse_design(),
    whose constants then serve every call. powers is one measurement vector
    or (R, n) rows, each fitted on its own, or a (..., R, n) stack of such
    rows, each (R, n) fitted with the bits of its own call. The fitted
    intercept absorbs any level common to all measurements, so the
    residuals always sum to zero. The fit is two matrix products over the
    sensor-major rows of powers.T (of each (R, n) in a stack), which are
    contiguous when powers is the transposed view of such rows: the
    design's operator gives a_hat and the slope, and its matrix the fitted
    powers, which the residuals subtract.

    out, if given, is the (..., n + 2, R) block of rows that the fit is
    written into, (n + 2,) for one vector, its rows strided or not:
    residuals.T is out[..., :n, :], a_hat and gamma_hat are out[..., n, :]
    and out[..., n + 1, :]. Otherwise it is allocated; residuals.T is
    contiguous rows either way.
    """
    design = distances if isinstance(distances, LseDesign) else lse_design(distances)
    n = design.x.size
    p = np.asarray(powers, dtype=float)
    if p.shape[-1:] != design.x.shape:
        raise ValueError(f"distances and powers disagree in length: {design.x.shape} vs {p.shape}")
    rows = np.atleast_2d(p).swapaxes(-1, -2)  # (..., n, R): one row per sensor, R = 1 for one vector
    shape = (*rows.shape[:-2], n + 2, rows.shape[-1])
    out = np.empty(shape) if out is None else out.reshape(shape)  # one vector's (n + 2,) out as a column
    residuals, fitted = out[..., :n, :], out[..., n:, :]  # fitted: a_hat, slope
    np.matmul(design.operator, rows, out=fitted)
    np.subtract(rows, np.matmul(design.matrix, fitted, out=residuals), out=residuals)
    a_hat, slope = fitted[..., 0, :], fitted[..., 1, :]  # row views
    slope /= 10.0  # gamma_hat
    if p.ndim == 1:
        return FitResult(a_hat=a_hat[0], gamma_hat=slope[0], residuals=residuals[:, 0])
    return FitResult(a_hat=a_hat, gamma_hat=slope, residuals=residuals.swapaxes(-1, -2))


def _emitter_rows(
    scn: Scenario, xy: np.ndarray, methods: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, LseDesign | None, np.ndarray]:
    """pm0, pm, design and x0 at the rows of an (N, 2) array, from one pass over their emitter distances.

    pm0 holds the points' median powers and pm the sensors'. x0 holds the
    points' log10 emitter distances. design is lse_design() of the sensors'
    emitter distances, whose x holds their log10, if methods has sm1 or
    sm2, else None.
    """
    x0 = emitter_log_distances(scn, xy)
    pm = median_powers(scn, emitter_log_distances(scn, coordinates(scn.sensors)))
    design = None if _REFIT.isdisjoint(methods) else lse_design(scn.sensor_distances())
    return median_powers(scn, x0), pm, design, x0


# ---------------------------------------------------------------------------
# correlation-derived weights and the ideal estimator


def sensor_factor(model: CorrelationModel, sensors: list[Point]) -> np.ndarray:
    """Cholesky factor of the sensor covariance C_n, the matrix sm0_weights solves against."""
    return cholesky(covariance_matrix(model, list(sensors)))


def sm0_weight_rows(factor: np.ndarray, c_0: np.ndarray) -> np.ndarray:
    """(..., N, n) conditional-mean weights: solve C_n w = c_0 at each row of c_0 (no explicit inverse).

    c_0 holds the (N, n) covariances between N points and the sensors and
    factor the Cholesky factor of their C_n, under one model, or a stack of
    both under several: (K, N, n) rows and (K, n, n) factors. All solves are
    one stacked solve_cholesky call: each factor is broadcast over its
    points, one right-hand side each, so every row has the bits of its
    point's solve alone.
    """
    factor = np.asarray(factor)
    lower = np.broadcast_to(factor[..., None, :, :], (*c_0.shape, factor.shape[-1]))
    return solve_cholesky(lower, c_0[..., None])[..., 0]


def sm0_weights(model: CorrelationModel, sensors: list[Point], p0: Point) -> np.ndarray:
    """Conditional-mean weights at one point: sm0_weight_rows() at p0."""
    c_0 = cross_covariance_stack([model], coordinates([p0]), coordinates(sensors))[0]
    return sm0_weight_rows(sensor_factor(model, sensors), c_0)[0]


# ---------------------------------------------------------------------------
# geometry-only weights, one (N, n) table per point set


def _distances(q: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """(N, n) distances from each of N query rows to each of n sensor rows."""
    return np.hypot(q[:, 0, None] - sites[:, 0], q[:, 1, None] - sites[:, 1])


def geometry_weights(method: str, sensors: np.ndarray, xy: np.ndarray, nu: float = 1.0) -> np.ndarray:
    """(N, n) sensor weights of a geometry-only method at the rows of xy, one row per point.

    sensors and xy are the (n, 2) sensor and (N, 2) query coordinates. The
    method table's weight family picks the weights: inverse distance
    w_i = d_i^-nu / sum_j d_j^-nu (sm2, idw), one-hot on the nearest sensor
    (nn; ties go to the lowest sensor index) or Sibson (nat). A query
    collocated with a sensor (within 1e-9 of the sensor span) gets that
    sensor's full weight, removing the 1/0 singularity. The weights are
    scale-free, so they are computed in units of the power of two above the
    sensor span, an exact rescale: no squared or cubed distance overflows or
    underflows, at any side length.
    """
    family = _estimator(method)[0]
    if family == _SOLVE:
        raise ValueError(f"method {method!r} has no geometry-only weights")
    span = _distances(sensors, sensors).max()
    unit = np.ldexp(1.0, min(int(np.frexp(span)[1]), 1023))  # 2^1024 would overflow
    sensors, q, span = sensors / unit, xy / unit, span / unit
    d = _distances(q, sensors)
    nearest = d.argmin(axis=1)
    w = np.zeros(d.shape)
    if family == _NEAREST:
        snapped = np.ones(len(xy), dtype=bool)
    else:
        snapped = d.min(axis=1) <= _SNAP_RTOL * span
        free = ~snapped
        if family == _SIBSON:
            w[free] = _sibson_rows(sensors, q[free], _HULL_RTOL * span, unit)
        else:
            inv = d[free] ** -float(nu)
            w[free] = inv / inv.sum(axis=1, keepdims=True)
    w[snapped, nearest[snapped]] = 1.0
    return w


def sm2_weights(sensors: list[Point], p0: Point, nu: float = 1.0) -> np.ndarray:
    """Normalized inverse-distance weights at one point: geometry_weights("sm2", ...) for p0."""
    return geometry_weights(SM2, coordinates(sensors), coordinates([p0]), nu)[0]


# ---------------------------------------------------------------------------
# natural-neighbor (Sibson) weights by exact polygon clipping
#
# A sensor's Voronoi cell within the padded box does not depend on the
# query, so the n cells are clipped once per table. The region query q
# steals from sensor i is i's cell cut by the q-i bisector: one half-plane
# per query, so every query's cut of a cell is one array pass over the
# cell's vertices.


def _bisectors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half-planes nx*x + ny*y <= c of points at least as close to a as to b, for (N, 2) rows."""
    nx = 2.0 * (b[:, 0] - a[:, 0])
    ny = 2.0 * (b[:, 1] - a[:, 1])
    c = b[:, 0] ** 2 + b[:, 1] ** 2 - a[:, 0] ** 2 - a[:, 1] ** 2
    return nx, ny, c


def _successors(a: np.ndarray, axis: int) -> np.ndarray:
    """Each vertex's successor along axis 0 or -1, the last wrapping to the first.

    The values np.roll(a, -1, axis) copies, by slicing: np.roll's general
    path costs tens of microseconds a call on arrays this small.
    """
    if axis == 0:
        return np.concatenate((a[1:], a[:1]))
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _clip(
    poly: np.ndarray, nx: np.ndarray, ny: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Intersect a convex (k, 2) polygon with each of N half-planes nx*x + ny*y <= c.

    Returns the (N, 2k) slot x, slot y and kept mask: slot 2i is vertex i,
    kept if inside, and slot 2i+1 the point where edge i (vertex i to i+1)
    crosses the boundary, kept if it does. Row r's kept slots, in order, are
    the vertices of its clipped polygon.
    """
    edge = _successors(poly, axis=0) - poly
    dp = nx[:, None] * poly[:, 0] + ny[:, None] * poly[:, 1] - c[:, None]
    dq = _successors(dp, axis=-1)
    crosses = (dp < 0.0) != (dq < 0.0)  # so dp != dq
    t = np.where(crosses, dp, 0.0) / np.where(crosses, dp - dq, 1.0)
    x, y = np.empty((2, len(dp), 2 * len(poly)))
    x[:, 0::2], y[:, 0::2] = poly[:, 0], poly[:, 1]
    x[:, 1::2], y[:, 1::2] = poly[:, 0] + t * edge[:, 0], poly[:, 1] + t * edge[:, 1]
    kept = np.empty(x.shape, dtype=bool)
    kept[:, 0::2], kept[:, 1::2] = dp <= 0.0, crosses
    return x, y, kept


def _areas(x: np.ndarray, y: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Shoelace area of each row's kept (x, y) slots, taken in order as a closed polygon.

    A dropped slot takes the value of the last kept slot before it,
    cyclically; that adds only zero-length edges, which add exactly zero.
    """
    n, k = kept.shape
    last = np.maximum.accumulate(np.where(kept, np.arange(k), -1), axis=1)
    last = np.where(last < 0, last[:, -1:], last)  # a row with no kept slot repeats one point
    flat = (last + k * np.arange(n)[:, None]).ravel()
    x, y = x.ravel()[flat].reshape(n, k), y.ravel()[flat].reshape(n, k)
    return np.abs((x * _successors(y, axis=-1) - _successors(x, axis=-1) * y).sum(axis=1)) / 2.0


def _voronoi_cells(sites: np.ndarray) -> list[np.ndarray]:
    """Each sensor's Voronoi cell within the sensors' bounding box padded to ~10x its extent.

    Stolen regions of strictly interior queries are bounded and never reach
    the padding.
    """
    lo, hi = sites.min(axis=0), sites.max(axis=0)
    pad = 4.5 * (hi - lo).max()
    (x_lo, y_lo), (x_hi, y_hi) = lo - pad, hi + pad
    box = np.array([(x_lo, y_lo), (x_hi, y_lo), (x_hi, y_hi), (x_lo, y_hi)])
    cells = []
    for i, a in enumerate(sites):
        cell = box
        for k, b in enumerate(sites):
            if k != i:
                x, y, kept = _clip(cell, *_bisectors(a[None], b[None]))
                cell = np.column_stack((x[kept], y[kept]))
        cells.append(cell)
    return cells


def _turn(o: list[float], a: list[float], b: list[float]) -> float:
    """Cross product of a - o and b - o: positive when o, a, b turn counter-clockwise."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(sites: np.ndarray) -> np.ndarray:
    """Convex hull vertices, counter-clockwise, by Andrew's monotone chain (collinear points dropped)."""

    def chain(pts: list[list[float]]) -> list[list[float]]:
        out: list[list[float]] = []
        for p in pts:
            while len(out) >= 2 and _turn(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out[:-1]

    pts = sorted(sites.tolist())
    return np.array(chain(pts) + chain(pts[::-1]))


def _strictly_inside(sites: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
    """(N,) whether each query lies farther than tol inside every edge of the sensors' hull.

    Collinear sensors have a two-vertex hull whose edges face each other, so
    no query is inside; a NaN distance is never inside.
    """
    a = _hull(sites)
    edge = _successors(a, axis=0) - a
    rel = q[:, None, :] - a
    cross = edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0]
    return np.all(cross > tol * np.hypot(edge[:, 0], edge[:, 1]), axis=1)


def _sibson_rows(sites: np.ndarray, q: np.ndarray, tol: float, unit: float) -> np.ndarray:
    """Sibson weights at (N, 2) queries in units of unit metres, none on a sensor; tol is the hull margin."""
    inside = _strictly_inside(sites, q, tol)
    stolen = np.zeros((len(q), len(sites)))
    for i, cell in enumerate(_voronoi_cells(sites)):
        stolen[:, i] = _areas(*_clip(cell, *_bisectors(q, np.broadcast_to(sites[i], q.shape))))
    total = stolen.sum(axis=1)
    bad = ~inside | (total <= 0.0)
    if bad.any():
        r = int(bad.argmax())
        why = "is not strictly inside the sensor hull" if not inside[r] else "steals no Voronoi area"
        raise OutsideHullError(f"query ({float(q[r, 0] * unit)}, {float(q[r, 1] * unit)}) {why}")
    return stolen / total[:, None]


def sibson_weights(sensors: list[Point], p0: Point) -> np.ndarray:
    """Natural-neighbor weights at one point: geometry_weights("nat", ...) for p0.

    Weight i is the share of Voronoi area the query steals from sensor i:
    the part of i's cell that lies closer to the query than to i. Cells are
    built by half-plane intersection of a padded bounding box.
    """
    return geometry_weights(NATURAL, coordinates(sensors), coordinates([p0]))[0]


# ---------------------------------------------------------------------------
# the method table's one-point users


def method_weights(method: str, scn: Scenario, p0: Point, nu: float = 1.0) -> np.ndarray:
    """Sensor weights a method applies at p0, by the method table's weight family; behind predict() and as_affine()."""
    if _estimator(method)[0] == _SOLVE:
        return sm0_weights(scn.correlation, list(scn.sensors), p0)
    return geometry_weights(method, coordinates(scn.sensors), coordinates([p0]), nu)[0]


def predict(
    method: str, scn: Scenario, p0: Point, measurements: np.ndarray, nu: float = 1.0
) -> Prediction:
    """Run one estimator by its method tag on one measurement vector or (R, n) rows.

    sm1 and sm2 read only geometry from the scenario (and sm1 the
    correlation model); the true propagation constants enter sm0 alone.
    """
    w = method_weights(method, scn, p0, nu)
    applied_to = _estimator(method)[1]
    meas = np.asarray(measurements, dtype=float)
    if applied_to == _MEASUREMENTS:
        return Prediction(value=meas @ w, method=method, weights=w)
    pm0, pm, design, x0 = _emitter_rows(scn, coordinates([p0]), (method,))
    if applied_to == _DEVIATIONS:
        value = pm0[0] + (meas - pm) @ w
    else:  # the refit residuals
        fit = lse_fit(design, meas)
        value = fit.a_hat + 10.0 * fit.gamma_hat * x0[0] + fit.residuals @ w
    return Prediction(value=value, method=method, weights=w)


def _affine_rows(
    method: str, w: np.ndarray, pm0: np.ndarray, pm: np.ndarray, design: LseDesign | None, x0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(..., N) intercepts and (..., N, n) coefficient rows of a method's affine maps, from its weight rows w.

    w is (..., N, n), its leading axes over a stack of correlation models.
    pm0, pm, design and x0 are _emitter_rows() of the points. The refit's
    residuals are linear because the least-squares estimates are linear in
    the observations, a_hat = c_a . P and 10 * gamma_hat = c_slope . P for
    measurements P; the deviations add the median-power intercept.
    """
    applied_to = _estimator(method)[1]
    if applied_to == _DEVIATIONS:
        return pm0 - w @ pm, w
    if applied_to == _RESIDUALS:
        # residual rows r_i = e_i - c_a - x_i * c_slope, applied through w
        c_a = (design.sxx - design.sx * design.x) / design.denom
        c_slope = (design.x.size * design.x - design.sx) / design.denom
        coeffs = c_a + x0[:, None] * c_slope + w - w.sum(axis=-1)[..., None] * c_a - (w @ design.x)[..., None] * c_slope
        return np.zeros(w.shape[:-1]), coeffs
    return np.zeros(w.shape[:-1]), w


def as_affine(method: str, scn: Scenario, p0: Point, nu: float = 1.0) -> AffinePowerMap:
    """Exact affine form of an estimator in the measurement vector: _affine_rows() at p0."""
    w = method_weights(method, scn, p0, nu)
    intercept, coeffs = _affine_rows(method, w[None], *_emitter_rows(scn, coordinates([p0]), (method,)))
    return AffinePowerMap(intercept=float(intercept[0]), coeffs=coeffs[0])
