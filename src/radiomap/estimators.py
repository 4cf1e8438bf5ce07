"""The six radio-map interpolators, each also exposable as an affine map.

Every estimator predicts received power at a query point from the n sensor
measurements by applying sensor weights to one of three things: the shadow
deviations from the true medians (sm0), the residuals of a log-distance
fit (sm1, sm2), or the raw measurements (nn, idw, nat). method_weights() is
the one table from method name to weights; predict() and as_affine() each
branch only on those three families. All estimators are affine in the
measurement vector, which as_affine() materializes as an intercept plus
coefficient vector; the analysis module builds closed-form error
statistics on top of that.

Methods
-------
sm0   conditional-mean interpolation using the true propagation constants
      and the correlation model (equivalent to Simple Kriging)
sm1   log-distance fit of the constants, correlation-derived weights
      applied to the fit residuals
sm2   like sm1 but with normalized inverse-distance weights, so it needs
      no correlation knowledge
nn    nearest-neighbor measurement
idw   normalized inverse-distance weighting of raw measurements
nat   natural-neighbor (Sibson) weighting of raw measurements
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .geometry import DegenerateGeometryError, Point, Scenario, distance
from .correlation import CorrelationModel, covariance_matrix, cross_covariance
from .field import median_power
from .linalg import solve_spd

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
    "lse_fit",
    "sm0_weights",
    "sm2_weights",
    "sibson_weights",
    "method_weights",
    "predict",
    "as_affine",
]

SM0 = "sm0"
SM1 = "sm1"
SM2 = "sm2"
NN = "nn"
IDW = "idw"
NATURAL = "nat"
ALL_METHODS = (SM0, SM1, SM2, NN, IDW, NATURAL)

# Queries closer to a sensor than this fraction of the sensor span snap to it.
_SNAP_RTOL = 1e-9
# LSE denominator must exceed this fraction of its positive part.
_LSE_RTOL = 1e-9


class OutsideHullError(ValueError):
    """Natural-neighbor query lies on or outside the sensors' convex hull."""


@dataclass(frozen=True)
class FitResult:
    """Least-squares estimates of the power-law constants plus per-sensor residuals.

    For (R, n) measurement rows, a_hat and gamma_hat are (R,) arrays and
    residuals is (R, n).
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


def lse_fit(distances: np.ndarray, powers: np.ndarray) -> FitResult:
    """Fit powers = a_hat + 10 * gamma_hat * log10(d) by least squares.

    powers is one measurement vector or (R, n) rows, each fitted on its
    own. The fitted intercept absorbs any level common to all measurements,
    so the residuals always sum to zero.
    """
    x = _log_distances(distances)
    p = np.asarray(powers, dtype=float)
    n = x.size
    if n <= 2:
        raise ValueError(f"need more than 2 sensors, got {n}")
    if p.ndim not in (1, 2) or p.shape[-1:] != x.shape:
        raise ValueError(f"distances and powers disagree in length: {x.shape} vs {p.shape}")
    denom = _lse_denominator(x)
    sx = float(x.sum())
    sxx = float(x @ x)
    sp = p.sum(axis=-1)
    sxp = p @ x
    slope = (n * sxp - sx * sp) / denom
    a_hat = (sxx * sp - sx * sxp) / denom
    residuals = p - a_hat[..., None] - slope[..., None] * x
    return FitResult(a_hat=a_hat, gamma_hat=slope / 10.0, residuals=residuals)


def _lse_coefficient_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows c_a, c_s with a_hat = c_a . P and 10 * gamma_hat = c_s . P."""
    n = x.size
    denom = _lse_denominator(x)
    sx = float(x.sum())
    sxx = float(x @ x)
    c_slope = (n * x - sx) / denom
    c_a = (sxx - sx * x) / denom
    return c_a, c_slope


# ---------------------------------------------------------------------------
# correlation-derived weights and the ideal estimator


def sm0_weights(model: CorrelationModel, sensors: list[Point], p0: Point) -> np.ndarray:
    """Conditional-mean weights: solve C_n w = c_0 (no explicit inverse)."""
    c_n = covariance_matrix(model, list(sensors))
    c_0 = cross_covariance(model, p0, list(sensors))
    return solve_spd(c_n, c_0)


# ---------------------------------------------------------------------------
# distance-based weights


def _sensor_span(sensors: list[Point]) -> float:
    return max(distance(a, b) for i, a in enumerate(sensors) for b in sensors[i + 1 :])


def _snap_index(sensors: list[Point], p0: Point) -> int | None:
    """Index of a sensor the query collocates with, if any."""
    dists = [distance(p0, s) for s in sensors]
    j = int(np.argmin(dists))
    if dists[j] <= _SNAP_RTOL * _sensor_span(sensors):
        return j
    return None


def sm2_weights(sensors: list[Point], p0: Point, nu: float = 1.0) -> np.ndarray:
    """Normalized inverse-distance weights w_i = d_i^-nu / sum_j d_j^-nu.

    A query collocated with a sensor (within 1e-9 of the sensor span) gets
    that sensor's full weight, removing the 1/0 singularity.
    """
    sensors = list(sensors)
    j = _snap_index(sensors, p0)
    if j is not None:
        w = np.zeros(len(sensors))
        w[j] = 1.0
        return w
    d = np.array([distance(p0, s) for s in sensors])
    inv = d**-float(nu)
    return inv / inv.sum()


# ---------------------------------------------------------------------------
# natural-neighbor (Sibson) weights by exact polygon clipping


def _clip_halfplane(
    poly: list[tuple[float, float]], nx: float, ny: float, c: float
) -> list[tuple[float, float]]:
    """Intersect a convex polygon with the half-plane nx*x + ny*y <= c."""
    out: list[tuple[float, float]] = []
    k = len(poly)
    for i in range(k):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % k]
        dp = nx * px + ny * py - c
        dq = nx * qx + ny * qy - c
        if dp <= 0.0:
            out.append((px, py))
        if (dp < 0.0) != (dq < 0.0) and dp != dq:
            t = dp / (dp - dq)
            out.append((px + t * (qx - px), py + t * (qy - py)))
    return out


def _bisector_halfplane(
    a: tuple[float, float], b: tuple[float, float]
) -> tuple[float, float, float]:
    """Half-plane of points at least as close to a as to b, as (nx, ny, c)."""
    nx = 2.0 * (b[0] - a[0])
    ny = 2.0 * (b[1] - a[1])
    c = b[0] ** 2 + b[1] ** 2 - a[0] ** 2 - a[1] ** 2
    return nx, ny, c


def _polygon_area(poly: list[tuple[float, float]]) -> float:
    if len(poly) < 3:
        return 0.0
    s = 0.0
    k = len(poly)
    for i in range(k):
        px, py = poly[i]
        qx, qy = poly[(i + 1) % k]
        s += px * qy - qx * py
    return abs(s) / 2.0


def _bounding_polygon(sensors: list[Point]) -> list[tuple[float, float]]:
    # Pad the sensor bounding box to ~10x its extent; stolen regions of
    # strictly interior queries are bounded and never reach the clip.
    xs = [s.x for s in sensors]
    ys = [s.y for s in sensors]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    pad = 4.5 * extent
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    return [(x_lo, y_lo), (x_hi, y_lo), (x_hi, y_hi), (x_lo, y_hi)]


def _require_interior(sensors: list[Point], p0: Point) -> None:
    pts = np.array([[s.x, s.y] for s in sensors])
    hull = ConvexHull(pts)
    tol = 1e-12 * _sensor_span(sensors)
    signed = hull.equations[:, :2] @ np.array([p0.x, p0.y]) + hull.equations[:, 2]
    if signed.max() >= -tol:
        raise OutsideHullError(
            f"query ({p0.x}, {p0.y}) is not strictly inside the sensor hull"
        )


def sibson_weights(sensors: list[Point], p0: Point) -> np.ndarray:
    """Natural-neighbor weights: share of Voronoi area the query steals from each sensor.

    Cells are built by half-plane intersection of a padded bounding box; the
    stolen region for sensor i is the part of i's original cell that lies
    closer to the query than to i.
    """
    sensors = list(sensors)
    j = _snap_index(sensors, p0)
    if j is not None:
        w = np.zeros(len(sensors))
        w[j] = 1.0
        return w
    _require_interior(sensors, p0)
    box = _bounding_polygon(sensors)
    sites = [(s.x, s.y) for s in sensors]
    q = (p0.x, p0.y)
    stolen = np.zeros(len(sensors))
    for i, a in enumerate(sites):
        cell = box
        for k, b in enumerate(sites):
            if k != i:
                cell = _clip_halfplane(cell, *_bisector_halfplane(a, b))
        taken = _clip_halfplane(cell, *_bisector_halfplane(q, a))
        stolen[i] = _polygon_area(taken)
    total = stolen.sum()
    if total <= 0.0:
        raise OutsideHullError(f"query ({p0.x}, {p0.y}) steals no Voronoi area")
    return stolen / total


# ---------------------------------------------------------------------------
# the method table and its two users


def method_weights(method: str, scn: Scenario, p0: Point, nu: float = 1.0) -> np.ndarray:
    """Sensor weights a method applies at p0: the only map from method name to weights.

    sm0 and sm1 share the correlation-derived weights, sm2 and idw the
    inverse-distance weights; nn is one-hot on the nearest sensor (ties go
    to the lowest sensor index) and nat uses the Sibson weights.
    """
    sensors = list(scn.sensors)
    if method in (SM0, SM1):
        return sm0_weights(scn.correlation, sensors, p0)
    if method in (SM2, IDW):
        return sm2_weights(sensors, p0, nu)
    if method == NN:
        w = np.zeros(len(sensors))
        w[int(np.argmin([distance(p0, s) for s in sensors]))] = 1.0
        return w
    if method == NATURAL:
        return sibson_weights(sensors, p0)
    raise ValueError(f"unknown method {method!r}, expected one of {ALL_METHODS}")


def _query_log_distance(scn: Scenario, p0: Point) -> float:
    d0 = distance(scn.emitter, p0)
    if d0 <= 0.0:
        raise ValueError("query point coincides with the emitter")
    return math.log10(d0)


def predict(
    method: str, scn: Scenario, p0: Point, measurements: np.ndarray, nu: float = 1.0
) -> Prediction:
    """Run one estimator by its method tag on one measurement vector or (R, n) rows.

    sm1 and sm2 read only geometry from the scenario (and sm1 the
    correlation model); the true propagation constants enter sm0 alone.
    """
    w = method_weights(method, scn, p0, nu)
    meas = np.asarray(measurements, dtype=float)
    if method == SM0:
        pm = np.array([median_power(scn, s) for s in scn.sensors])
        value = median_power(scn, p0) + (meas - pm) @ w
    elif method in (SM1, SM2):
        fit = lse_fit(np.array(scn.sensor_distances()), meas)
        x0 = _query_log_distance(scn, p0)
        value = fit.a_hat + 10.0 * fit.gamma_hat * x0 + fit.residuals @ w
    else:
        value = meas @ w
    return Prediction(value=value, method=method, weights=w)


def as_affine(method: str, scn: Scenario, p0: Point, nu: float = 1.0) -> AffinePowerMap:
    """Exact affine form of an estimator in the measurement vector.

    The fitted methods (sm1, sm2) are linear because the least-squares
    estimates and residuals are linear in the observations; the weighted
    baselines are linear by construction; sm0 adds the median-power
    intercept.
    """
    w = method_weights(method, scn, p0, nu)
    if method == SM0:
        pm = np.array([median_power(scn, s) for s in scn.sensors])
        return AffinePowerMap(intercept=median_power(scn, p0) - float(w @ pm), coeffs=w)
    if method in (SM1, SM2):
        x = _log_distances(np.array(scn.sensor_distances()))
        c_a, c_slope = _lse_coefficient_rows(x)
        x0 = _query_log_distance(scn, p0)
        # residual rows: r_i = e_i - c_a - x_i * c_slope, applied through w
        coeffs = c_a + x0 * c_slope + w - float(w.sum()) * c_a - float(w @ x) * c_slope
        return AffinePowerMap(intercept=0.0, coeffs=coeffs)
    return AffinePowerMap(intercept=0.0, coeffs=w)
