"""Closed-form error machinery for every estimator.

Each estimator's prediction error at a query point is affine in the joint
shadow vector [S0, S1..Sn]:

    true_power - predicted_power = bias + coeffs . [S0, S1..Sn]

because the prediction is affine in the measurements and the measurements
are the median powers plus the sensor shadows. With the joint covariance of
the shadow vector, the RMS prediction error follows in closed form, which
is what the experiment harness uses in analytic mode.

For a whole grid of query points the same algebra runs on arrays:
grid_forms() gathers once what does not depend on the correlation model
(median powers, log distances, the geometry-only methods' weights), and
grid_analytic_rmse() evaluates every method at every point for one model
with a single Cholesky factor of the sensor covariance. The scalar
error_form()/analytic_rmse() pair stays the reference it is tested against.

Error forms are derived mechanically from each estimator's AffinePowerMap;
the hand-written coefficient expansion for the fitted-correlation method
exists only as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, Scenario, distance
from .correlation import CorrelationModel, covariance_matrix, cross_covariance, cross_covariance_matrix
from .field import median_power
from .linalg import cholesky, quadratic_form, solve_cholesky, solve_spd
from .estimators import (
    SM0,
    SM1,
    SM2,
    IDW,
    _log_distances,
    _lse_coefficient_rows,
    _lse_denominator,
    _query_log_distance,
    as_affine,
    geometry_weights,
    sm0_weights,
)

__all__ = [
    "AffineErrorForm",
    "LseErrorCoeffs",
    "lse_error_coeffs",
    "error_form",
    "sm1_coefficient_error_form",
    "analytic_rmse",
    "sm0_sigma0",
    "GridForms",
    "grid_forms",
    "grid_analytic_rmse",
]


@dataclass(frozen=True)
class AffineErrorForm:
    """Prediction error as bias plus a linear functional of [S0, S1..Sn]."""

    bias: float
    coeffs: np.ndarray

    def evaluate(self, s0: float, s: np.ndarray) -> float:
        joint = np.concatenate(([s0], np.asarray(s, dtype=float)))
        return self.bias + float(self.coeffs @ joint)


@dataclass(frozen=True)
class LseErrorCoeffs:
    """Coefficient vectors of the fit errors as linear forms in the sensor shadows.

    With x_i = log10(d_i), x_bar their mean and the usual least-squares
    denominator n * sum(x^2) - sum(x)^2:

        alpha_i = (sum_j x_j - n x_i) / denom        (10 * dgamma weights)
        beta_i  = (x_i sum_j x_j - (sum_j x_j)^2 / n) / denom

    dgamma = gamma - gamma_hat = sum_i (alpha_i / 10) S_i, and
    da = (a + mean(S)) - a_hat = sum_i beta_i S_i: the fitted intercept is
    compared against the true intercept plus the mean sensor shadow, which
    is the level the zero-sum residuals are measured about. Both alpha and
    beta sum to zero; the weights (1/n - beta_i) the fit puts on the shadows
    when estimating the intercept itself sum to one.
    """

    alpha: np.ndarray
    beta: np.ndarray
    dgamma_coeffs: np.ndarray
    da_coeffs: np.ndarray


def lse_error_coeffs(distances: np.ndarray) -> LseErrorCoeffs:
    """Closed-form fit-error coefficients for a sensor-distance layout."""
    x = _log_distances(np.asarray(distances, dtype=float))
    n = x.size
    denom = _lse_denominator(x)
    sx = float(x.sum())
    alpha = (sx - n * x) / denom
    beta = (x * sx - sx**2 / n) / denom
    return LseErrorCoeffs(alpha=alpha, beta=beta, dgamma_coeffs=alpha / 10.0, da_coeffs=beta)


def error_form(method: str, scn: Scenario, p0: Point, nu: float = 1.0) -> AffineErrorForm:
    """Mechanical error form: +1 on S0, minus the estimator's measurement coefficients.

    bias is the estimator's systematic offset on a shadow-free world: the
    true median power at the query minus the map applied to the sensor
    median powers.
    """
    amap = as_affine(method, scn, p0, nu)
    pm = np.array([median_power(scn, s) for s in scn.sensors])
    bias = median_power(scn, p0) - (amap.intercept + float(amap.coeffs @ pm))
    coeffs = np.concatenate(([1.0], -amap.coeffs))
    return AffineErrorForm(bias=bias, coeffs=coeffs)


def sm1_coefficient_error_form(scn: Scenario, p0: Point) -> AffineErrorForm:
    """Hand-written coefficient expansion of the fitted-correlation method's error.

    Cross-check only; error_form() is the authoritative construction. The
    coefficient on S_i combines the fit-error terms with the weight applied
    to residual i:

        alpha_i * (x0 - sum_j w_j x_j) + (1 - sum_j w_j) * (beta_i - 1/n) - w_i
    """
    sensors = list(scn.sensors)
    n = len(sensors)
    w = sm0_weights(scn.correlation, sensors, p0)
    d = np.array(scn.sensor_distances())
    coeffs = lse_error_coeffs(d)
    x = np.log10(d)
    x0 = math.log10(distance(scn.emitter, p0))
    on_s = (
        coeffs.alpha * (x0 - float(w @ x))
        + (1.0 - float(w.sum())) * (coeffs.beta - 1.0 / n)
        - w
    )
    return AffineErrorForm(bias=0.0, coeffs=np.concatenate(([1.0], on_s)))


def analytic_rmse(
    form: AffineErrorForm,
    model: CorrelationModel,
    p0: Point,
    sensors: list[Point],
) -> float:
    """RMS of the error form under the joint shadow covariance: sqrt(bias^2 + a' C a)."""
    c_joint = covariance_matrix(model, [p0, *sensors])
    q = quadratic_form(c_joint, form.coeffs)
    return math.sqrt(form.bias**2 + max(q, 0.0))


def sm0_sigma0(model: CorrelationModel, sensors: list[Point], p0: Point) -> float:
    """Irreducible RMS interpolation error: the conditional standard deviation at p0.

    sigma0^2 = sigma^2 - c0' Cn^-1 c0 (a Schur complement, so nonnegative up
    to round-off; tiny negatives are clamped, anything worse is an error).
    """
    sensors = list(sensors)
    c_n = covariance_matrix(model, sensors)
    c_0 = cross_covariance(model, p0, sensors)
    var = model.sigma**2 - float(c_0 @ solve_spd(c_n, c_0))
    if var < -1e-9 * model.sigma**2:
        raise ValueError(f"conditional variance {var:.6g} is negative beyond round-off")
    return math.sqrt(max(var, 0.0))


@dataclass(frozen=True)
class GridForms:
    """The parts of several methods' error forms at N query points that no correlation model changes.

    pm0 holds each query point's median power and pm the sensors'. weights
    holds the (N, n) sensor weights of every requested method but sm0 and
    sm1, whose weights follow the correlation model; sm2 and idw share one
    array. When sm1 or sm2 is requested, fit holds the least-squares pieces
    (x, c_a, c_slope, x0): the sensors' log10 emitter distances, their
    coefficient rows, and each query point's log10 emitter distance. The
    Monte Carlo route takes pm0, pm and weights from here as well.
    """

    methods: tuple[str, ...]
    points: tuple[Point, ...]
    sensors: tuple[Point, ...]
    pm0: np.ndarray
    pm: np.ndarray
    weights: dict[str, np.ndarray]
    fit: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None


def grid_forms(scn: Scenario, points: list[Point], methods: tuple[str, ...], nu: float = 1.0) -> GridForms:
    """Gather the model-free parts of the methods' error forms over a point set, once.

    Each geometry-only weight family is one geometry_weights() call over all
    the points: idw shares sm2's (N, n) table, and nn and nat get one each.
    """
    points = tuple(points)
    fit = None
    if any(m in (SM1, SM2) for m in methods):
        x = _log_distances(np.array(scn.sensor_distances()))
        fit = (x, *_lse_coefficient_rows(x), np.array([_query_log_distance(scn, p0) for p0 in points]))
    # idw applies sm2's inverse-distance weights: compute each table once
    sources = {m: SM2 if m == IDW else m for m in methods if m not in (SM0, SM1)}
    tables = {src: geometry_weights(src, scn.sensors, points, nu) for src in dict.fromkeys(sources.values())}
    return GridForms(
        methods=tuple(methods),
        points=points,
        sensors=tuple(scn.sensors),
        pm0=np.array([median_power(scn, p0) for p0 in points]),
        pm=np.array([median_power(scn, s) for s in scn.sensors]),
        weights={m: tables[src] for m, src in sources.items()},
        fit=fit,
    )


def grid_analytic_rmse(forms: GridForms, model: CorrelationModel) -> dict[str, np.ndarray]:
    """Per-point RMS error of each method under one correlation model, as (N,) arrays.

    Row i of a method equals analytic_rmse(error_form(method, ...)) at
    forms.points[i]: the same affine algebra as as_affine() and error_form(),
    applied to (N, n) weight rows. The sm0/sm1 weights of all points come
    from one Cholesky factor of the sensor covariance Cn.
    """
    c_n = covariance_matrix(model, list(forms.sensors))
    c_0 = cross_covariance_matrix(model, forms.points, forms.sensors)
    weights = dict(forms.weights)
    if SM0 in forms.methods or SM1 in forms.methods:
        weights[SM0] = weights[SM1] = solve_cholesky(cholesky(c_n), c_0.T).T
    out = {}
    for m in forms.methods:
        w = weights[m]
        intercept = 0.0
        coeffs = w
        if m == SM0:
            intercept = forms.pm0 - w @ forms.pm
        elif m in (SM1, SM2):
            # residual rows r_i = e_i - c_a - x_i * c_slope, applied through w
            x, c_a, c_slope, x0 = forms.fit
            coeffs = c_a + x0[:, None] * c_slope + w - w.sum(axis=1)[:, None] * c_a - (w @ x)[:, None] * c_slope
        bias = forms.pm0 - (intercept + coeffs @ forms.pm)
        # a C a' for a = [1, -c], grouped as (a C) a' like quadratic_form(): the
        # expanded sigma^2 - 2 c.C0 + c Cn c' overflows first near the double range
        q = (model.sigma**2 - np.einsum("ij,ij->i", coeffs, c_0)) - np.einsum(
            "ij,ij->i", coeffs, c_0 - coeffs @ c_n
        )
        out[m] = np.sqrt(bias**2 + np.maximum(q, 0.0))
    return out
