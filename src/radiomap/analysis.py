"""Closed-form error machinery for every estimator.

Each estimator's prediction error at a query point is affine in the joint
shadow vector [S0, S1..Sn]:

    true_power - predicted_power = bias + coeffs . [S0, S1..Sn]

because the prediction is affine in the measurements and the measurements
are the median powers plus the sensor shadows. With the joint covariance of
the shadow vector, the RMS prediction error follows in closed form.

One engine computes it, on arrays, and its unit is a sweep: K correlation
models that differ in sigma and xc alone. grid_forms() takes the query
points as one (N, 2) coordinate array (a QueryGrid's xy) and gathers once
what does not depend on the model (median powers and log distances from
one pass over the emitter distances, the geometry-only methods' weights).
sweep_covariances() then builds what does, once for both engines: one
kernel pass for the K sensor covariances Cn, one for the K cross-covariance
tables C0, only when a method takes the solve (by the estimators'
method table) one stacked Cholesky call for every Cn, for the Monte Carlo
route one call for every point's joint factors under every model, and,
when every factor holds, one sm0_weight_rows() call for every point's
weights under every model: a sweep that cannot run solves nothing.
grid_analytic_rmse() evaluates every method at every point under the K
models as one (K, N, .) stack: the geometry-only methods' error rows are
formed once for all K, and one grouped quadratic form covers the stack.
The Monte Carlo route reads the same weights (_weight_stacks). Row k of
the result has the bits of a call with models[k] alone. error_form() is
the engine's row at one point and analytic_rmse() shares its quadratic
form, so the library API and the self-checks run the engine the CLI ships.
The hand-written coefficient expansion for the fitted-correlation method
exists only as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, Scenario, coordinates, distance
from .correlation import CorrelationModel, covariance_matrix, cross_covariance, cross_covariance_stack
from .linalg import NotPositiveDefiniteError, cholesky_stack, solve_cholesky
from .estimators import FitRows, _SOLVE, _SOLVED, _UNBIASED, _affine_rows, _emitter_rows, _estimator, _log_distances
from .estimators import _lse_denominator, geometry_weights, sensor_factor, sm0_weight_rows, sm0_weights
from .field import joint_factors

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
    "SweepCovariances",
    "sweep_covariances",
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
    """The grid engine's error row at p0: +1 on S0, minus the measurement coefficients.

    bias is the estimator's systematic offset on a shadow-free world: the
    true median power at the query minus the map applied to the sensor
    median powers.
    """
    forms = grid_forms(scn, coordinates([p0]), (method,), nu)
    cov = sweep_covariances(forms, [scn.correlation])
    if cov.error is not None:
        raise cov.error
    bias, coeffs = _error_rows(forms, cov)[method]
    return AffineErrorForm(bias=float(bias[0, 0]), coeffs=np.concatenate(([1.0], -coeffs[0, 0])))


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


def analytic_rmse(form: AffineErrorForm, model: CorrelationModel, p0: Point, sensors: list[Point]) -> float:
    """RMS of any error form under the joint shadow covariance, sqrt(bias^2 + a' C a), as the grid engine takes it."""
    c_joint = covariance_matrix(model, [p0, *sensors])
    a = np.asarray(form.coeffs, dtype=float)
    rms = _affine_rms(np.array([form.bias]), a[0], -a[None, 1:], c_joint[0, 0], c_joint[:1, 1:], c_joint[1:, 1:])
    return float(rms[0])


def sm0_sigma0(model: CorrelationModel, sensors: list[Point], p0: Point) -> float:
    """Irreducible RMS interpolation error: the conditional standard deviation at p0.

    sigma0^2 = sigma^2 - c0' Cn^-1 c0 (a Schur complement, so nonnegative up
    to round-off; tiny negatives are clamped, anything worse is an error).
    """
    sensors = list(sensors)
    c_0 = cross_covariance(model, p0, sensors)
    var = model.sigma**2 - float(c_0 @ solve_cholesky(sensor_factor(model, sensors), c_0))
    if var < -1e-9 * model.sigma**2:
        raise ValueError(f"conditional variance {var:.6g} is negative beyond round-off")
    return math.sqrt(max(var, 0.0))


@dataclass(frozen=True)
class GridForms:
    """The parts of several methods' error forms at N query points that no correlation model changes.

    xy and sensors are the (N, 2) query and (n, 2) sensor coordinates.
    pm0 holds each query point's median power and pm the sensors'. weights
    holds the (N, n) weights of every requested method whose weight family
    is geometry-only, one array per family (sm2 and idw share one). When a
    method takes the refit, fit holds its least-squares pieces
    (estimators._emitter_rows), the sensor distances' LseDesign first. The
    Monte Carlo route takes pm0, pm, weights and the fit's design from here
    as well.
    """

    methods: tuple[str, ...]
    xy: np.ndarray
    sensors: np.ndarray
    pm0: np.ndarray
    pm: np.ndarray
    weights: dict[str, np.ndarray]
    fit: FitRows | None


def grid_forms(scn: Scenario, xy: np.ndarray, methods: tuple[str, ...], nu: float = 1.0) -> GridForms:
    """Gather the model-free parts of the methods' error forms at the rows of an (N, 2) coordinate array, once.

    Each geometry-only weight family present, by the method table, is one
    geometry_weights() table over all the points, shared by its methods (sm2
    and idw share the inverse-distance one). The median powers and the fit's
    log distances come from one pass over the emitter distances.
    """
    sensors = coordinates(scn.sensors)
    families = {m: _estimator(m)[0] for m in methods}
    first = {f: m for m, f in reversed(families.items()) if f != _SOLVE}  # each geometry family's first method
    tables = {f: geometry_weights(m, sensors, xy, nu) for f, m in first.items()}
    pm0, pm, fit = _emitter_rows(scn, xy, methods)
    weights = {m: tables[f] for m, f in families.items() if f in tables}
    return GridForms(methods=tuple(methods), xy=xy, sensors=sensors, pm0=pm0, pm=pm, weights=weights, fit=fit)


@dataclass(frozen=True)
class SweepCovariances:
    """Every covariance both engines read, and the one solve they share, for K models that differ in sigma and xc alone.

    c_n holds each model's (n, n) sensor covariance Cn and c_0 its (N, n)
    covariances C0 at the forms' points, each with the bits it has alone.
    joint holds the Monte Carlo route's (K, N, n+1, n+1) joint factors, or
    None when they were not asked for. error is the NotPositiveDefiniteError
    of the lowest model whose Cn (when a method takes the solve) or whose
    joint covariance at some point (when joint is built) does not factor,
    and failed that model's index; at one model Cn's error wins over its
    lowest failing point's, whose index is the point's in the flattened
    (model, point) stack. solved holds every model's (K, N, n) weights at
    the points, each row with the bits of sm0_weights() there alone, or None
    unless a method takes the solve: nothing is solved for a sweep that
    cannot run.
    """

    c_n: np.ndarray
    c_0: np.ndarray
    joint: np.ndarray | None
    solved: np.ndarray | None
    failed: int | None
    error: NotPositiveDefiniteError | None


def sweep_covariances(forms: GridForms, models: list[CorrelationModel], joint: bool = False) -> SweepCovariances:
    """The models' Cn and C0 stacks at the forms' points, one kernel pass each, their factors, and the solve in one call.

    Only when a method takes the solve, the Cn are factored in one stacked
    call. With joint, every point's joint covariance under every model is
    factored in one field.joint_factors() call as well. Only when every
    factor holds are the weights solved, in one sm0_weight_rows() call. A
    sigma^2 that overflows raises the kernel's OverflowError.
    """
    with np.errstate(all="ignore"):  # near the double range, the finiteness checks name what goes wrong
        c_n = cross_covariance_stack(models, forms.sensors, forms.sensors)
        c_0 = cross_covariance_stack(models, forms.xy, forms.sensors)
        factors, error = (None, None) if _SOLVED.isdisjoint(forms.methods) else cholesky_stack(c_n.copy())
        failed = None if error is None else error.index
        lower = None
        if joint:
            lower, point_error = joint_factors(c_0, c_n)
            if point_error is not None and (failed is None or point_error.index // c_0.shape[1] < failed):
                failed, error = point_error.index // c_0.shape[1], point_error
        solved = sm0_weight_rows(factors, c_0) if factors is not None and error is None else None
    return SweepCovariances(c_n, c_0, lower, solved, failed, error)


def _weight_stacks(forms: GridForms, cov: SweepCovariances) -> dict[str, np.ndarray]:
    """Each method's weight rows by the method table: its geometry-only (N, n) table, or cov's (K, N, n) solve."""
    return {m: cov.solved if m in _SOLVED else forms.weights[m] for m in forms.methods}


def _error_rows(forms: GridForms, cov: SweepCovariances) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each method's error rows under cov's K models, whose Cn all factor (the caller raises cov.error first).

    The error under model k at point i is bias[k, i] + S0 - coeffs[k, i] . [S1..Sn].
    The geometry-only methods' rows depend on no model: they are formed
    once, and bias and coeffs are broadcast views over the K models. An
    unbiased method's bias is 0: computed, it is the medians' round-off.
    """
    rows = {}
    for m, w in _weight_stacks(forms, cov).items():
        intercept, coeffs = _affine_rows(m, w, forms.pm0, forms.pm, forms.fit)
        bias = 0.0 if m in _UNBIASED else forms.pm0 - (intercept + coeffs @ forms.pm)
        rows[m] = (np.broadcast_to(bias, cov.c_0.shape[:2]), np.broadcast_to(coeffs, cov.c_0.shape))
    return rows


def _affine_rms(
    bias: np.ndarray, a0: float, c: np.ndarray, var0: np.ndarray, c_0: np.ndarray, c_n: np.ndarray
) -> np.ndarray:
    """sqrt(bias^2 + a C a') for each row's a = [a0, -c], C the joint covariance [[var0, c_0], [c_0', Cn]].

    bias is (..., N); c and c_0 are (..., N, n), Cn is (..., n, n) and var0
    broadcasts against bias: the leading axes run over a stack of models.
    The form is grouped as (a C) a' = a0 (a0 var0 - c.c_0) - c.(a0 c_0 - c Cn),
    as the expanded form overflows first near the double range, and clamped
    at zero against round-off.
    """
    q = a0 * (a0 * var0 - np.einsum("...ij,...ij->...i", c, c_0)) - np.einsum(
        "...ij,...ij->...i", c, a0 * c_0 - c @ c_n
    )
    return np.sqrt(bias**2 + np.maximum(q, 0.0))


def grid_analytic_rmse(forms: GridForms, cov: SweepCovariances) -> dict[str, np.ndarray]:
    """Per-point RMS error of each method under each of cov's K models, as (K, N) arrays.

    The package's one analytic engine; its callers raise cov.error first.
    Each method's error rows come from estimators._affine_rows() on its
    weight rows, the solve family's from cov's one solve.
    """
    var0 = cov.c_n[:, 0, :1]  # each model's sigma^2, the kernel at zero distance
    rows = _error_rows(forms, cov)
    return {m: _affine_rms(bias, 1.0, coeffs, var0, cov.c_0, cov.c_n) for m, (bias, coeffs) in rows.items()}
