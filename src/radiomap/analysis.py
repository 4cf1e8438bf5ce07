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
tables C0, and, only when sm0 or sm1 runs, one stacked Cholesky call for
every Cn. grid_analytic_rmse() evaluates every method at every point under
the K models as one (K, N, .) stack: the geometry-only methods' error rows
are formed once for all K, and one grouped quadratic form covers the stack.
The Monte Carlo route assembles its joint factors and sm0 weights from the
same stacks. Row k of the result has the bits of a call with models[k]
alone. error_form() is the engine's row at one point and analytic_rmse()
shares its quadratic form, so the library API and the self-checks run the
engine the CLI ships. The hand-written coefficient expansion for the
fitted-correlation method exists only as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Point, Scenario, coordinates, distance
from .correlation import CorrelationModel, covariance_matrix, cross_covariance, cross_covariance_stack
from .linalg import NotPositiveDefiniteError, cholesky, solve_cholesky
from .estimators import (
    SM0,
    SM1,
    SM2,
    IDW,
    FitRows,
    _affine_rows,
    _emitter_rows,
    _log_distances,
    _lse_denominator,
    geometry_weights,
    sensor_factor,
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
    _, _, rows = _error_rows(forms, cov)
    bias, coeffs = rows[method]
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
    holds the (N, n) sensor weights of every requested method but sm0 and
    sm1, whose weights follow the correlation model; sm2 and idw share one
    array. When sm1 or sm2 is requested, fit holds their least-squares
    pieces (estimators._emitter_rows), the sensor distances' LseDesign
    first. The Monte Carlo route takes pm0, pm, weights and the fit's
    design from here as well.
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

    Each geometry-only weight family is one geometry_weights() call over all
    the points: idw shares sm2's (N, n) table, and nn and nat get one each.
    The median powers and the fit's log distances come from one pass over
    the emitter distances.
    """
    sensors = coordinates(scn.sensors)
    # idw applies sm2's inverse-distance weights: compute each table once
    sources = {m: SM2 if m == IDW else m for m in methods if m not in (SM0, SM1)}
    tables = {src: geometry_weights(src, sensors, xy, nu) for src in dict.fromkeys(sources.values())}
    pm0, pm, fit = _emitter_rows(scn, xy, methods)
    weights = {m: tables[src] for m, src in sources.items()}
    return GridForms(methods=tuple(methods), xy=xy, sensors=sensors, pm0=pm0, pm=pm, weights=weights, fit=fit)


@dataclass(frozen=True)
class SweepCovariances:
    """Every covariance both engines read, for K models that differ in sigma and xc alone.

    c_n holds each model's (n, n) sensor covariance Cn and c_0 its (N, n)
    covariances C0 at the forms' points, each with the bits it has alone.
    factors (None unless sm0 or sm1 runs) holds the Cholesky factors of the
    Cn before the first that is not positive definite, and error is the
    error that Cn raises alone.
    """

    c_n: np.ndarray
    c_0: np.ndarray
    factors: np.ndarray | None
    error: NotPositiveDefiniteError | None


def sweep_covariances(forms: GridForms, models: list[CorrelationModel]) -> SweepCovariances:
    """The models' Cn and C0 stacks at the forms' points, one kernel pass each, and their Cn factors in one call.

    The factors are taken only when sm0 or sm1 runs. If a Cn is not
    positive definite, the models before it are factored again as one
    stack, with the bits they have in the whole one. A sigma^2 that
    overflows raises the kernel's OverflowError.
    """
    with np.errstate(all="ignore"):
        c_n = cross_covariance_stack(models, forms.sensors, forms.sensors)
        c_0 = cross_covariance_stack(models, forms.xy, forms.sensors)
        if SM0 not in forms.methods and SM1 not in forms.methods:
            return SweepCovariances(c_n, c_0, None, None)
        try:
            return SweepCovariances(c_n, c_0, cholesky(c_n), None)
        except NotPositiveDefiniteError as err:
            alone = NotPositiveDefiniteError(err.pivot_index, err.pivot_value)
            return SweepCovariances(c_n, c_0, cholesky(c_n[: err.index]), alone)


def _error_rows(
    forms: GridForms, cov: SweepCovariances
) -> tuple[np.ndarray, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The (K', n, n) Cn, the (K', N, n) C0 and each method's error rows, for the K' models before cov.error's.

    The error under model k at point i is bias[k, i] + S0 - coeffs[k, i] . [S1..Sn].
    Each model's sm0/sm1 weights are one solve of its N C0 rows. The
    geometry-only methods' rows depend on no model: they are formed once,
    and bias and coeffs are broadcast views over the K' models.
    """
    k = len(cov.c_n) if cov.factors is None else len(cov.factors)
    c_n, c_0 = cov.c_n[:k], cov.c_0[:k]
    weights = dict(forms.weights)
    if cov.factors is not None:
        weights[SM0] = weights[SM1] = np.swapaxes(solve_cholesky(cov.factors, np.swapaxes(c_0, 1, 2)), 1, 2)
    rows = {}
    for m in forms.methods:
        intercept, coeffs = _affine_rows(m, weights[m], forms.pm0, forms.pm, forms.fit)
        bias = forms.pm0 - (intercept + coeffs @ forms.pm)
        rows[m] = (np.broadcast_to(bias, c_0.shape[:2]), np.broadcast_to(coeffs, c_0.shape))
    return c_n, c_0, rows


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
    """Per-point RMS error of each method under each model of cov before cov.error's, as (K', N) arrays.

    The package's one analytic engine; K' is every model when cov.error is
    None. Each method's error rows come from estimators._affine_rows() on
    its weight rows, the sm0/sm1 weights of every point under every model
    from cov's stacked Cholesky factors of the sensor covariances Cn.
    """
    c_n, c_0, rows = _error_rows(forms, cov)
    var0 = c_n[:, 0, :1]  # each model's sigma^2, the kernel at zero distance
    return {m: _affine_rms(bias, 1.0, coeffs, var0, c_0, c_n) for m, (bias, coeffs) in rows.items()}
