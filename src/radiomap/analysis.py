"""Closed-form error machinery for every estimator.

Each estimator's prediction error at a query point is affine in the joint
shadow vector [S0, S1..Sn]:

    true_power - predicted_power = bias + coeffs . [S0, S1..Sn]

because the prediction is affine in the measurements and the measurements
are the median powers plus the sensor shadows. With the joint covariance of
the shadow vector, the RMS prediction error follows in closed form.

One engine computes it, on arrays, and its unit is a sweep: K correlation
models that differ in sigma and xc alone. sweep_setup() takes the query
points as one (N, 2) coordinate array (a QueryGrid's xy) and builds, in one
call, what both engines read. First what does not depend on the model
(median powers and log distances from one pass over the emitter distances,
the geometry-only methods' weights), then what does: one kernel pass for
the K sensor covariances Cn, one for the K cross-covariance tables C0, only
when a method takes the solve (by the estimators' method table) one stacked
Cholesky call for every Cn, for the Monte Carlo route one call for every
point's joint factors under every model, and, when every factor holds, one
sm0_weight_rows() call for every point's weights under every model: a sweep
that cannot run solves nothing. The set-up's weights map each method to its
weight rows, which both engines read. grid_analytic_rmse() evaluates every
method at every point under the K models as one (K, M, N) array: the
geometry-only methods' error rows are formed once for all K, and one
grouped quadratic form covers each method's stack. Row k of the result has
the bits of a call with models[k] alone. error_form() and analytic_rmse()
run the same engine functions on a batch of one point, so the library API
and the self-checks share the CLI's arithmetic; they agree with the grid
engine's row at that point to round-off, not bit for bit.
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
from .estimators import LseDesign, _SOLVE, _SOLVED, _UNBIASED, _affine_rows, _emitter_rows, _estimator, _log_distances
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
    "SweepSetup",
    "sweep_setup",
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
    """The error row at p0, +1 on S0 minus the measurement coefficients, from the grid engine's functions on one point.

    bias is the estimator's systematic offset on a shadow-free world: the
    true median power at the query minus the map applied to the sensor
    median powers. The row agrees with the grid engine's at p0 to round-off,
    not bit for bit.
    """
    setup = sweep_setup(scn, coordinates([p0]), (method,), [scn.correlation], nu)
    if setup.error is not None:
        raise setup.error
    bias, coeffs = _error_rows(setup)[method]
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
class SweepSetup:
    """What both engines read for several methods at N query points under K models that differ in sigma and xc alone.

    xy holds the (N, 2) query coordinates. pm0 holds each query point's
    median power, pm the sensors' and x0 the points' log10 emitter
    distances. design is the sensor distances' LseDesign when a method
    takes the refit, else None. weights maps each requested method to its
    weight rows by the method table: a geometry-only family's (N, n) table,
    one array per family (sm2 and idw share one), or the solve's (K, N, n)
    stack, each row with the bits of sm0_weights() at its point alone, which
    is None when the set-up failed: nothing is solved for a sweep that
    cannot run.

    c_n holds each model's (n, n) sensor covariance Cn and c_0 its (N, n)
    covariances C0 at the points, each with the bits it has alone. joint
    holds the Monte Carlo route's (K, N, n+1, n+1) joint factors, or None
    when they were not asked for. error is the NotPositiveDefiniteError of
    the lowest model whose Cn (when a method takes the solve) or whose joint
    covariance at some point (when joint is built) does not factor, and
    failed that model's index; at one model Cn's error wins over its lowest
    failing point's, whose index is the point's in the flattened (model,
    point) stack.
    """

    methods: tuple[str, ...]
    xy: np.ndarray
    pm0: np.ndarray
    pm: np.ndarray
    x0: np.ndarray
    design: LseDesign | None
    weights: dict[str, np.ndarray | None]
    c_n: np.ndarray
    c_0: np.ndarray
    joint: np.ndarray | None
    failed: int | None
    error: NotPositiveDefiniteError | None


def sweep_setup(
    scn: Scenario,
    xy: np.ndarray,
    methods: tuple[str, ...],
    models: list[CorrelationModel],
    nu: float = 1.0,
    joint: bool = False,
) -> SweepSetup:
    """The methods' set-up at the rows of an (N, 2) coordinate array under the models, in one call.

    First what no model changes, from scn: each geometry-only weight family
    present, by the method table, is one geometry_weights() table over all
    the points, shared by its methods (sm2 and idw share the inverse-distance
    one), and the median powers and log distances come from one pass over
    the emitter distances. Then the models' Cn and C0 stacks, one kernel
    pass each. Only when a method takes the solve are the Cn factored, in
    one stacked call. With joint, every point's joint covariance under every
    model is factored in one field.joint_factors() call as well. Only when
    every factor holds are the weights solved, in one sm0_weight_rows()
    call. A sigma^2 that overflows raises the kernel's OverflowError.
    """
    sensors = coordinates(scn.sensors)
    families = {m: _estimator(m)[0] for m in methods}
    first = {f: m for m, f in reversed(families.items()) if f != _SOLVE}  # each geometry family's first method
    tables = {f: geometry_weights(m, sensors, xy, nu) for f, m in first.items()}
    pm0, pm, design, x0 = _emitter_rows(scn, xy, methods)
    with np.errstate(all="ignore"):  # near the double range, the finiteness checks name what goes wrong
        c_n = cross_covariance_stack(models, sensors, sensors)
        c_0 = cross_covariance_stack(models, xy, sensors)
        factors, error = (None, None) if _SOLVED.isdisjoint(methods) else cholesky_stack(c_n.copy())
        failed = None if error is None else error.index
        lower = None
        if joint:
            lower, point_error = joint_factors(c_0, c_n)
            if point_error is not None and (failed is None or point_error.index // c_0.shape[1] < failed):
                failed, error = point_error.index // c_0.shape[1], point_error
        tables[_SOLVE] = sm0_weight_rows(factors, c_0) if factors is not None and error is None else None
    weights = {m: tables[f] for m, f in families.items()}
    return SweepSetup(tuple(methods), xy, pm0, pm, x0, design, weights, c_n, c_0, lower, failed, error)


def _error_rows(setup: SweepSetup) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each method's error rows under the set-up's K models, whose Cn all factor (the caller raises setup.error first).

    The error under model k at point i is bias[k, i] + S0 - coeffs[k, i] . [S1..Sn].
    The geometry-only methods' rows depend on no model: they are formed
    once, and bias and coeffs are broadcast views over the K models. An
    unbiased method's bias is 0: computed, it is the medians' round-off.
    """
    rows = {}
    for m, w in setup.weights.items():
        intercept, coeffs = _affine_rows(m, w, setup.pm0, setup.pm, setup.design, setup.x0)
        bias = 0.0 if m in _UNBIASED else setup.pm0 - (intercept + coeffs @ setup.pm)
        rows[m] = (np.broadcast_to(bias, setup.c_0.shape[:2]), np.broadcast_to(coeffs, setup.c_0.shape))
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


def grid_analytic_rmse(setup: SweepSetup) -> np.ndarray:
    """(K, M, N) per-point RMS errors of the M methods, in setup.methods order, under each of the set-up's K models.

    The package's one analytic engine; its callers raise setup.error first.
    Each method's error rows come from estimators._affine_rows() on its
    weight rows in setup.weights.
    """
    var0 = setup.c_n[:, 0, :1]  # each model's sigma^2, the kernel at zero distance
    rows = _error_rows(setup)
    by_method = (rows[m] for m in setup.methods)
    return np.stack([_affine_rms(bias, 1.0, coeffs, var0, setup.c_0, setup.c_n) for bias, coeffs in by_method], axis=1)
