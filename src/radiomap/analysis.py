"""Closed-form error machinery for every estimator.

Each estimator's prediction error at a query point is affine in the joint
shadow vector [S0, S1..Sn]:

    true_power - predicted_power = bias + coeffs . [S0, S1..Sn]

because the prediction is affine in the measurements and the measurements
are the median powers plus the sensor shadows. With the joint covariance of
the shadow vector, the RMS prediction error follows in closed form.

One engine computes it, on arrays, and its unit is a sweep: K scenarios
that differ in their correlation distance alone. sweep_setup() builds, in
one call, what the engines read, and refuses a sweep that cannot run by the
set-up rows of _REFUSALS, the one ordered refusal table, before any solve:
a SweepSetup that exists can run. grid_analytic_rmse() evaluates every
method at every point under the K scenarios as one (K, M, N) array, row k
with the bits of a call with scns[k] alone. harness.error_form() and
analytic_rmse() run the same engine functions on one point, so the library
API and the self-checks share the CLI's arithmetic; they agree with the
grid engine's row there to round-off, not bit for bit.
The hand-written coefficient expansion for the fitted-correlation method
exists only as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

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
    "sm1_coefficient_error_form",
    "analytic_rmse",
    "sm0_sigma0",
    "ENGINES",
    "SetupRefusal",
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


def sm1_coefficient_error_form(scn: Scenario, p0: Point) -> AffineErrorForm:
    """Hand-written coefficient expansion of the fitted-correlation method's error.

    Cross-check only; harness.error_form() is the authoritative construction. The
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
    The set-up's sigma^2 underflow row refuses here too, as a SetupRefusal.
    """
    sensors = list(sensors)
    c_0 = cross_covariance(model, p0, sensors)  # a sigma^2 that overflows raises the kernel's OverflowError
    if (cause := _sigma_underflow(sigma=model.sigma, methods=_SOLVED, error=None)) is not None:
        raise SetupRefusal("sigma^2 underflow", 0, cause)
    var = model.sigma**2 - float(c_0 @ solve_cholesky(sensor_factor(model, sensors), c_0))
    if var < -1e-9 * model.sigma**2:
        raise ValueError(f"conditional variance {var:.6g} is negative beyond round-off")
    return math.sqrt(max(var, 0.0))


ENGINES = ("analytic", "mc")  # the engines a set-up can be built for


class SetupRefusal(ValueError):
    """A sweep refused by the first set-up row of _REFUSALS that applies: row names it, ratio_index is the index of
    the scenario it names (the failing one for a factor row, else 0), the message is its cause, and a factor row's
    NotPositiveDefiniteError is its __cause__."""

    def __init__(self, row: str, ratio_index: int, cause: str):
        super().__init__(cause)
        self.row, self.ratio_index = row, ratio_index


@dataclass(frozen=True)
class SweepSetup:
    """What the engines read for several methods at N query points under K scenarios that differ in xc alone.

    Only sweep_setup() builds one, for a sweep that can run the engines it
    records. xy holds the (N, 2) query coordinates, pm0 the points' median
    powers, pm the sensors' and x0 the points' log10 emitter distances;
    design is the sensors' LseDesign when a method refits. weights maps each
    method to its weight rows: a geometry-only family's (N, n) table, shared
    within the family, or the solve's (K, N, n) stack, each row with the
    bits of sm0_weights() at its point alone. c_n and c_0 hold each
    scenario's (n, n) Cn and (N, n) C0, with the bits each has alone, and
    joint the Monte Carlo engine's (K, N, n+1, n+1) joint factors, or None.
    """

    methods: tuple[str, ...]
    engines: frozenset[str]
    xy: np.ndarray
    pm0: np.ndarray
    pm: np.ndarray
    x0: np.ndarray
    design: LseDesign | None
    weights: dict[str, np.ndarray]
    c_n: np.ndarray
    c_0: np.ndarray
    joint: np.ndarray | None


def sweep_setup(
    scns: list[Scenario], xy: np.ndarray, methods: tuple[str, ...], nu: float = 1.0, engines=("analytic",)
) -> SweepSetup:
    """The methods' set-up at the rows of an (N, 2) coordinate array under the sweep's scenarios, in one call.

    scns holds one scenario per ratio and engines those that will run, of
    ENGINES; ValueError names an empty list, scenarios that differ in more
    than their correlation distance, or another engine. First, from the
    first scenario, one geometry_weights() table per geometry-only family
    present (sm2 and idw share one), the medians and the log distances.
    Then one kernel pass each for the Cn and C0 stacks, one stacked factor
    of every Cn when a method takes the solve, and one joint_factors() call
    for the Monte Carlo engine; the lowest failing scenario's error wins, Cn's
    over its points'. Then the first set-up row of _REFUSALS that applies
    raises a SetupRefusal, so nothing is solved for a sweep that cannot run,
    and only then one sm0_weight_rows() call solves every weight. A sigma^2
    that overflows raises the kernel's OverflowError.
    """
    if not scns:
        raise ValueError("need at least one scenario")
    scn, models = scns[0], [s.correlation for s in scns]
    if any(replace(s, correlation=replace(s.correlation, xc=scn.correlation.xc)) != scn for s in scns[1:]):
        raise ValueError("the scenarios of a sweep must differ in their correlation distance alone")
    if not (engines := frozenset(engines)) or not engines <= set(ENGINES):
        raise ValueError(f"engines must be a non-empty subset of {ENGINES}, got {sorted(engines)}")
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
        lower, point_error = joint_factors(c_0, c_n) if "mc" in engines else (None, None)
        if point_error is not None and (failed is None or point_error.index // c_0.shape[1] < failed):
            failed, error = point_error.index // c_0.shape[1], point_error
        facts = dict(sigma=scn.sigma, a_db=scn.a_db, methods=methods, engines=engines, error=error, failed=failed)
        if (refused := _first_refusal(_SETUP, medians=np.concatenate((pm0, pm)), **facts)) is not None:
            row, cause = refused
            factor = isinstance(cause, NotPositiveDefiniteError)
            raise SetupRefusal(row, failed if factor else 0, str(cause)) from (cause if factor else None)
        if factors is not None:
            tables[_SOLVE] = sm0_weight_rows(factors, c_0)
    weights = {m: tables[f] for m, f in families.items()}
    return SweepSetup(tuple(methods), engines, xy, pm0, pm, x0, design, weights, c_n, c_0, lower)


def _error_rows(setup: SweepSetup) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each method's error rows under the set-up's K scenarios.

    The error under scenario k at point i is bias[k, i] + S0 - coeffs[k, i] . [S1..Sn].
    The geometry-only methods' rows depend on no model: they are formed
    once, and bias and coeffs are broadcast views over the K scenarios. An
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
    """(K, M, N) per-point RMS errors of the M methods, in setup.methods order, under each of the set-up's K scenarios.

    The package's one analytic engine, on a set-up built for it (ValueError
    names one that was not, as it has not passed the engine's refusals).
    Each method's error rows come from estimators._affine_rows() on its
    weight rows in setup.weights.
    """
    if "analytic" not in setup.engines:
        raise ValueError("the set-up was built without the analytic engine among its engines")
    var0 = setup.c_n[:, 0, :1]  # each scenario's sigma^2, the kernel at zero distance
    rows = _error_rows(setup)
    by_method = (rows[m] for m in setup.methods)
    return np.stack([_affine_rms(bias, 1.0, coeffs, var0, setup.c_0, setup.c_n) for bias, coeffs in by_method], axis=1)


# ---------------------------------------------------------------------------
# refusals: _REFUSALS maps each refusal decided after ExperimentConfig.validate(), in precedence order, to its stage
# and its check, which returns the cause or None from the facts it names. sweep_setup() walks the set-up rows and
# harness._grid_evals the engine rows, on each ratio's (K, M) spatial aggregates and standard errors (a finite spatial
# RMSE implies finite per-point values); the harness words every cause for the CLI.

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


def _sigma_underflow(sigma: float, methods, error, **_) -> str | None:
    # sigma^2 is 0, failing every factor at pivot 0, or subnormal, with lost digits, and a method's error all shadow
    zero = error is not None and error.pivot_index == 0
    if zero or (sigma**2 < np.finfo(float).tiny and not _UNBIASED.isdisjoint(methods)):
        return f"sigma^2 underflows a double at sigma = {sigma!r} dB"
    return None


def _factor_failure(error, failed, later: bool, **_) -> NotPositiveDefiniteError | None:
    return error if error is not None and (failed > 0) == later else None  # at the first ratio, or a later one


def _medians(medians: np.ndarray, a_db: float) -> tuple[float, str]:
    """The largest magnitude of the median powers P, and the cause naming the field that sets it."""
    top, term = np.abs(medians).max(), np.abs(a_db - medians).max()
    return top, f"field {'a_db' if abs(a_db) >= term else 'gamma'!r} sets median powers of up to {top:.6g} dB"


def _median_overflow(engines, medians, a_db, **_) -> str | None:
    # where the analytic engine runs; it squares each bias, up to 2 |P|
    top, cause = _medians(medians, a_db)
    if "analytic" in engines and top > 2.0**510:
        return f"{cause}, above 2^510 dB, past which the analytic engine's squared bias may overflow"
    return None


def _lost_bias(medians, a_db, sigma, **_) -> str | None:
    top, cause = _medians(medians, a_db)
    if not (top < math.inf and max(spread := np.ptp(medians), sigma) < _SPREAD_FRACTION * top):
        return None
    return f"{cause}; spread {spread:.6g} dB and sigma_db under {_SPREAD_FRACTION:g} of it lose the bias to round-off"


def _lost_sigma(engines, medians, sigma, **_) -> str | None:
    # where Monte Carlo draws; non-finite medians reach the engine rows
    top = np.abs(medians).max()
    if "mc" not in engines or not sigma < _SIGMA_FRACTION * top < math.inf:
        return None
    return (
        f"sigma is too small for Monte Carlo: {sigma!r} dB is below {_SIGMA_FRACTION:g} of the largest median power "
        f"magnitude, {top:.6g} dB, so the shadows would be lost to round-off"
    )


def _not_finite(methods, k: int, label: str, arrays) -> str | None:
    """The first method whose label at ratio k is not finite in one of the (K, M) arrays that are not None."""
    for j, m in enumerate(methods):
        if not all(math.isfinite(a[k, j]) for a in arrays if a is not None):
            return f"{m} {label} is not finite"
    return None


_SETUP, _ENGINES = "in the set-up", "after the engines"
_REFUSALS = {
    "sigma^2 underflow": (_SETUP, _sigma_underflow),
    "first-ratio factor": (_SETUP, partial(_factor_failure, later=False)),
    "median overflow": (_SETUP, _median_overflow),
    "lost bias": (_SETUP, _lost_bias),
    "lost sigma": (_SETUP, _lost_sigma),
    "later-ratio factor": (_SETUP, partial(_factor_failure, later=True)),
    "non-finite RMSE": (_ENGINES, lambda methods, k, spatial, se: _not_finite(methods, k, "RMSE", spatial.values())),
    "non-finite standard error": (_ENGINES, lambda methods, k, se, **_: _not_finite(methods, k, "standard error", [se])),
}


def _first_refusal(stage: str, **facts) -> tuple[str, object] | None:
    """The name and cause of the first of the stage's rows of _REFUSALS whose check, on the facts, returns a cause."""
    for name, (row_stage, check) in _REFUSALS.items():
        if row_stage == stage and (cause := check(**facts)) is not None:
            return name, cause
    return None
