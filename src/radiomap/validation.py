"""Self-check suite wiring independent oracles against the main code paths.

Each check recomputes a quantity by a second route that shares as little
machinery as possible with the primary implementation: the conditional-mean
estimator against a direct kriging-style formula solved with numpy, the
closed-form fit-error coefficients against brute-force refits, the
engine's sm1 error form against the hand-written coefficient expansion,
analytic RMS errors against Monte Carlo, sigma0 against a numpy solve, and
the polygon-clipped natural-neighbor weights against lattice area counting.
error_form() and analytic_rmse() run the sweep's analytic engine functions on
one point, which match the sweep's row there to round-off only; analytic_vs_mc
reads both engines from one sweep set-up, as a sweep does.

This is the one oracle library: 'radiomap validate' runs every check at its
defaults, and the acceptance gates C01, C02, C04 and C12 each run one check
with the seed, sample and tolerance they pin. The randomized checks draw
from numpy generators seeded master_seed plus a per-check offset (0 for
kriging_equivalence, 1 for lse_closed_form, 2 for sm1_decomposition, 3 for
sigma0_consistency). analytic_vs_mc runs the harness's Monte Carlo driver,
which keys each point's stream by (master_seed, the point's stream index),
as it keys a grid point, and draws each point once for every ratio and
method.

The lattice oracle lives here rather than in the estimators module because
the CLI 'validate' command has to run it at runtime; the estimator path
never imports it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Point, Scenario, build_square_scenario, coordinates, make_grid
from .correlation import (
    CorrelationModel,
    KERNEL_KINDS,
    covariance_matrix,
    cross_covariance,
)
from .field import median_power
from .estimators import SM0, SM2, NATURAL, lse_fit, predict, sibson_weights
from .analysis import (
    analytic_rmse,
    error_form,
    grid_analytic_rmse,
    lse_error_coeffs,
    sm1_coefficient_error_form,
    sm0_sigma0,
    sweep_setup,
)
from .harness import ExperimentConfig, _mc_rmse, _point_stderr, check_master_seed

__all__ = [
    "CheckResult",
    "CHECK_NAMES",
    "INJECTABLE_BUGS",
    "VALIDATION_SEED",
    "check_kriging_equivalence",
    "check_lse_closed_form",
    "check_sm1_decomposition",
    "check_analytic_vs_mc",
    "check_sibson_lattice",
    "check_sigma0_consistency",
    "sibson_lattice_weights",
    "run_validation",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    delta: float
    threshold: float


CHECK_NAMES = (
    "kriging_equivalence",
    "lse_closed_form",
    "sm1_decomposition",
    "analytic_vs_mc",
    "sibson_lattice",
    "sigma0_consistency",
)

# Negative controls that run_validation can inject; each must make a check fail.
INJECTABLE_BUGS = ("sigma0-sign",)

# Master seed of the randomized checks when none is given.
VALIDATION_SEED = 20240


def _verdict(name: str, worst: float, threshold: float) -> CheckResult:
    """The check passes when its worst deviation is within the threshold; plain bool and float for JSON."""
    return CheckResult(name, bool(worst <= threshold), float(worst), threshold)


def _table_scenario(ratio: float = 1.0, kernel: str = "exponential") -> Scenario:
    cfg = ExperimentConfig(kernel=kernel)
    return cfg.scenario(ratio)


def _random_scenario(rng: np.random.Generator) -> tuple[Scenario, Point]:
    side = float(rng.uniform(100.0, 2000.0))
    kind = KERNEL_KINDS[int(rng.integers(len(KERNEL_KINDS)))]
    model = CorrelationModel(
        kind=kind,
        sigma=float(rng.uniform(1.0, 10.0)),
        xc=float(rng.uniform(0.05, 5.0)) * side,
        axis_ratio=float(rng.uniform(1.0, 5.0)),
        rotation=float(rng.uniform(0.0, math.pi)),
    )
    # keep the emitter off the sensors and the grid
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    radius = float(rng.uniform(0.1, 2.0)) * side
    emitter = Point(side / 2 + radius * math.cos(angle), side / 2 + radius * math.sin(angle))
    scn = build_square_scenario(side, emitter, float(rng.uniform(0.0, 50.0)), float(rng.uniform(2.0, 5.0)), model)
    p0 = Point(float(rng.uniform(0.05, 0.95)) * side, float(rng.uniform(0.05, 0.95)) * side)
    return scn, p0


def check_kriging_equivalence(master_seed: int, trials: int = 100) -> CheckResult:
    """Conditional-mean prediction vs the per-point-median kriging formula."""
    rng = np.random.default_rng(master_seed)
    worst = 0.0
    for _ in range(trials):
        scn, p0 = _random_scenario(rng)
        meas = np.array([median_power(scn, s) for s in scn.sensors]) + rng.normal(
            0.0, scn.sigma, size=scn.n_sensors
        )
        got = predict(SM0, scn, p0, meas).value
        # independent route: numpy solve, medians folded in as the known mean
        c_n = covariance_matrix(scn.correlation, list(scn.sensors))
        c_0 = cross_covariance(scn.correlation, p0, list(scn.sensors))
        lam = np.linalg.solve(c_n, c_0)
        pm = np.array([median_power(scn, s) for s in scn.sensors])
        want = float(lam @ meas) + (median_power(scn, p0) - float(lam @ pm))
        worst = max(worst, abs(got - want))
    return _verdict("kriging_equivalence", worst, 1e-9)


def check_lse_closed_form(master_seed: int, trials: int = 100) -> CheckResult:
    """Coefficient-form fit errors vs brute-force refits on random shadow vectors."""
    rng = np.random.default_rng(master_seed + 1)
    scn = _table_scenario()
    d = np.array(scn.sensor_distances())
    coeffs = lse_error_coeffs(d)
    pm = np.array([median_power(scn, s) for s in scn.sensors])
    worst = 0.0
    for _ in range(trials):
        s = rng.normal(0.0, scn.sigma, size=scn.n_sensors)
        fit = lse_fit(d, pm + s)
        da_fit = (scn.a_db + float(s.mean())) - fit.a_hat
        dg_fit = scn.gamma - fit.gamma_hat
        worst = max(
            worst,
            abs(float(coeffs.da_coeffs @ s) - da_fit),
            abs(float(coeffs.dgamma_coeffs @ s) - dg_fit),
        )
    return _verdict("lse_closed_form", worst, 1e-9)


def check_sm1_decomposition(master_seed: int, trials: int = 100) -> CheckResult:
    """Mechanical error form vs the hand-written coefficient expansion, on draws."""
    rng = np.random.default_rng(master_seed + 2)
    scn = _table_scenario()
    grid = [Point(x, y) for x, y in make_grid(640.0, 4).xy.tolist()]
    worst = 0.0
    for t in range(trials):
        p0 = grid[t % len(grid)]
        s0 = float(rng.normal(0.0, scn.sigma))
        s = rng.normal(0.0, scn.sigma, size=scn.n_sensors)
        mech = error_form("sm1", scn, p0).evaluate(s0, s)
        hand = sm1_coefficient_error_form(scn, p0).evaluate(s0, s)
        worst = max(worst, abs(mech - hand))
    return _verdict("sm1_decomposition", worst, 1e-9)


def check_analytic_vs_mc(
    master_seed: int,
    points: Sequence[tuple[int, Point]] = ((0, Point(160.0, 160.0)), (1, Point(480.0, 320.0))),
    ratios: Sequence[float] = (0.3, 3.0),
    methods: Sequence[str] = (SM0, SM2, NATURAL),
    realizations: int = 40000,
) -> CheckResult:
    """Closed-form RMS error vs Monte Carlo, in units of the MC standard error.

    points pairs each query point with the index that keys its stream. Both
    engines read one set-up of every ratio at the points, as in a sweep,
    and a set-up failure is raised before any draw. Each point's stream is
    drawn once for every ratio and method, and each MC value has the bits
    of its own point_rmse_mc call.
    """
    scns = [_table_scenario(ratio) for ratio in ratios]
    xy, models = coordinates([p for _, p in points]), [scn.correlation for scn in scns]
    setup = sweep_setup(scns[0], xy, tuple(methods), models, joint=True)
    mc = _mc_rmse(setup, [index for index, _ in points], realizations, master_seed)
    expected = grid_analytic_rmse(setup)  # (K, M, N), as mc
    z = np.abs(mc - expected) / _point_stderr(expected, realizations)
    return _verdict("analytic_vs_mc", float(z.max()), 3.0)


def check_sibson_lattice(
    points: Sequence[Point] = (Point(160.0, 320.0), Point(320.0, 320.0), Point(200.0, 450.0)),
    cells: int = 2000,
) -> CheckResult:
    """Polygon-clipped natural-neighbor weights vs lattice area counting on a cells x cells lattice."""
    sensors = list(_table_scenario().sensors)
    worst = 0.0
    for p0 in points:
        exact = sibson_weights(sensors, p0)
        approx = sibson_lattice_weights(sensors, p0, cells)
        worst = max(worst, float(np.abs(exact - approx).max()))
    return _verdict("sibson_lattice", worst, 2e-3)


def check_sigma0_consistency(master_seed: int, sign: float = 1.0) -> CheckResult:
    """Schur-complement standard deviation vs the ideal estimator's analytic RMSE."""
    rng = np.random.default_rng(master_seed + 3)
    worst = 0.0
    for _ in range(20):
        scn, p0 = _random_scenario(rng)
        model = scn.correlation
        c_n = covariance_matrix(model, list(scn.sensors))
        c_0 = cross_covariance(model, p0, list(scn.sensors))
        reduction = sign * float(c_0 @ np.linalg.solve(c_n, c_0))
        direct = math.sqrt(max(model.sigma**2 - reduction, 0.0))
        via_solver = sm0_sigma0(model, list(scn.sensors), p0)
        via_form = analytic_rmse(
            error_form(SM0, scn, p0), model, p0, list(scn.sensors)
        )
        worst = max(worst, abs(direct - via_solver), abs(direct - via_form))
    return _verdict("sigma0_consistency", worst, 1e-9)


def sibson_lattice_weights(
    sensors: list[Point], p0: Point, cells: int = 2000
) -> np.ndarray:
    """Natural-neighbor weights by counting nearest-site lattice cells.

    A cells x cells lattice covers the sensor bounding box padded by half
    its extent on every side, which contains the stolen regions for queries
    comfortably inside the hull. For each lattice cell won by the query
    after insertion, the win is credited to the sensor that owned the cell
    before insertion.
    """
    xs, ys = coordinates(sensors).T
    extent = max(xs.max() - xs.min(), ys.max() - ys.min())
    pad = 0.5 * extent
    x_lo, x_hi = xs.min() - pad, xs.max() + pad
    y_lo, y_hi = ys.min() - pad, ys.max() + pad
    cx = x_lo + (np.arange(cells) + 0.5) * (x_hi - x_lo) / cells
    cy = y_lo + (np.arange(cells) + 0.5) * (y_hi - y_lo) / cells

    counts = np.zeros(len(sensors), dtype=np.int64)
    chunk = 64
    for start in range(0, cells, chunk):
        gy = cy[start : start + chunk]
        gx, gy = np.meshgrid(cx, gy)
        d_sensors = np.stack([(gx - s.x) ** 2 + (gy - s.y) ** 2 for s in sensors])
        owner_before = np.argmin(d_sensors, axis=0)
        d_q = (gx - p0.x) ** 2 + (gy - p0.y) ** 2
        taken = d_q < d_sensors.min(axis=0)
        for i in range(len(sensors)):
            counts[i] += int(np.count_nonzero(taken & (owner_before == i)))
    total = counts.sum()
    if total == 0:
        raise ValueError("query steals no lattice cells; is it inside the hull?")
    return counts / total


def run_validation(master_seed: int = VALIDATION_SEED, inject_bug: str | None = None) -> list[CheckResult]:
    """Run every named check; inject_bug='sigma0-sign' is a negative-control hook.

    A master_seed outside the unsigned 64-bit range raises ConfigError before
    any check runs.
    """
    check_master_seed(master_seed)
    sign = -1.0 if inject_bug == "sigma0-sign" else 1.0
    if inject_bug not in (None, *INJECTABLE_BUGS):
        raise ValueError(f"unknown bug injection {inject_bug!r}")
    return [
        check_kriging_equivalence(master_seed),
        check_lse_closed_form(master_seed),
        check_sm1_decomposition(master_seed),
        check_analytic_vs_mc(master_seed),
        check_sibson_lattice(),
        check_sigma0_consistency(master_seed, sign=sign),
    ]
