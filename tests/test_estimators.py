import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiomap import (
    ALL_METHODS,
    CorrelationModel,
    DegenerateGeometryError,
    OutsideHullError,
    Point,
    as_affine,
    build_square_scenario,
    lse_fit,
    median_power,
    method_weights,
    predict,
    sample_shadow,
    sibson_weights,
    sm0_weights,
    sm2_weights,
)
from radiomap.correlation import covariance_matrix, cross_covariance, cross_covariance_matrix
from radiomap import analysis, estimators, harness
from radiomap.estimators import _ESTIMATORS, _strictly_inside, geometry_weights, lse_design, sensor_factor, sm0_weight_rows
from radiomap.analysis import error_form, sweep_setup
from radiomap.geometry import coordinates, make_grid
from radiomap.linalg import cholesky, solve_cholesky
from radiomap.validation import sibson_lattice_weights


def exact_medians(scn):
    return np.array([median_power(scn, s) for s in scn.sensors])


class TestLseFit:
    def test_recovers_exact_power_law(self, table_scenario):
        d = np.array(table_scenario.sensor_distances())
        powers = 15.3 + 37.6 * np.log10(d)
        fit = lse_fit(d, powers)
        assert fit.a_hat == pytest.approx(15.3, abs=1e-9)
        assert fit.gamma_hat == pytest.approx(3.76, abs=1e-12)
        assert np.all(np.abs(fit.residuals) < 1e-9)

    def test_constant_shift_moves_intercept_only(self, table_scenario):
        d = np.array(table_scenario.sensor_distances())
        powers = 15.3 + 37.6 * np.log10(d)
        fit = lse_fit(d, powers + 7.25)
        assert fit.a_hat == pytest.approx(15.3 + 7.25, abs=1e-9)
        assert fit.gamma_hat == pytest.approx(3.76, abs=1e-12)

    def test_equidistant_sensors_degenerate(self):
        with pytest.raises(DegenerateGeometryError):
            lse_fit(np.array([50.0, 50.0, 50.0, 50.0]), np.array([1.0, 2.0, 3.0, 4.0]))

    def test_residuals_sum_to_zero(self, table_scenario):
        rng = np.random.default_rng(2)
        d = np.array(table_scenario.sensor_distances())
        for _ in range(50):
            powers = rng.normal(90.0, 5.0, size=4)
            fit = lse_fit(d, powers)
            assert abs(fit.residuals.sum()) <= 1e-9 * 4 * 5.0

    def test_rows_match_single_vector_fits(self, table_scenario):
        rng = np.random.default_rng(5)
        d = np.array(table_scenario.sensor_distances())
        rows = rng.normal(90.0, 5.0, size=(30, 4))
        batch = lse_fit(d, rows)
        for r, powers in enumerate(rows):
            fit = lse_fit(d, powers)
            assert batch.a_hat[r] == pytest.approx(fit.a_hat, abs=1e-9)
            assert batch.gamma_hat[r] == pytest.approx(fit.gamma_hat, abs=1e-12)
            assert np.allclose(batch.residuals[r], fit.residuals, rtol=0.0, atol=1e-9)

    def test_sensor_major_rows_match_realization_major(self, table_scenario):
        # the same fit from either layout; residuals.T comes back as contiguous sensor-major rows
        rng = np.random.default_rng(6)
        d = np.array(table_scenario.sensor_distances())
        rows = rng.normal(90.0, 5.0, size=(30, 4))
        sensor_major = np.ascontiguousarray(rows.T).T
        a, b = lse_fit(d, rows), lse_fit(d, sensor_major)
        assert np.allclose(a.a_hat, b.a_hat, rtol=0.0, atol=1e-9)
        assert np.allclose(a.gamma_hat, b.gamma_hat, rtol=0.0, atol=1e-12)
        assert np.allclose(a.residuals, b.residuals, rtol=0.0, atol=1e-9)
        assert b.residuals.shape == (30, 4) and b.residuals.T.flags["C_CONTIGUOUS"]
        assert a.residuals.T.flags["C_CONTIGUOUS"]

    def test_needs_more_than_two_sensors(self):
        with pytest.raises(ValueError, match="more than 2"):
            lse_fit(np.array([1.0, 2.0]), np.array([0.0, 1.0]))

    def test_design_and_caller_rows_give_the_same_bits(self, table_scenario):
        # constants computed once, rows written into a caller's NaN-filled block
        rng = np.random.default_rng(7)
        d = np.array(table_scenario.sensor_distances())
        sensor_major = np.ascontiguousarray(rng.normal(90.0, 5.0, size=(4, 1000)))
        want = lse_fit(d, sensor_major.T)
        out = np.full((4 + 2, 1000), np.nan)
        got = lse_fit(lse_design(d), sensor_major.T, out=out)
        for name in ("a_hat", "gamma_hat", "residuals"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert np.shares_memory(got.residuals, out) and got.residuals.T.flags["C_CONTIGUOUS"]
        one, alone = lse_fit(lse_design(d), sensor_major[:, 3]), lse_fit(d, sensor_major[:, 3])
        assert (one.a_hat, one.gamma_hat) == (alone.a_hat, alone.gamma_hat)
        assert one.residuals.tolist() == alone.residuals.tolist()

    @pytest.mark.parametrize("realizations", [1, 2, 7, 1000])
    def test_a_stack_gives_each_fit_the_bytes_of_its_own_call(self, table_scenario, realizations):
        # a (P, R, n) stack written into strided rows of a larger per-point block, as the Monte Carlo kernel passes
        rng = np.random.default_rng(8)
        d = np.array(table_scenario.sensor_distances())
        block = np.full((3, 1 + 4 + 6 + 2, realizations), np.nan)
        block[:, 1:5] = rng.normal(90.0, 5.0, size=(3, 4, realizations))
        meas = block[:, 1:5]
        got = lse_fit(lse_design(d), meas.swapaxes(1, 2), out=block[:, 5:11])
        assert got.residuals.shape == (3, realizations, 4) and got.a_hat.shape == (3, realizations)
        for p in range(3):
            want = lse_fit(d, np.ascontiguousarray(meas[p]).T)
            for name in ("a_hat", "gamma_hat", "residuals"):
                assert getattr(got, name)[p].tobytes() == getattr(want, name).tobytes(), (name, p)
            assert np.shares_memory(got.residuals[p], block[p, 5:9])
        assert np.isnan(block[:, 11:]).all() and np.isnan(block[:, 0]).all()

    @pytest.mark.parametrize("realizations", [None, 2, 7, 1000], ids=["vector", "2-rows", "7-rows", "1000-rows"])
    @pytest.mark.parametrize("layout", ["realization-major", "sensor-major"])
    def test_every_row_matches_lstsq_of_the_design(self, realizations, layout):
        # an oracle apart from predict and the analytic engine: numpy's least squares on [1, log10 d]
        rng = np.random.default_rng(11)
        d = np.array([35.0, 120.0, 260.0, 410.0, 777.0])
        shape = (5,) if realizations is None else (realizations, 5)
        powers = rng.normal(90.0, 5.0, size=shape) - 37.6 * np.log10(d)
        if layout == "sensor-major":
            powers = np.ascontiguousarray(powers.T).T
        fit = lse_fit(d, powers)
        design = np.stack((np.ones(5), np.log10(d)), axis=1)
        rows = np.atleast_2d(powers)
        (a_hat, slope), *_ = np.linalg.lstsq(design, rows.T, rcond=None)
        assert np.shape(fit.a_hat) == np.shape(fit.gamma_hat) == shape[:-1]
        assert np.allclose(np.atleast_1d(fit.a_hat), a_hat, rtol=0.0, atol=1e-10)
        assert np.allclose(np.atleast_1d(fit.gamma_hat), slope / 10.0, rtol=0.0, atol=1e-10)
        assert np.allclose(np.atleast_2d(fit.residuals), rows - (design @ [a_hat, slope]).T, rtol=0.0, atol=1e-10)


class TestSm0Weights:
    def test_collocated_query_takes_full_weight(self, table_model, table_scenario):
        sensors = list(table_scenario.sensors)
        offset = 1e-6 * 640.0
        p0 = Point(sensors[2].x - offset, sensors[2].y - offset)
        w = sm0_weights(table_model, sensors, p0)
        assert abs(w[2] - 1.0) < 1e-3
        for j in (0, 1, 3):
            assert abs(w[j]) < 1e-3

    def test_vanishing_correlation_length(self, table_scenario):
        model = CorrelationModel("exponential", sigma=5.0, xc=1e-6 * 640.0)
        w = sm0_weights(model, list(table_scenario.sensors), Point(320, 320))
        assert np.all(np.abs(w) < 1e-6)

    def test_center_symmetry(self, table_model, table_scenario):
        w = sm0_weights(table_model, list(table_scenario.sensors), Point(320, 320))
        assert np.allclose(w, w[0], rtol=1e-12)
        # closed form at the center: all-ones is an eigenvector of the square's covariance
        row_sum = 25.0 * (1.0 + 2.0 * math.exp(-1.0) + math.exp(-math.sqrt(2.0)))
        expected = 25.0 * math.exp(-1.0 / math.sqrt(2.0)) / row_sum
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_given_factor_matches_solve_spd(self, table_model, table_scenario):
        # one sensor_factor serves every point through sm0_weight_rows, with the bits of a solve per point
        sensors = list(table_scenario.sensors)
        factor = sensor_factor(table_model, sensors)
        c_n = covariance_matrix(table_model, sensors)
        for p0 in (Point(320, 320), Point(101.5, 517.25), Point(10.0, 630.0)):
            want = solve_cholesky(cholesky(c_n), cross_covariance(table_model, p0, sensors))
            rows = sm0_weight_rows(factor, cross_covariance(table_model, p0, sensors)[None])
            assert rows[0].tolist() == want.tolist()
            assert sm0_weights(table_model, sensors, p0).tolist() == want.tolist()

    def test_weight_rows_match_one_point_solves_bit_for_bit(self, table_model, table_scenario):
        sensors = list(table_scenario.sensors)
        points = [Point(320, 320), Point(101.5, 517.25), Point(10.0, 630.0), Point(600.0, 1.0)]
        factor = sensor_factor(table_model, sensors)
        rows = sm0_weight_rows(factor, cross_covariance_matrix(table_model, points, sensors))
        assert rows.shape == (4, 4)
        for row, p0 in zip(rows, points):
            want = solve_cholesky(sensor_factor(table_model, sensors), cross_covariance(table_model, p0, sensors))
            assert row.tobytes() == want.tobytes()


class TestSm0Predict:
    def test_zero_shadowing_returns_median(self, table_scenario):
        p0 = Point(200, 300)
        pred = predict("sm0", table_scenario, p0, exact_medians(table_scenario))
        assert pred.value == pytest.approx(median_power(table_scenario, p0), abs=1e-9)

    def test_query_near_sensor_returns_its_measurement(self, table_scenario):
        rng = np.random.default_rng(4)
        meas = exact_medians(table_scenario) + rng.normal(0, 5, 4)
        offset = 1e-6 * 640.0
        p0 = Point(640.0 - offset, offset)  # next to sensor 3
        pred = predict("sm0", table_scenario, p0, meas)
        assert pred.value == pytest.approx(meas[3], abs=1e-3)

    def test_vanishing_correlation_returns_median(self, table_scenario):
        model = CorrelationModel("exponential", sigma=5.0, xc=1e-6 * 640.0)
        scn = build_square_scenario(640.0, table_scenario.emitter, 15.3, 3.76, model)
        meas = exact_medians(scn) + 3.0
        p0 = Point(320, 320)
        pred = predict("sm0", scn, p0, meas)
        assert pred.value == pytest.approx(median_power(scn, p0), abs=1e-5)

    def test_equals_kriging_formula(self, table_scenario, table_model):
        # same estimate via the known-mean kriging identity, solved independently
        rng = np.random.default_rng(8)
        from radiomap import covariance_matrix, cross_covariance

        for _ in range(25):
            p0 = Point(*rng.uniform(10, 630, 2))
            meas = exact_medians(table_scenario) + rng.normal(0, 5, 4)
            lam = np.linalg.solve(
                covariance_matrix(table_model, list(table_scenario.sensors)),
                cross_covariance(table_model, p0, list(table_scenario.sensors)),
            )
            pm = exact_medians(table_scenario)
            want = float(lam @ meas) + median_power(table_scenario, p0) - float(lam @ pm)
            got = predict("sm0", table_scenario, p0, meas).value
            assert got == pytest.approx(want, abs=1e-9)


class TestFittedPredictors:
    @pytest.mark.parametrize("method", ["sm1", "sm2"], ids=["sm1_predict", "sm2_predict"])
    def test_zero_shadowing_is_exact(self, table_scenario, method):
        p0 = Point(250, 410)
        pred = predict(method, table_scenario, p0, exact_medians(table_scenario))
        assert pred.value == pytest.approx(median_power(table_scenario, p0), abs=1e-9)

    @pytest.mark.parametrize("method", ["sm1", "sm2"], ids=["sm1_predict", "sm2_predict"])
    def test_shift_equivariance(self, table_scenario, method):
        rng = np.random.default_rng(6)
        meas = exact_medians(table_scenario) + rng.normal(0, 5, 4)
        p0 = Point(100, 500)
        base = predict(method, table_scenario, p0, meas).value
        shifted = predict(method, table_scenario, p0, meas + 12.5).value
        assert shifted == pytest.approx(base + 12.5, abs=1e-9)

    def test_sm1_matches_affine_map_on_sampled_measurements(self, table_scenario):
        p0 = Point(160, 160)
        _, s = sample_shadow(table_scenario, p0, 31, point_index=2)
        meas = exact_medians(table_scenario) + s
        amap = as_affine("sm1", table_scenario, p0)
        assert predict("sm1", table_scenario, p0, meas).value == pytest.approx(
            amap.evaluate(meas), abs=1e-9
        )

    def test_sm1_ignores_true_constants(self, table_scenario):
        rng = np.random.default_rng(12)
        meas = exact_medians(table_scenario) + rng.normal(0, 5, 4)
        p0 = Point(420, 220)
        other = build_square_scenario(
            640.0, table_scenario.emitter, 99.0, 2.2, table_scenario.correlation
        )
        assert predict("sm1", table_scenario, p0, meas).value == predict("sm1", other, p0, meas).value

    def test_degenerate_emitter_propagates(self, table_model):
        scn = build_square_scenario(640.0, Point(320.0, 320.0), 15.3, 3.76, table_model)
        meas = np.zeros(4)
        with pytest.raises(DegenerateGeometryError):
            predict("sm1", scn, Point(100, 100), meas)


class TestSm2Weights:
    def test_square_center_is_uniform(self, table_scenario):
        w = sm2_weights(list(table_scenario.sensors), Point(320, 320))
        assert np.allclose(w, 0.25, atol=1e-12)

    def test_hand_computed_distances(self):
        sensors = [Point(0, 1), Point(0, -2), Point(2, 0), Point(-2, 0)]
        w = sm2_weights(sensors, Point(0, 0), nu=1.0)
        assert np.allclose(w, [0.4, 0.2, 0.2, 0.2], rtol=1e-12)

    def test_snap_to_collocated_sensor(self, table_scenario):
        sensors = list(table_scenario.sensors)
        p0 = Point(1e-10 * 640.0, 0.0)
        w = sm2_weights(sensors, p0)
        assert np.array_equal(w, [1.0, 0.0, 0.0, 0.0])

    @given(st.floats(min_value=1.0, max_value=639.0), st.floats(min_value=1.0, max_value=639.0))
    @settings(max_examples=100, deadline=None)
    def test_weights_normalized(self, x, y):
        sensors = [Point(0, 0), Point(0, 640), Point(640, 640), Point(640, 0)]
        w = sm2_weights(sensors, Point(x, y))
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= 0.0)


class TestNearestNeighbor:
    def test_takes_adjacent_sensor_measurement(self, table_scenario):
        meas = np.array([1.0, 2.0, 3.0, 4.0])
        pred = predict("nn", table_scenario, Point(30.0, 600.0), meas)
        assert pred.value == 2.0

    def test_center_tie_breaks_to_lowest_index(self, table_scenario):
        meas = np.array([1.0, 2.0, 3.0, 4.0])
        pred = predict("nn", table_scenario, Point(320.0, 320.0), meas)
        assert pred.value == 1.0

    def test_weights_are_one_hot(self, table_scenario):
        pred = predict("nn", table_scenario, Point(30.0, 600.0), np.zeros(4))
        assert sorted(pred.weights) == [0.0, 0.0, 0.0, 1.0]


class TestIdw:
    def test_constant_measurements(self, table_scenario):
        pred = predict("idw", table_scenario, Point(123.0, 456.0), np.full(4, 7.5))
        assert pred.value == pytest.approx(7.5, abs=1e-12)

    def test_center_is_arithmetic_mean(self, table_scenario):
        meas = np.array([2.0, 4.0, 6.0, 8.0])
        pred = predict("idw", table_scenario, Point(320.0, 320.0), meas)
        assert pred.value == pytest.approx(5.0, abs=1e-12)

    def test_snap_returns_sensor_measurement(self, table_scenario):
        meas = np.array([2.0, 4.0, 6.0, 8.0])
        pred = predict("idw", table_scenario, Point(640.0, 640.0), meas)
        assert pred.value == 6.0


class TestNaturalNeighbor:
    def test_square_center_is_uniform(self, table_scenario):
        w = sibson_weights(list(table_scenario.sensors), Point(320.0, 320.0))
        assert np.allclose(w, 0.25, atol=1e-9)

    def test_diagonal_reflection_symmetry(self, table_scenario):
        # on the main diagonal the two off-diagonal sensors are mirror images
        w = sibson_weights(list(table_scenario.sensors), Point(200.0, 200.0))
        assert w[1] == pytest.approx(w[3], abs=1e-12)

    def test_against_lattice_area_oracle(self, table_scenario):
        sensors = list(table_scenario.sensors)
        p0 = Point(160.0, 320.0)
        exact = sibson_weights(sensors, p0)
        approx = sibson_lattice_weights(sensors, p0, cells=2000)
        assert np.all(np.abs(exact - approx) <= 2e-3)

    def test_outside_hull_rejected(self, table_scenario):
        with pytest.raises(OutsideHullError):
            predict("nat", table_scenario, Point(-5.0, 320.0), np.zeros(4))

    def test_hull_boundary_rejected(self, table_scenario):
        with pytest.raises(OutsideHullError):
            predict("nat", table_scenario, Point(0.0, 320.0), np.zeros(4))

    def test_collinear_sensors_rejected(self):
        sensors = [Point(0.0, 0.0), Point(100.0, 100.0), Point(200.0, 200.0), Point(300.0, 300.0)]
        for p0 in (Point(150.0, 150.0), Point(150.0, 160.0)):
            with pytest.raises(OutsideHullError):
                sibson_weights(sensors, p0)

    def test_weights_sum_to_one(self, table_scenario):
        rng = np.random.default_rng(17)
        for _ in range(25):
            p0 = Point(*rng.uniform(5.0, 635.0, 2))
            w = sibson_weights(list(table_scenario.sensors), p0)
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w >= 0.0)


# ---------------------------------------------------------------------------
# the per-query reference for the batched tables: each query clips every
# sensor's cell from the padded box on its own, then cuts it by its bisector


def _clip_halfplane(poly, nx, ny, c):
    """Intersect a convex polygon with the half-plane nx*x + ny*y <= c."""
    out = []
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


def _bisector_halfplane(a, b):
    """Half-plane of points at least as close to a as to b, as (nx, ny, c)."""
    return 2.0 * (b[0] - a[0]), 2.0 * (b[1] - a[1]), b[0] ** 2 + b[1] ** 2 - a[0] ** 2 - a[1] ** 2


def _polygon_area(poly):
    if len(poly) < 3:
        return 0.0
    s = sum(px * qy - qx * py for (px, py), (qx, qy) in zip(poly, poly[1:] + poly[:1]))
    return abs(s) / 2.0


def per_query_sibson(sensors, p0):
    xs = [s.x for s in sensors]
    ys = [s.y for s in sensors]
    pad = 4.5 * max(max(xs) - min(xs), max(ys) - min(ys))
    x_lo, x_hi, y_lo, y_hi = min(xs) - pad, max(xs) + pad, min(ys) - pad, max(ys) + pad
    box = [(x_lo, y_lo), (x_hi, y_lo), (x_hi, y_hi), (x_lo, y_hi)]
    sites = [(s.x, s.y) for s in sensors]
    stolen = np.zeros(len(sites))
    for i, a in enumerate(sites):
        cell = box
        for k, b in enumerate(sites):
            if k != i:
                cell = _clip_halfplane(cell, *_bisector_halfplane(a, b))
        stolen[i] = _polygon_area(_clip_halfplane(cell, *_bisector_halfplane((p0.x, p0.y), a)))
    return stolen / stolen.sum()


def per_query_inverse_distance(sensors, p0, nu):
    inv = np.array([math.hypot(p0.x - s.x, p0.y - s.y) for s in sensors]) ** -float(nu)
    return inv / inv.sum()


def one_hot_nearest(sensors, p0):
    w = np.zeros(len(sensors))
    w[int(np.argmin([math.hypot(p0.x - s.x, p0.y - s.y) for s in sensors]))] = 1.0
    return w


SQUARE = [Point(0.0, 0.0), Point(0.0, 640.0), Point(640.0, 640.0), Point(640.0, 0.0)]
QUADRILATERAL = [Point(0.0, 0.0), Point(520.0, -60.0), Point(610.0, 430.0), Point(-40.0, 380.0)]
# the quadrilateral plus a fifth sensor inside its hull
WITH_INTERIOR_SENSOR = [*QUADRILATERAL, Point(260.0, 170.0)]


def weight_table(method, sensors, points, nu=1.0):
    """geometry_weights over lists of Points."""
    return geometry_weights(method, coordinates(sensors), coordinates(points), nu)


def square_grid(res, side=640.0):
    step = side / res
    return [Point((i + 0.5) * step, (j + 0.5) * step) for j in range(res) for i in range(res)]


def random_interior_points(sensors, count, seed):
    # convex combinations of the hull corners with every coefficient >= 0.02
    rng = np.random.default_rng(seed)
    corners = np.array([(s.x, s.y) for s in sensors[:4]])
    mix = 0.02 + rng.dirichlet(np.ones(4), size=count) * 0.92
    return [Point(*xy) for xy in mix @ corners]


class TestGeometryWeightTables:
    @pytest.mark.parametrize("res", range(1, 18))
    def test_sibson_rows_match_per_query_clipper_on_square_grids(self, res):
        points = square_grid(res)
        table = weight_table("nat", SQUARE, points)
        want = np.array([per_query_sibson(SQUARE, p) for p in points])
        assert table.shape == (res * res, 4)
        assert np.abs(table - want).max() <= 1e-12

    @pytest.mark.parametrize("sensors", [SQUARE, QUADRILATERAL, WITH_INTERIOR_SENSOR], ids=["square", "quad", "five"])
    def test_sibson_rows_match_per_query_clipper_at_random_points(self, sensors):
        points = random_interior_points(sensors, 200, seed=len(sensors))
        table = weight_table("nat", sensors, points)
        want = np.array([per_query_sibson(sensors, p) for p in points])
        assert np.abs(table - want).max() <= 1e-12
        if len(sensors) == 5:
            assert table[:, 4].min() > 0.0  # the interior sensor is every query's natural neighbor

    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("sensors", [SQUARE, WITH_INTERIOR_SENSOR], ids=["square", "five"])
    def test_inverse_distance_rows_match_per_query_formula(self, sensors, nu):
        points = [*square_grid(9, side=400.0), *random_interior_points(sensors, 100, seed=nu)]
        want = np.array([per_query_inverse_distance(sensors, p, nu) for p in points])
        for method in ("sm2", "idw"):
            assert np.abs(weight_table(method, sensors, points, nu) - want).max() <= 1e-12

    @pytest.mark.parametrize("res", range(1, 18))
    def test_nn_rows_equal_per_point_argmin(self, res):
        # odd resolutions put points on the mid-lines and the centre: ties go to the lowest index
        points = square_grid(res)
        want = np.array([one_hot_nearest(SQUARE, p) for p in points])
        assert np.array_equal(weight_table("nn", SQUARE, points), want)

    @pytest.mark.parametrize("method", ["sm2", "idw", "nat", "nn"])
    def test_snapped_rows_are_one_hot(self, method, table_scenario):
        near = [Point(0.0, 0.0), Point(640.0, 640.0 - 1e-10 * 640.0), Point(1e-8, 640.0)]
        points = [Point(200.0, 300.0), *near, Point(410.0, 90.0)]
        table = weight_table(method, SQUARE, points)
        assert np.array_equal(table[1:4], np.eye(4)[[0, 2, 1]])
        assert np.array_equal(table, np.array([method_weights(method, table_scenario, p) for p in points]))

    @pytest.mark.parametrize("nu", [1, 3])
    @pytest.mark.parametrize("method", ["sm2", "idw", "nn", "nat"])
    def test_weights_do_not_depend_on_the_side_length(self, method, nu):
        # squares and cubes of distances near 640 * 2^600 overflow, and near 640 * 2^-600 underflow
        def weights(side):
            model = CorrelationModel("exponential", sigma=5.0, xc=side)
            scn = build_square_scenario(side, Point(-100.0, 0.0), 15.3, 3.76, model)
            return geometry_weights(method, coordinates(scn.sensors), make_grid(side, 8).xy, nu)

        want = weights(640.0)
        for side in (640.0 * 2.0**600, 640.0 * 2.0**-600):
            assert weights(side).tobytes() == want.tobytes(), side

    def test_first_point_outside_the_hull_is_named(self):
        points = [Point(100.0, 100.0), Point(-5.0, 320.0), Point(700.0, 10.0)]
        with pytest.raises(OutsideHullError, match=r"query \(-5\.0, 320\.0\) is not strictly inside"):
            weight_table("nat", SQUARE, points)

    def test_strict_interior_matches_hull_planes(self):
        # the monotone-chain test against Qhull's facet planes, with the same margin
        from scipy.spatial import ConvexHull

        sites = np.array([(s.x, s.y) for s in WITH_INTERIOR_SENSOR])
        rng = np.random.default_rng(41)
        corners = sites[:4]
        edge_points = corners + rng.uniform(0.0, 1.0, (4, 1)) * (np.roll(corners, -1, axis=0) - corners)
        queries = np.vstack([rng.uniform(-100.0, 700.0, (500, 2)), edge_points, corners, sites[4:]])
        span = max(math.dist(a, b) for a in sites for b in sites)
        hull = ConvexHull(sites)
        signed = queries @ hull.equations[:, :2].T + hull.equations[:, 2]
        want = signed.max(axis=1) < -1e-12 * span
        got = _strictly_inside(sites, queries, 1e-12 * span)
        assert np.array_equal(got, want)
        assert want.any() and not want.all()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="no geometry-only weights"):
            weight_table("sm0", SQUARE, [Point(1.0, 2.0)])


class TestAffineMaps:
    def test_matches_direct_calls_on_random_measurements(self, table_scenario):
        rng = np.random.default_rng(23)
        p0 = Point(205.0, 445.0)
        for method in ALL_METHODS:
            amap = as_affine(method, table_scenario, p0)
            for _ in range(100):
                meas = rng.normal(90.0, 8.0, size=4)
                direct = predict(method, table_scenario, p0, meas).value
                assert abs(amap.evaluate(meas) - direct) <= 1e-9

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_rows_match_single_vector_calls(self, table_scenario, method):
        rng = np.random.default_rng(37)
        p0 = Point(205.0, 445.0)
        rows = rng.normal(90.0, 8.0, size=(50, 4))
        batch = predict(method, table_scenario, p0, rows).value
        assert batch.shape == (50,)
        for r, meas in enumerate(rows):
            assert abs(batch[r] - predict(method, table_scenario, p0, meas).value) <= 1e-9

    def test_normalized_methods_coefficients_sum_to_one(self, table_scenario):
        p0 = Point(150.0, 90.0)
        for method in ("sm2", "idw", "nat"):
            amap = as_affine(method, table_scenario, p0)
            assert abs(amap.coeffs.sum() - 1.0) <= 1e-12

    def test_nn_map_is_one_hot_with_zero_intercept(self, table_scenario):
        amap = as_affine("nn", table_scenario, Point(30.0, 600.0))
        assert amap.intercept == 0.0
        assert sorted(amap.coeffs) == [0.0, 0.0, 0.0, 1.0]


class TestConvexity:
    @pytest.mark.parametrize("method", ["sm2", "idw", "nat"])
    def test_affine_combination_stays_in_measurement_range(self, table_scenario, method):
        # holds for the weighted baselines whose weights are nonnegative;
        # the fitted pipeline (sm2) is convex only in its weighting stage,
        # so check the raw weighted estimators here
        rng = np.random.default_rng(29)
        for _ in range(25):
            p0 = Point(*rng.uniform(5.0, 635.0, 2))
            meas = rng.normal(85.0, 6.0, size=4)
            if method == "idw":
                v = predict("idw", table_scenario, p0, meas).value
            elif method == "nat":
                v = predict("nat", table_scenario, p0, meas).value
            else:
                w = sm2_weights(list(table_scenario.sensors), p0)
                v = float(w @ meas)
            assert meas.min() - 1e-9 <= v <= meas.max() + 1e-9

    @pytest.mark.parametrize(
        "call",
        [
            lambda scn, p0: predict("kriging", scn, p0, np.zeros(4)),
            lambda scn, p0: as_affine("kriging", scn, p0),
            lambda scn, p0: method_weights("kriging", scn, p0),
            lambda scn, p0: error_form("kriging", scn, p0),
            lambda scn, p0: sweep_setup(scn, coordinates([p0]), ("kriging",), [scn.correlation]),
            lambda scn, p0: weight_table("kriging", scn.sensors, [p0]),
        ],
        ids=["predict", "as_affine", "method_weights", "error_form", "sweep_setup", "geometry_weights"],
    )
    def test_unknown_method_rejected(self, table_scenario, call):
        with pytest.raises(ValueError, match="unknown method") as caught:
            call(table_scenario, Point(10, 10))
        # the same error from every entry: the method table's one lookup
        assert str(caught.value) == f"unknown method 'kriging', expected one of {ALL_METHODS}"
        assert caught.traceback[-1].name == "_estimator"


class TestMethodTable:
    """The one table that says whose weights each method applies, and to what."""

    def test_covers_all_methods_exactly(self):
        assert tuple(_ESTIMATORS) == ALL_METHODS

    @pytest.mark.parametrize("module", [analysis, harness], ids=["analysis", "harness"])
    def test_engines_bind_no_method_name_constant(self, module):
        assert [name for name in ("SM0", "SM1", "SM2", "NN", "IDW", "NATURAL") if hasattr(module, name)] == []

    def test_no_module_but_estimators_branches_on_a_method_name(self):
        # a comparison against a method name, spelled as a constant or a literal, decides per method
        names = {"SM0", "SM1", "SM2", "NN", "IDW", "NATURAL"}

        def is_method_name(node):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                return any(is_method_name(e) for e in node.elts)
            return (isinstance(node, ast.Name) and node.id in names) or (
                isinstance(node, ast.Constant) and node.value in ALL_METHODS
            )

        branching = []
        for path in Path(estimators.__file__).parent.glob("*.py"):
            if path.name == "estimators.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare) and any(map(is_method_name, [node.left, *node.comparators])):
                    branching.append(f"{path.name}:{node.lineno}")
        assert branching == []

    def test_methods_of_one_weight_family_apply_the_same_weights(self, table_scenario):
        p0 = Point(205.0, 445.0)
        sensors, q = coordinates(table_scenario.sensors), coordinates([p0])
        by_family = {}
        for method, (family, _) in _ESTIMATORS.items():
            w = method_weights(method, table_scenario, p0)
            assert np.array_equal(w, by_family.setdefault(family, w))
            if family == "solve":
                assert np.array_equal(w, sm0_weights(table_scenario.correlation, list(table_scenario.sensors), p0))
                with pytest.raises(ValueError, match="no geometry-only weights"):
                    geometry_weights(method, sensors, q)
            else:
                assert np.array_equal(w, geometry_weights(method, sensors, q)[0])
        assert sorted(by_family) == ["inverse distance", "nearest", "sibson", "solve"]
