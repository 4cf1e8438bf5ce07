import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radiomap import (
    CorrelationModel,
    Point,
    correlation,
    covariance_matrix,
    cross_covariance,
)
from radiomap.correlation import KERNEL_KINDS, covariance_stack, cross_covariance_matrix, cross_covariance_stack
from radiomap.geometry import coordinates
from radiomap.linalg import cholesky


def reference_covariance(model, p, q):
    """The kernel transcribed with math, one pair of points at a time."""
    dx, dy = q.x - p.x, q.y - p.y
    if model.kind == "elliptical":
        c, s = math.cos(model.rotation), math.sin(model.rotation)
        dx, dy = (c * dx + s * dy) / model.axis_ratio, -s * dx + c * dy
    d = math.hypot(dx, dy)
    r = (d / model.xc) ** 2 if model.kind == "gaussian" else d / model.xc
    return model.sigma**2 * math.exp(-r)


def test_elliptical_major_axis_scaled():
    # a major-axis offset of axis_ratio * xc is one correlation length away
    model = CorrelationModel("elliptical", sigma=5.0, xc=100.0, axis_ratio=3.3, rotation=0.0)
    got = correlation(model, Point(0, 0), Point(3.3 * 100.0, 0.0))
    assert got == pytest.approx(25.0 * math.exp(-1.0), rel=1e-12)


def test_elliptical_minor_axis_unscaled():
    model = CorrelationModel("elliptical", sigma=5.0, xc=100.0, axis_ratio=3.3, rotation=0.0)
    assert correlation(model, Point(0, 0), Point(0.0, 100.0)) == pytest.approx(25.0 * math.exp(-1.0), rel=1e-12)


def test_exponential_effective_distance_is_euclidean():
    model = CorrelationModel("exponential", sigma=5.0, xc=100.0)
    got = correlation(model, Point(0, 0), Point(3, 4))
    assert got == correlation(model, Point(0, 0), Point(5, 0))
    assert got == pytest.approx(25.0 * math.exp(-0.05), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(KERNEL_KINDS),
    st.floats(min_value=0.5, max_value=10.0),
    st.floats(min_value=200.0, max_value=1e4),
    st.floats(min_value=1.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=2.0 * math.pi),
    st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)), min_size=1, max_size=6),
)
def test_kernel_matches_a_math_transcription(kind, sigma, xc, axis_ratio, rotation, coords):
    # (d / xc)^2 stays below 50, so a last-bit difference in d moves the covariance by under 1e-13
    model = CorrelationModel(kind, sigma=sigma, xc=xc, axis_ratio=axis_ratio, rotation=rotation)
    points = [Point(x, y) for x, y in coords]
    got = covariance_matrix(model, points)
    want = np.array([[reference_covariance(model, p, q) for q in points] for p in points])
    assert np.all(np.abs(got - want) <= 1e-13 * want)


def test_sigma_whose_square_overflows_is_named():
    model = CorrelationModel("exponential", sigma=1e200, xc=640.0)
    with pytest.raises(OverflowError, match=r"sigma\^2 overflows a double at sigma = 1e\+200 dB"):
        covariance_matrix(model, [Point(0.0, 0.0)])


def test_zero_distance_variance():
    model = CorrelationModel("exponential", sigma=5.0, xc=640.0)
    assert correlation(model, Point(7, 7), Point(7, 7)) == 25.0


@pytest.mark.parametrize("kind", ["exponential", "gaussian"])
def test_one_correlation_length_value(kind):
    model = CorrelationModel(kind, sigma=5.0, xc=640.0)
    got = correlation(model, Point(0, 0), Point(640.0, 0.0))
    assert got == pytest.approx(25.0 * math.exp(-1.0), rel=1e-9)
    assert got == pytest.approx(9.19699, abs=1e-5)


@given(
    st.sampled_from(["exponential", "gaussian", "elliptical"]),
    st.floats(min_value=0.0, max_value=5e3),
    st.floats(min_value=0.0, max_value=5e3),
)
def test_correlation_monotone_in_distance(kind, d1, d2):
    model = CorrelationModel(kind, sigma=5.0, xc=300.0)
    lo, hi = sorted((d1, d2))
    c_lo = correlation(model, Point(0, 0), Point(lo, 0.0))
    c_hi = correlation(model, Point(0, 0), Point(hi, 0.0))
    assert c_hi <= c_lo + 1e-12
    assert 0.0 < c_hi <= 25.0


def test_elliptical_ratio_one_equals_exponential():
    ell = CorrelationModel("elliptical", sigma=5.0, xc=300.0, axis_ratio=1.0, rotation=0.7)
    exp = CorrelationModel("exponential", sigma=5.0, xc=300.0)
    rng = np.random.default_rng(3)
    for _ in range(200):
        p = Point(*rng.uniform(-1e3, 1e3, 2))
        q = Point(*rng.uniform(-1e3, 1e3, 2))
        assert correlation(ell, p, q) == pytest.approx(correlation(exp, p, q), abs=1e-12)


class TestCovarianceMatrix:
    def test_single_point(self):
        model = CorrelationModel("exponential", sigma=5.0, xc=640.0)
        m = covariance_matrix(model, [Point(1, 2)])
        assert m.shape == (1, 1)
        assert m[0, 0] == 25.0

    def test_coincident_points_rank_one(self):
        model = CorrelationModel("exponential", sigma=5.0, xc=640.0)
        m = covariance_matrix(model, [Point(1, 2), Point(1, 2)])
        assert np.array_equal(m, np.full((2, 2), 25.0))

    def test_reference_square_entries(self, table_model, table_scenario):
        m = covariance_matrix(table_model, list(table_scenario.sensors))
        side = 25.0 * math.exp(-1.0)
        diag = 25.0 * math.exp(-math.sqrt(2.0))
        assert np.allclose(np.diag(m), 25.0)
        for i, j, expected in [(0, 1, side), (1, 2, side), (2, 3, side), (0, 3, side),
                               (0, 2, diag), (1, 3, diag)]:
            assert m[i, j] == pytest.approx(expected, rel=1e-12)

    def test_exactly_symmetric(self):
        model = CorrelationModel("elliptical", sigma=4.0, xc=200.0, axis_ratio=2.5, rotation=0.4)
        rng = np.random.default_rng(5)
        pts = [Point(*rng.uniform(0, 1e3, 2)) for _ in range(7)]
        m = covariance_matrix(model, pts)
        assert np.array_equal(m, m.T)

    def test_positive_semidefinite_on_random_point_sets(self):
        rng = np.random.default_rng(11)
        kinds = ["exponential", "gaussian", "elliptical"]
        for trial in range(1000):
            model = CorrelationModel(
                kinds[trial % 3],
                sigma=float(rng.uniform(0.5, 10.0)),
                xc=float(rng.uniform(10.0, 2000.0)),
                axis_ratio=float(rng.uniform(1.0, 5.0)),
                rotation=float(rng.uniform(0.0, math.pi)),
            )
            k = int(rng.integers(2, 8))
            pts = [Point(*rng.uniform(0, 1e3, 2)) for _ in range(k)]
            m = covariance_matrix(model, pts)
            cholesky(m + 1e-10 * model.sigma**2 * np.eye(k))


class TestCrossCovariance:
    def test_coincident_element_is_variance(self):
        model = CorrelationModel("exponential", sigma=5.0, xc=640.0)
        pts = [Point(9, 9), Point(100, 100)]
        c = cross_covariance(model, Point(9, 9), pts)
        assert c[0] == 25.0

    def test_vanishing_correlation_length(self, table_scenario):
        d_min = min(table_scenario.sensor_distances())
        model = CorrelationModel("exponential", sigma=5.0, xc=1e-9 * d_min)
        c = cross_covariance(model, Point(320, 320), list(table_scenario.sensors))
        assert np.all(c < 1e-30)

    def test_square_center_symmetry(self, table_model, table_scenario):
        c = cross_covariance(table_model, Point(320, 320), list(table_scenario.sensors))
        expected = 25.0 * math.exp(-1.0 / math.sqrt(2.0))
        assert np.allclose(c, expected, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["exponential", "gaussian", "elliptical"])
    def test_matrix_rows_are_scalar_cross_covariances(self, kind, table_scenario):
        model = CorrelationModel(kind, sigma=5.0, xc=300.0, axis_ratio=3.3, rotation=0.7)
        rng = np.random.default_rng(11)
        queries = [Point(*rng.uniform(-200.0, 900.0, 2)) for _ in range(30)] + [Point(0.0, 640.0)]
        sensors = list(table_scenario.sensors)
        got = cross_covariance_matrix(model, queries, sensors)
        assert got.shape == (31, 4)
        for row, q in zip(got, queries):
            assert np.allclose(row, [reference_covariance(model, q, s) for s in sensors], rtol=1e-13, atol=0.0)


class TestStacks:
    @pytest.mark.parametrize("kind", ["exponential", "gaussian", "elliptical"])
    def test_matrix_k_has_the_bits_of_model_k_alone(self, kind, table_scenario):
        models = [
            CorrelationModel(kind, sigma=sigma, xc=xc, axis_ratio=3.3, rotation=0.7)
            for sigma, xc in ((5.0, 32.0), (5.0, 640.0), (7.5, 12800.0))
        ]
        rng = np.random.default_rng(5)
        queries = coordinates([Point(*rng.uniform(-200.0, 900.0, 2)) for _ in range(23)])
        sensors = coordinates(table_scenario.sensors)
        c_n = covariance_stack(models, sensors)
        c_0 = cross_covariance_stack(models, queries, sensors)
        assert c_n.shape == (3, 4, 4) and c_0.shape == (3, 23, 4)
        for k, model in enumerate(models):
            assert c_n[k].tobytes() == covariance_stack([model], sensors)[0].tobytes()
            assert c_0[k].tobytes() == cross_covariance_stack([model], queries, sensors)[0].tobytes()
            # the sensor block agrees with the math transcription
            want = [[reference_covariance(model, p, q) for q in table_scenario.sensors] for p in table_scenario.sensors]
            assert np.allclose(c_n[k], want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "other",
        [{"kind": "gaussian"}, {"axis_ratio": 2.0}, {"rotation": 0.1}],
        ids=["kind", "axis_ratio", "rotation"],
    )
    def test_models_must_differ_in_sigma_and_xc_alone(self, other, table_scenario):
        first = CorrelationModel("elliptical", sigma=5.0, xc=640.0, axis_ratio=3.3, rotation=0.7)
        second = CorrelationModel(**{**vars(first), "xc": 64.0, **other})
        sensors = coordinates(table_scenario.sensors)
        for build in (covariance_stack, lambda ms, pts: cross_covariance_stack(ms, pts, pts)):
            with pytest.raises(ValueError, match="differ in sigma and xc alone"):
                build([first, second], sensors)
            with pytest.raises(ValueError, match="at least one correlation model"):
                build([], sensors)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "nope", "sigma": 5.0, "xc": 640.0},
        {"kind": "exponential", "sigma": 0.0, "xc": 640.0},
        {"kind": "exponential", "sigma": 5.0, "xc": 0.0},
        {"kind": "elliptical", "sigma": 5.0, "xc": 640.0, "axis_ratio": 0.5},
    ],
)
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        CorrelationModel(**kwargs)


def test_documented_imports_reach_the_submodule():
    # the package exports the function correlation() under the submodule's name, so
    # `import radiomap.correlation as corr` binds the function; the README imports the
    # submodule's array entries by name instead
    import radiomap
    from radiomap.correlation import correlation, covariance_stack, cross_covariance_stack

    assert radiomap.correlation is correlation
    submodule = sys.modules["radiomap.correlation"]
    assert (submodule.covariance_stack, submodule.cross_covariance_stack) == (covariance_stack, cross_covariance_stack)
