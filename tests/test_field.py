import math

import numpy as np
import pytest

from radiomap import (
    CorrelationModel,
    Point,
    build_square_scenario,
    covariance_matrix,
    cross_covariance,
    median_power,
    sample_shadow,
)
from radiomap.correlation import cross_covariance_stack
from radiomap.field import _correlate_rows, correlate_normals, joint_cholesky, joint_factors, standard_normal_block
from radiomap.geometry import coordinates, make_grid
from radiomap.linalg import NotPositiveDefiniteError


def joint_factors_at(scn, xy):
    """joint_factors over the rows of xy, from the one-model C0 and Cn stacks of scn's model."""
    sensors = coordinates(scn.sensors)
    c_0 = cross_covariance_stack([scn.correlation], xy, sensors)[0]
    lower, error = joint_factors(c_0, covariance_matrix(scn.correlation, list(scn.sensors)))
    assert error is None
    return lower


class TestMedianPower:
    def test_reference_intercept(self, table_scenario):
        scn = table_scenario  # emitter (-100, 0); (-99, 0) is 1 m away
        assert median_power(scn, Point(-99.0, 0.0)) == pytest.approx(15.3, abs=1e-12)

    def test_hundred_meters(self, table_scenario):
        # sensor 0 at the origin is exactly 100 m from the emitter
        got = median_power(table_scenario, table_scenario.sensors[0])
        assert got == pytest.approx(15.3 + 37.6 * 2.0, abs=1e-9)

    def test_simple_constants(self):
        model = CorrelationModel("exponential", sigma=1.0, xc=10.0)
        scn = build_square_scenario(40.0, Point(-10.0, 0.0), 0.0, 2.0, model)
        assert median_power(scn, Point(0.0, 0.0)) == pytest.approx(20.0, abs=1e-12)

    def test_zero_distance_rejected(self, table_scenario):
        with pytest.raises(ValueError, match="zero emitter distance"):
            median_power(table_scenario, table_scenario.emitter)


class TestSampleShadow:
    def test_deterministic_for_fixed_seed(self, table_scenario):
        a_s0, a_s = sample_shadow(table_scenario, Point(320, 320), 99, point_index=4, realization_index=17)
        b_s0, b_s = sample_shadow(table_scenario, Point(320, 320), 99, point_index=4, realization_index=17)
        assert a_s0 == b_s0
        assert np.array_equal(a_s, b_s)

    def test_vanishing_sigma(self):
        model = CorrelationModel("exponential", sigma=1e-9, xc=640.0)
        scn = build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, model)
        s0, s = sample_shadow(scn, Point(320, 320), 1)
        assert abs(s0) < 1e-7
        assert np.all(np.abs(s) < 1e-7)

    def test_single_draw_matches_block_row(self, table_scenario):
        lower = joint_cholesky(table_scenario, Point(100, 200))
        s0_block, s_block = correlate_normals(lower, standard_normal_block(5, 3, n_variates=5, realizations=20))
        for r in (0, 7, 19):
            s0, s = sample_shadow(table_scenario, Point(100, 200), 5, point_index=3, realization_index=r)
            assert s0 == s0_block[r]
            assert np.array_equal(s, s_block[r])

    @pytest.mark.parametrize("realizations", [2, 7])
    def test_single_draw_matches_every_row_of_a_small_block(self, table_scenario, realizations):
        # one realization is the first column of a two-column product, with a block's bits, the last row's too
        lower = joint_cholesky(table_scenario, Point(100, 200))
        s0_block, s_block = correlate_normals(lower, standard_normal_block(5, 3, 5, realizations))
        for r in range(realizations):
            s0, s = sample_shadow(table_scenario, Point(100, 200), 5, point_index=3, realization_index=r)
            assert s0 == s0_block[r]
            assert np.array_equal(s, s_block[r])

    def test_last_realization_index_draws(self, table_scenario):
        # realization 2^64 - 1 is the last row of a block that starts one realization before it
        lower = joint_cholesky(table_scenario, Point(100, 200))
        s0_block, s_block = correlate_normals(lower, standard_normal_block(5, 3, 5, 2, first_realization=2**64 - 2))
        s0, s = sample_shadow(table_scenario, Point(100, 200), 5, point_index=3, realization_index=2**64 - 1)
        assert np.isfinite(s0) and np.isfinite(s).all()
        assert s0 == s0_block[1]
        assert np.array_equal(s, s_block[1])

    @pytest.mark.parametrize(
        "seeds, named",
        [
            ((-1, 0, 0), "master_seed"),
            ((2**64, 0, 0), "master_seed"),
            ((0, 2**64, 0), "point_index"),
            ((0, 0, -1), "realization_index"),
            ((0, 0, 2**64), "realization_index"),
        ],
        ids=["seed-negative", "seed-2**64", "point-2**64", "realization-negative", "realization-2**64"],
    )
    def test_rejects_out_of_range_integers(self, table_scenario, seeds, named):
        with pytest.raises(ValueError, match=f"{named} must fit in an unsigned 64-bit integer"):
            sample_shadow(table_scenario, Point(320, 320), *seeds)

    def test_sample_covariance_matches_model(self, table_scenario, table_model):
        p0 = Point(320, 320)
        s0, s = correlate_normals(joint_cholesky(table_scenario, p0), standard_normal_block(21, 0, 5, 100000))
        joint = np.column_stack([s0, s])
        emp = joint.T @ joint / joint.shape[0]
        want = covariance_matrix(table_model, [p0, *table_scenario.sensors])
        assert np.all(np.abs(emp - want) <= 0.05 * np.abs(want))

    def test_empirical_cross_covariance(self, table_scenario, table_model):
        p0 = Point(160, 480)
        s0, s = correlate_normals(joint_cholesky(table_scenario, p0), standard_normal_block(22, 1, 5, 100000))
        emp = s0 @ s / s0.size
        want = cross_covariance(table_model, p0, list(table_scenario.sensors))
        assert np.all(np.abs(emp - want) <= 0.05 * np.abs(want))


class TestNormalStream:
    def test_moments_over_a_million_variates(self):
        z = standard_normal_block(master_seed=7, point_index=0, n_variates=5, realizations=200000)
        flat = z.ravel()
        assert abs(flat.mean()) < 0.01
        assert abs(flat.var() - 1.0) < 0.01

    def test_block_offset_slicing(self):
        # realization r owns the same variates no matter how the block is cut
        whole = standard_normal_block(3, 2, n_variates=5, realizations=10)
        tail = standard_normal_block(3, 2, n_variates=5, realizations=4, first_realization=6)
        assert np.array_equal(whole[6:], tail)

    @pytest.mark.parametrize("n_variates", range(1, 10))
    def test_only_used_words_transformed_bit_for_bit(self, n_variates):
        # transforming all W reserved words and slicing afterwards gives the same bits
        from scipy.special import ndtri

        words = 4 * ((n_variates + 3) // 4)
        bitgen = np.random.Philox(key=np.array([11, 4], dtype=np.uint64))
        bitgen.advance(7 * (words // 4))
        raw = bitgen.random_raw(6 * words)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        want = ndtri(u).reshape(6, words)[:, :n_variates]
        got = standard_normal_block(11, 4, n_variates, realizations=6, first_realization=7)
        assert got.shape == want.shape
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_every_raw_word_gives_a_finite_normal(self):
        # where x >> 11 is 2^53 - 1, ((x >> 11) + 0.5) * 2^-53 rounds to 1, whose ndtri is +inf;
        # those words map to 1 - 2^-53, and every other word keeps the bits of the formula
        from scipy.special import ndtri

        from radiomap.field import _normal_rows

        top = [2**64 - 2**11, 2**64 - 1]
        words = np.array([0, 2**63, 2**64 - 2**12, *top], dtype=np.uint64)
        got = _normal_rows(words[:, None].copy(), 1, np.empty((1, len(words))))[0]
        assert np.isfinite(got).all()
        u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        assert got[:3].tobytes() == ndtri(u[:3]).tobytes()
        assert got[3:].tolist() == [ndtri(1.0 - 2.0**-53)] * 2

    @pytest.mark.parametrize("realizations", [1, 7, 2000])
    @pytest.mark.parametrize("first_realization", [0, 3])
    def test_rows_written_in_place_follow_the_raw_word_formula(self, realizations, first_realization):
        # into a caller's rows and from a reused generator, whatever they held: the contract's bits
        from scipy.special import ndtri

        bitgen = np.random.Philox(key=np.array([11, 4], dtype=np.uint64))
        bitgen.advance(first_realization * 2)
        raw = bitgen.random_raw(realizations * 8)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        want = np.ascontiguousarray(ndtri(u).reshape(realizations, 8)[:, :5].T)
        used = np.random.Philox(0)
        used.random_raw(5)  # a buffered word and an advanced counter
        out = np.full((5, realizations), np.nan)
        for kwargs in ({}, {"out": out}, {"out": out, "bitgen": used}, {"bitgen": used}):
            got = standard_normal_block(11, 4, 5, realizations, first_realization, **kwargs)
            assert got.T.tobytes() == want.tobytes()
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("realizations", [2000, 10000])
    def test_draw_into_rows_allocates_only_its_words(self, realizations):
        # the words' cast to doubles runs without numpy's 64 KB ufunc buffer: a draw into a
        # caller's rows from a reused generator peaks at its (R, 8) Philox words and under 4 KB more
        import tracemalloc

        out, bitgen = np.empty((5, realizations)), np.random.Philox(0)
        standard_normal_block(3, 1, 5, realizations, out=out, bitgen=bitgen)  # imports scipy outside the trace
        tracemalloc.start()
        try:
            standard_normal_block(3, 2, 5, realizations, out=out, bitgen=bitgen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * realizations + 2**12

    def test_streams_read_no_os_entropy(self, monkeypatch):
        # Philox(key=...) would seed itself from the OS before the key overrides it
        import random

        want = standard_normal_block(5, 9, n_variates=5, realizations=30, first_realization=4)

        def no_entropy(n):
            raise AssertionError("read OS entropy")

        monkeypatch.setattr(random, "_urandom", no_entropy)
        got = standard_normal_block(5, 9, n_variates=5, realizations=30, first_realization=4)
        assert got.tobytes() == want.tobytes()

    def test_block_is_sensor_major(self):
        # one contiguous row per variate, each over all realizations
        z = standard_normal_block(3, 0, n_variates=5, realizations=40)
        assert z.shape == (40, 5)
        assert z.T.flags["C_CONTIGUOUS"]

    def test_streams_differ_by_point_index(self):
        a = standard_normal_block(3, 0, n_variates=5, realizations=4)
        b = standard_normal_block(3, 1, n_variates=5, realizations=4)
        assert not np.array_equal(a, b)


def halves(x):
    """(hi, lo) with hi + lo exactly x, each of at most 26 significant bits (Veltkamp's split)."""
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def two_product(a, b):
    """(p, e) with p the rounded a * b and p + e exactly a * b (Dekker's product)."""
    (a_hi, a_lo), (b_hi, b_lo), p = halves(a), halves(b), a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


# The factors of TestCorrelateRows: (kind, ratio, query point) of a sigma-5 model on the reference square.
FACTORS = [
    ("exponential", 1.0, Point(205.0, 445.0)),
    ("elliptical", 0.5, Point(30.0, 600.0)),
    # correlations between far points underflow to exact zeros below the diagonal
    ("gaussian", 60.0, Point(3.0, 4.0)),
]


class TestCorrelateRows:
    @staticmethod
    def factor(kind, ratio, p0):
        model = CorrelationModel(kind, sigma=5.0, xc=640.0 / ratio, axis_ratio=3.3, rotation=0.5)
        lower = joint_cholesky(build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, model), p0)
        if kind == "gaussian":
            assert lower[1, 0] != 0.0 and np.count_nonzero(np.tril(lower, -1) == 0.0) > 0
        return lower

    @pytest.mark.parametrize("layout", ["sensor-major", "realization-major"])
    @pytest.mark.parametrize("kind, ratio, p0", FACTORS)
    def test_realization_rows_match_the_full_block_bit_for_bit(self, kind, ratio, p0, layout):
        # a window of realizations, drawn in either layout, gives each realization the bits it has in the block
        lower, R = self.factor(kind, ratio, p0), 4096
        z = standard_normal_block(21, 5, 5, R)
        want = _correlate_rows(z, lower)
        assert want.T.flags["C_CONTIGUOUS"]
        for width in (1, 2, 7, 2000):
            for first in sorted({0, 1, 999, R - width} & set(range(R - width + 1))):
                window = z[first : first + width]
                if layout == "realization-major":
                    window = np.ascontiguousarray(window)
                got = _correlate_rows(window, lower)
                assert got.tobytes() == want[first : first + width].tobytes(), (width, first)
                # the same bits written into a caller's block, whatever it held
                s0, s = correlate_normals(lower, window, out=np.full((5, width), np.nan))
                assert s0.tobytes() == got[:, 0].tobytes() and s.tobytes() == got[:, 1:].tobytes()

    @pytest.mark.parametrize("kind, ratio, p0", FACTORS)
    def test_entries_lie_within_the_error_bound_of_the_exact_sums(self, kind, ratio, p0):
        # each entry is within 8 eps sum_k |L_jk z_k| of the correctly rounded sum of the exact products
        lower = self.factor(kind, ratio, p0)
        z = standard_normal_block(21, 5, 5, 300)
        got = _correlate_rows(z, lower)
        for r, j in np.ndindex(got.shape):
            products = [two_product(a, b) for a, b in zip(lower[j].tolist(), z[r].tolist())]
            exact = math.fsum(part for product in products for part in product)
            bound = 8 * np.finfo(float).eps * math.fsum(abs(p) for p, _ in products)
            assert abs(got[r, j] - exact) <= bound, (r, j)

    @pytest.mark.parametrize("realizations", [1, 7, 2000])
    def test_stack_of_points_matches_each_point_alone_bit_for_bit(self, realizations):
        # a (P, n+1, n+1) stack of factors over a (P, R, n+1) stack of normals
        model = CorrelationModel("elliptical", sigma=5.0, xc=640.0, axis_ratio=3.3, rotation=0.5)
        scn = build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, model)
        lower = joint_factors_at(scn, make_grid(640.0, 3).xy)
        z = np.stack([standard_normal_block(21, k, 5, realizations) for k in range(len(lower))])
        out = np.full((len(lower), 5, realizations), np.nan)
        s0, s = correlate_normals(lower, z, out=out)
        assert s0.shape == (9, realizations) and s.shape == (9, realizations, 4)
        for k in range(len(lower)):
            want = _correlate_rows(z[k], lower[k])
            assert out[k].tobytes() == np.ascontiguousarray(want.T).tobytes()


class TestJointFactors:
    @pytest.mark.parametrize("ratio", [0.05, 1.0, 20.0])
    @pytest.mark.parametrize("kind", ["exponential", "gaussian", "elliptical"])
    def test_stack_row_matches_one_point_bit_for_bit(self, kind, ratio):
        # one (K, N, 5, 5) stack over a sweep's ratios, as the Monte Carlo set-up builds it:
        # entry (k, i) is joint_cholesky at ratio k and point i
        ratios = (0.05, 1.0, 20.0)
        scns = [
            build_square_scenario(
                640.0, Point(-100.0, 0.0), 15.3, 3.76, CorrelationModel(kind, 5.0, 640.0 / r, 3.3, 0.5)
            )
            for r in ratios
        ]
        models, sensors, xy = [scn.correlation for scn in scns], coordinates(scns[0].sensors), make_grid(640.0, 6).xy
        c_0, c_n = cross_covariance_stack(models, xy, sensors), cross_covariance_stack(models, sensors, sensors)
        stack, error = joint_factors(c_0, c_n)
        assert error is None and stack.shape == (3, 36, 5, 5)
        k = ratios.index(ratio)
        for i, (x, y) in enumerate(xy.tolist()):
            assert stack[k, i].tobytes() == joint_cholesky(scns[k], Point(x, y)).tobytes()

    def test_lowest_failing_point_of_the_sweep_stack_is_its_error(self):
        # a Gaussian kernel at ratio 1e-3 fails at some points of the second model's stack:
        # the error's index counts the points of the flattened (model, point) stack
        models = [CorrelationModel("gaussian", 5.0, 640.0 / r) for r in (1.0, 1e-3)]
        scn = build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, models[1])
        sensors, xy = coordinates(scn.sensors), make_grid(640.0, 4).xy
        c_0, c_n = cross_covariance_stack(models, xy, sensors), cross_covariance_stack(models, sensors, sensors)
        stack, error = joint_factors(c_0, c_n)
        assert stack.shape == (2, 16, 5, 5) and error is not None and error.index >= 16
        point = error.index - 16
        with pytest.raises(NotPositiveDefiniteError, match=f"^{error}$"):
            joint_cholesky(scn, Point(*xy[point].tolist()))
        for i in range(point):
            assert stack[1, i].tobytes() == joint_cholesky(scn, Point(*xy[i].tolist())).tobytes()

    def test_matches_factor_of_the_scalar_covariance(self, table_scenario, table_model):
        p0 = Point(205.0, 445.0)
        lower = joint_cholesky(table_scenario, p0)
        want = covariance_matrix(table_model, [p0, *table_scenario.sensors])
        assert np.allclose(lower @ lower.T, want, rtol=0.0, atol=1e-12 * want.max())
