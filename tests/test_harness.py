import math
import traceback
import warnings

import numpy as np
import pytest

from radiomap import (
    ConfigError,
    CorrelationModel,
    ExperimentConfig,
    Point,
    build_square_scenario,
    covariance_matrix,
    error_form,
    grid_rmse,
    point_rmse_mc,
    rmse_distribution,
    spatial_average,
    sm0_sigma0,
    sweep,
)
from radiomap.analysis import grid_forms, sweep_covariances
from radiomap.estimators import sensor_factor, sm0_weights
from radiomap.field import joint_cholesky
from radiomap.harness import (
    MAX_THREADS,
    _grid_eval,
    _grid_evals,
    _mc_block_rmse,
    _mc_setup,
    _McWorkspace,
    _rms_rows,
    _spatial_stderr,
)
from radiomap.linalg import NotPositiveDefiniteError


def test_spatial_average_hand_computation():
    assert spatial_average(np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5), rel=1e-12)
    # squares near 1e400 overflow a double; the scaled mean does not
    assert spatial_average(np.array([3e200, 4e200])) == pytest.approx(math.sqrt(12.5) * 1e200, rel=1e-12)


def test_rms_rows_match_scaled_rms_bit_for_bit():
    # each row against the scaled RMS written out for one vector
    def scaled_rms(v):
        top = math.ldexp(1.0, math.frexp(float(np.abs(v).max()))[1])
        return math.sqrt(float(np.mean((v / top) ** 2))) * top

    rng = np.random.default_rng(41)
    rows = np.vstack(
        [
            rng.normal(0.0, 3.0, 10000),
            rng.normal(0.0, 1e154, 10000),  # squares overflow a double unscaled
            np.zeros(10000),
            rng.normal(0.0, 3.0, 10000) * 2.0**-600,
            np.full(10000, -1e154),
        ]
    )
    want = [scaled_rms(row) for row in rows]
    assert _rms_rows(rows).tolist() == want
    assert [spatial_average(row) for row in rows] == want


def test_rms_rows_multiply_with_the_bits_of_division():
    # the reciprocal of each row's power of two scales it with the bits that dividing by it gives
    def divided(rows):
        scaled = np.abs(rows)
        top = np.ldexp(1.0, np.minimum(np.frexp(scaled.max(axis=1))[1], 1023))  # 2^1023 at most
        scaled /= top[:, None]
        return np.sqrt(np.mean(np.square(scaled), axis=1)) * top

    rng = np.random.default_rng(43)
    tiny = np.finfo(float).smallest_subnormal
    blocks = [
        rng.normal(0.0, 3.0, (6, 1000)) * np.exp2(rng.integers(-900, 900, (6, 1))),
        np.zeros((2, 1000)),
        rng.uniform(0.0, 1.0, (2, 1000)) * np.finfo(float).smallest_normal,  # subnormal maxima
        np.full((2, 1000), tiny * 3.0),  # rows whose reciprocal overflows
        rng.uniform(0.5, 1.0, (2, 1000)) * np.finfo(float).max,  # near DBL_MAX
    ]
    with np.errstate(all="ignore"):
        for rows in [*blocks, np.vstack(blocks)]:
            assert _rms_rows(rows.copy()).tobytes() == divided(rows).tobytes()


def test_rows_at_or_above_2_to_the_1023_stay_finite():
    # the power of two above such a row is 2^1023, not inf; scaling a row by an exact power of two
    # scales its RMS and standard error exactly
    assert spatial_average(np.array([1e308, 1.0])) == 7.071067811865476e307
    top = np.finfo(float).max
    rows = np.array([[top, top, top], [top, -top / 3.0, 1.0]])
    rms = _rms_rows(rows.copy())
    assert np.isfinite(rms).all() and spatial_average(rows[0]) == rms[0]
    assert rms.tobytes() == (_rms_rows(rows * 2.0**-600) * 2.0**600).tobytes()
    stderr = _spatial_stderr(rows, 1000, rms)
    assert np.isfinite(stderr).all() and (stderr > 0.0).all()
    assert stderr.tobytes() == (_spatial_stderr(rows * 2.0**-600, 1000, rms * 2.0**-600) * 2.0**600).tobytes()


def test_unbuffered_passes_shrink_the_buffer_for_short_rows_and_restore_numpy_state():
    from radiomap.harness import _unbuffered

    before = np.getbufsize(), np.geterr()
    for row_length, inside in ((2000, 16), (before[0], before[0])):
        with _unbuffered(row_length):
            assert np.getbufsize() == inside
        assert (np.getbufsize(), np.geterr()) == before
    with np.errstate(over="raise"), _unbuffered(2000):
        assert np.geterr()["over"] == "raise"


def test_sweep_makes_no_point_per_grid_point(monkeypatch):
    # the grid is a coordinate array end to end: a res-16 sweep makes as many Points as a res-4 one
    counts = []
    original = Point.__post_init__

    def counted(self):
        counts[-1] += 1
        original(self)

    monkeypatch.setattr(Point, "__post_init__", counted)
    for resolution in (4, 16):
        counts.append(0)
        sweep(ExperimentConfig(resolution=resolution, mode="both", realizations=20, ratios=(0.5, 2.0)))
    assert counts[0] == counts[1] < 16 * 16


class TestPointRmseMc:
    def test_vanishing_noise_leaves_bias(self, table_scenario):
        model = CorrelationModel("exponential", sigma=1e-9, xc=640.0)
        scn = build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, model)
        p0 = Point(160.0, 160.0)
        bias = error_form("nn", scn, p0).bias
        got = point_rmse_mc(scn, p0, "nn", 2000, master_seed=3)
        assert got == pytest.approx(abs(bias), abs=1e-6)

    def test_matches_conditional_sd(self, table_scenario, table_model):
        p0 = Point(480.0, 160.0)
        sigma0 = sm0_sigma0(table_model, list(table_scenario.sensors), p0)
        got = point_rmse_mc(table_scenario, p0, "sm0", 100000, master_seed=40)
        assert abs(got - sigma0) <= 3.0 * sigma0 / math.sqrt(2 * 100000)

    def test_deterministic(self, table_scenario):
        a = point_rmse_mc(table_scenario, Point(99.0, 99.0), "sm2", 500, master_seed=5, point_index=9)
        b = point_rmse_mc(table_scenario, Point(99.0, 99.0), "sm2", 500, master_seed=5, point_index=9)
        assert a == b

    def test_matches_scalar_estimator_route(self, table_scenario):
        # the vectorized simulation reproduces scalar predict() calls exactly
        from radiomap import median_power, predict
        from radiomap.field import correlate_normals, standard_normal_block

        p0 = Point(205.0, 445.0)
        R = 200
        s0, s = correlate_normals(joint_cholesky(table_scenario, p0), standard_normal_block(77, 0, 5, R))
        pm = np.array([median_power(table_scenario, q) for q in table_scenario.sensors])
        pm0 = median_power(table_scenario, p0)
        for method in ("sm0", "sm1", "sm2", "nn", "idw", "nat"):
            want = math.sqrt(
                np.mean(
                    [
                        ((pm0 + s0[r]) - predict(method, table_scenario, p0, pm + s[r]).value) ** 2
                        for r in range(R)
                    ]
                )
            )
            got = point_rmse_mc(table_scenario, p0, method, R, master_seed=77, point_index=0)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"master_seed": -1}, "master_seed"),
            ({"master_seed": 2**64}, "master_seed"),
            ({"point_index": 2**64}, "point_index"),
            ({"point_index": -3}, "point_index"),
            ({"realizations": 0}, "realizations"),
            ({"realizations": 2.5}, "realizations"),
            ({"realizations": True}, "realizations"),
        ],
    )
    def test_integers_checked_before_any_draw(self, monkeypatch, table_scenario, kwargs, field):
        from radiomap import harness

        def no_draw(*args):
            raise AssertionError("drew normals")

        monkeypatch.setattr(harness, "standard_normal_block", no_draw)
        call = {"realizations": 10, "master_seed": 1, "point_index": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must"):
            point_rmse_mc(table_scenario, Point(99.0, 99.0), "sm0", **call)


class TestMcWorkspace:
    """The per-task workspace of the Monte Carlo kernel and the set-up it reads."""

    @staticmethod
    def setup_for(cfg, xy):
        scns = [cfg.scenario(r) for r in cfg.ratios]
        forms = grid_forms(scns[0], xy, cfg.methods, cfg.nu)
        return scns, _mc_setup(forms, sweep_covariances(forms, [scn.correlation for scn in scns]))

    @pytest.mark.parametrize("kernel", ["exponential", "gaussian", "elliptical"])
    def test_sm0_rows_match_one_point_weights_bit_for_bit(self, kernel):
        cfg = ExperimentConfig(kernel=kernel, rotation_rad=0.5, resolution=5, ratios=(0.05, 1.0, 20.0))
        xy = cfg.grid().xy
        scns, setup = self.setup_for(cfg, xy)
        for scn, rows in zip(scns, setup.sm0):
            sensors = list(scn.sensors)
            assert rows.shape == (len(xy), len(sensors))
            for row, (x, y) in zip(rows, xy.tolist()):
                assert row.tobytes() == sm0_weights(scn.correlation, sensors, Point(x, y)).tobytes()

    def test_no_row_leaks_between_points_or_ratios(self):
        # NaN in every row before each block, blocks in reverse order: the same bytes
        cfg = ExperimentConfig(resolution=3, realizations=257, ratios=(0.2, 1.0, 5.0), master_seed=4)
        xy = cfg.grid().xy
        _, setup = self.setup_for(cfg, xy)
        R = cfg.realizations
        blocks = [range(0, 4), range(4, 8), range(8, 9)]
        forward = np.empty((len(cfg.ratios), len(cfg.methods), 9))
        ws = _McWorkspace(4, len(cfg.methods), R, 4, fitted=True)
        for block in blocks:
            _mc_block_rmse(setup, block, range(9), R, cfg.master_seed, ws, forward)
        got = np.full_like(forward, np.nan)
        ws = _McWorkspace(4, len(cfg.methods), R, 4, fitted=True)
        for block in reversed(blocks):
            ws.rows.fill(np.nan)
            _mc_block_rmse(setup, block, range(9), R, cfg.master_seed, ws, got)
            at = slice(block.start, block.stop)
            assert got[:, :, at].tobytes() == forward[:, :, at].tobytes()
            assert np.isfinite(got[:, :, at]).all()

    @staticmethod
    def peak_bytes(setup, points, R):
        import tracemalloc

        def run():
            ws = _McWorkspace(4, len(setup.forms.methods), R, points, fitted=setup.forms.fit is not None)
            out = np.empty((len(setup.joint), len(setup.forms.methods), points))
            _mc_block_rmse(setup, range(points), range(points), R, 5, ws, out)

        run()  # imports scipy outside the trace
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_budget_of_one_point(self):
        # one point's 9-ratio evaluation, workspace included, peaks below 39 R-length rows:
        # a workspace of 29 rows (20 for the point, 9 for its refit), then the draw's 8 Philox rows
        # (41 rows when every ratio allocated its own temporaries)
        cfg = ExperimentConfig(realizations=10000, mode="mc")
        _, setup = self.setup_for(cfg, cfg.grid().xy[:1])
        assert self.peak_bytes(setup, 1, cfg.realizations) <= 39 * 8 * cfg.realizations

    def test_memory_budget_of_a_block(self):
        # a block of 8 points at R = 2,000, the most that 2^14 doubles per row hold, peaks below
        # the workspace's 20 rows per point and 9 for one refit at a time, one draw's 8 Philox rows
        # and 8 KB of small arrays
        from radiomap import harness

        cfg = ExperimentConfig(realizations=2000, mode="mc")
        R = cfg.realizations
        points = harness._BLOCK_DOUBLES // R
        assert points == 8
        _, setup = self.setup_for(cfg, cfg.grid().xy[:points])
        assert self.peak_bytes(setup, points, R) <= (20 * points + 9 + 8) * 8 * R + 2**13


class TestGridRmse:
    def test_analytic_mode_ignores_seed(self):
        cfg_a = ExperimentConfig(resolution=4, mode="analytic", master_seed=1)
        cfg_b = ExperimentConfig(resolution=4, mode="analytic", master_seed=999)
        sa = grid_rmse(cfg_a, 1.0, "sm0")
        sb = grid_rmse(cfg_b, 1.0, "sm0")
        assert np.array_equal(sa.rmse, sb.rmse)

    def test_aggregate_identity(self):
        cfg = ExperimentConfig(resolution=8, mode="analytic")
        surf = grid_rmse(cfg, 1.0, "sm2")
        assert surf.spatial_rmse == pytest.approx(spatial_average(surf.rmse), abs=1e-12)

    def test_resolution_stability(self):
        # the spatial aggregate has converged by the coarse desk resolution
        s16 = grid_rmse(ExperimentConfig(resolution=16, mode="analytic"), 1.0, "sm0")
        s64 = grid_rmse(ExperimentConfig(resolution=64, mode="analytic"), 1.0, "sm0")
        assert abs(s16.spatial_rmse - s64.spatial_rmse) <= 0.05

    def test_thread_count_is_invisible(self):
        cfg = ExperimentConfig(resolution=6, mode="mc", realizations=400, master_seed=33, methods=("sm0", "nat"))
        one = _grid_eval(cfg, 1.0, cfg.methods, threads=1)
        four = _grid_eval(cfg, 1.0, cfg.methods, threads=4)
        for m in cfg.methods:
            assert np.array_equal(one[m].rmse, four[m].rmse)

    def test_block_size_is_invisible(self, monkeypatch):
        # blocks of 1, 3 and the default number of points, on 1 and 2 threads, give the same bytes;
        # 25 points are no multiple of 3
        from radiomap import harness

        cfg = ExperimentConfig(resolution=5, mode="mc", realizations=40, ratios=(0.2, 1.0, 5.0), master_seed=6, nu=2)
        kernel, sizes = harness._mc_block_rmse, []

        def recorded(setup, block, *args):
            sizes.append(len(block))
            return kernel(setup, block, *args)

        monkeypatch.setattr(harness, "_mc_block_rmse", recorded)
        results = set()
        for budget in (40, 120, harness._BLOCK_DOUBLES):  # R = 40: 1, 3 and 409 points per block
            monkeypatch.setattr(harness, "_BLOCK_DOUBLES", budget)
            for threads in (1, 2):
                sizes.clear()
                evals = _grid_evals(cfg, cfg.ratios, cfg.methods, threads)
                surfaces = [s for at_ratio in evals for s in at_ratio.values()]
                # chunks of 25 points, or of 12 and 13
                assert max(sizes) == min(budget // 40, -(-25 // threads)) and sum(sizes) == 25
                stats = [np.float64([s.spatial_rmse, s.mc_stderr]) for s in surfaces]
                results.add(b"".join(s.rmse.tobytes() + t.tobytes() for s, t in zip(surfaces, stats)))
        assert len(results) == 1

    def test_both_mode_flags_agreement(self):
        cfg = ExperimentConfig(resolution=4, mode="both", realizations=4000, master_seed=2)
        surf = grid_rmse(cfg, 1.0, "sm0")
        assert surf.rmse_mc is not None and surf.rmse_analytic is not None
        assert np.array_equal(surf.rmse, surf.rmse_mc)
        assert surf.mc_within_3se is not None
        assert surf.mc_within_3se.mean() >= 0.9

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="valid methods"):
            grid_rmse(ExperimentConfig(resolution=4), 1.0, "spline")

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_ratio_rejected(self, ratio):
        with pytest.raises(ConfigError, match="ratio"):
            grid_rmse(ExperimentConfig(resolution=2), ratio, "sm0")

    @pytest.mark.parametrize("threads", [0, -1, MAX_THREADS + 1, 2.5, True])
    def test_bad_thread_count_rejected(self, threads):
        with pytest.raises(ConfigError, match="threads"):
            grid_rmse(ExperimentConfig(resolution=2), 1.0, "sm0", threads=threads)
        with pytest.raises(ConfigError, match="threads"):
            grid_rmse(ExperimentConfig(resolution=2, mode="mc", realizations=10), 1.0, "sm0", threads=threads)
        with pytest.raises(ConfigError, match="threads"):
            sweep(ExperimentConfig(resolution=2, ratios=(1.0,)), threads=threads)

    def test_pool_has_no_more_workers_than_points(self, monkeypatch):
        from radiomap import harness

        sizes = []

        class SerialPool:  # records the pool size and starts no thread
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", SerialPool)
        cfg = ExperimentConfig(resolution=2, mode="mc", realizations=10, ratios=(1.0,))
        assert sweep(cfg, threads=MAX_THREADS) == sweep(cfg)
        assert sizes == [4]


class TestSweep:
    def test_monotone_for_ideal_method(self):
        cfg = ExperimentConfig(resolution=8, mode="analytic", ratios=(0.1, 1.0, 10.0), methods=("sm0",))
        rows = sweep(cfg)
        values = [r.spatial_rmse for r in rows]
        assert len(rows) == 3
        assert values[0] < values[1] < values[2]

    def test_near_perfect_correlation_limit(self):
        cfg = ExperimentConfig(resolution=8, mode="analytic", ratios=(1e-3,), methods=("sm0",))
        rows = sweep(cfg)
        assert rows[0].spatial_rmse < 0.05 * 5.0

    def test_row_order_and_count(self):
        cfg = ExperimentConfig(resolution=4, mode="analytic", ratios=(0.5, 2.0), methods=("sm0", "idw"))
        rows = sweep(cfg)
        assert [(r.ratio, r.method) for r in rows] == [
            (0.5, "sm0"),
            (0.5, "idw"),
            (2.0, "sm0"),
            (2.0, "idw"),
        ]
        assert all(r.mc_stderr is None for r in rows)

    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigError, match="methods"):
            sweep(ExperimentConfig(methods=()))

    def test_unsorted_ratios_rejected(self):
        with pytest.raises(ConfigError, match="ratios"):
            sweep(ExperimentConfig(ratios=(1.0, 0.5)))

    def test_geometry_weights_once_per_sweep(self, monkeypatch):
        # both engines take them from one table, built in one call for every point
        from radiomap import analysis

        calls = []
        original = analysis.geometry_weights

        def counted(method, sensors, xy, nu=1.0):
            calls.append((method, xy))
            return original(method, sensors, xy, nu)

        monkeypatch.setattr(analysis, "geometry_weights", counted)
        for mode in ("analytic", "mc", "both"):
            calls.clear()
            cfg = ExperimentConfig(
                resolution=4, mode=mode, realizations=100, ratios=(0.5, 1.0, 2.0), methods=("nat",)
            )
            sweep(cfg)
            assert [m for m, _ in calls] == ["nat"], mode
            assert np.array_equal(calls[0][1], cfg.grid().xy)
            assert len(calls[0][1]) == 16

    @pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
    def test_inverse_distance_weights_once_per_point(self, monkeypatch, mode):
        # sm2 and idw apply the same weights: one table call covers every point
        from radiomap import analysis

        calls = []
        original = analysis.geometry_weights

        def counted(method, sensors, xy, nu=1.0):
            calls.append((method, xy))
            return original(method, sensors, xy, nu)

        monkeypatch.setattr(analysis, "geometry_weights", counted)
        cfg = ExperimentConfig(
            resolution=4, mode=mode, realizations=100, ratios=(0.5, 1.0, 2.0), methods=("sm2", "idw")
        )
        sweep(cfg)
        assert [m for m, _ in calls] == ["sm2"]
        assert np.array_equal(calls[0][1], cfg.grid().xy)
        assert len(calls[0][1]) == 16

    @pytest.mark.parametrize("threads", [1, 2])
    def test_normals_drawn_once_per_point(self, monkeypatch, threads):
        from radiomap import harness

        calls = []
        original = harness.standard_normal_block

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "standard_normal_block", counted)
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=100, ratios=(0.5, 1.0, 2.0))
        sweep(cfg, threads=threads)
        assert sorted(calls) == list(range(len(cfg.grid().xy))) == list(range(16))

    def test_mc_surfaces_match_one_point_entry(self):
        # every point of the point-major sweep equals its own point_rmse_mc call, bit for bit
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=300, master_seed=8, ratios=(0.2, 1.0, 5.0), nu=2)
        points = [Point(x, y) for x, y in cfg.grid().xy.tolist()]
        for ratio, surfaces in zip(cfg.ratios, _grid_evals(cfg, cfg.ratios, cfg.methods, threads=2)):
            scn = cfg.scenario(ratio)
            for m in cfg.methods:
                want = [
                    point_rmse_mc(scn, p, m, cfg.realizations, cfg.master_seed, i, cfg.nu)
                    for i, p in enumerate(points)
                ]
                assert surfaces[m].rmse_mc.tolist() == want

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
    def test_covariances_built_once_per_sweep(self, monkeypatch, mode, threads):
        # two kernel passes (every Cn, every C0) and one stacked Cholesky of every Cn serve both
        # engines; the Monte Carlo route adds one stack of joint factors per ratio and nothing else
        import sys

        from radiomap import linalg
        from radiomap.correlation import cross_covariance_stack as kernel

        factor = linalg.cholesky
        kernel_calls, shapes = [], []

        def counted_kernel(models, a, b):
            kernel_calls.append(len(models))
            return kernel(models, a, b)

        def counted_factor(m):
            shapes.append(np.shape(m))
            return factor(m)

        for name, module in list(sys.modules.items()):  # every binding, correlation's and linalg's own included
            if not name.startswith("radiomap."):
                continue
            if getattr(module, "cross_covariance_stack", None) is kernel:
                monkeypatch.setattr(module, "cross_covariance_stack", counted_kernel)
            if getattr(module, "cholesky", None) is factor:
                monkeypatch.setattr(module, "cholesky", counted_factor)
        cfg = ExperimentConfig(resolution=4, mode=mode, realizations=100, ratios=(0.5, 1.0, 2.0))
        sweep(cfg, threads=threads)
        assert kernel_calls == [3, 3]
        assert shapes.count((3, 4, 4)) == 1
        assert shapes.count((16, 5, 5)) == (0 if mode == "analytic" else 3)
        assert len(shapes) == (1 if mode == "analytic" else 4)

    @staticmethod
    def _second_sensor_factor_fails(monkeypatch):
        # the sweep's stacked factor of every Cn fails at its second matrix; the ratio
        # before it factors again alone
        from radiomap import analysis
        from radiomap.linalg import NotPositiveDefiniteError

        original = analysis.cholesky

        def second_fails(m):
            if len(m) > 1:
                raise NotPositiveDefiniteError(2, -1.0, index=1)
            return original(m)

        monkeypatch.setattr(analysis, "cholesky", second_fails)

    def test_failed_sensor_factor_raises_at_its_ratio(self, monkeypatch):
        # the ratios before it are yielded, and its error names it
        self._second_sensor_factor_fails(monkeypatch)
        cfg = ExperimentConfig(resolution=2, mode="mc", realizations=50, ratios=(0.5, 1.0, 2.0), methods=("nn", "sm1"))
        evals = _grid_evals(cfg, cfg.ratios, cfg.methods, threads=2)
        assert set(next(evals)) == {"nn", "sm1"}
        with pytest.raises(ConfigError) as exc:
            next(evals)
        assert str(exc.value) == (
            "exponential kernel at spacing ratio 1.0 is outside the numeric range: "
            "matrix is not positive definite: pivot 2 is -1"
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_sensor_factor_traceback_independent_of_grid_size(self, monkeypatch, threads):
        # every point shares the ratio's one error; none may add its frame to it
        depths = []
        for resolution in (2, 4):
            self._second_sensor_factor_fails(monkeypatch)
            cfg = ExperimentConfig(resolution=resolution, mode="mc", realizations=20, ratios=(0.5, 1.0), methods=("sm0",))
            with pytest.raises(ConfigError) as exc:
                sweep(cfg, threads=threads)
            depths.append(len(traceback.extract_tb(exc.value.__cause__.__traceback__)))
        assert depths[0] == depths[1] < 10

    @staticmethod
    def _point_five_indefinite_at_ratio_one(monkeypatch, cfg):
        # scale point 5's cross-covariances at ratio 1.0 (xc = side) so that its joint matrix fails,
        # in the sweep's stacks and at the point alone
        from radiomap import analysis, field

        target = Point(*cfg.grid().xy[5].tolist())
        original = field.cross_covariance_stack

        def patched(models, queries, points):
            c0 = original(models, queries, points)
            for k, model in enumerate(models):
                if model.xc == cfg.side_m:
                    c0[k, np.all(queries == (target.x, target.y), axis=1)] *= 1e3
            return c0

        monkeypatch.setattr(field, "cross_covariance_stack", patched)
        monkeypatch.setattr(analysis, "cross_covariance_stack", patched)
        with pytest.raises(NotPositiveDefiniteError) as alone:
            joint_cholesky(cfg.scenario(1.0), target)
        return alone.value

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_joint_factor_raises_at_its_ratio_naming_its_pivot(self, monkeypatch, threads):
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=50, ratios=(0.5, 1.0, 2.0), methods=("nn", "sm2"))
        alone = self._point_five_indefinite_at_ratio_one(monkeypatch, cfg)
        evals = _grid_evals(cfg, cfg.ratios, cfg.methods, threads=threads)
        assert set(next(evals)) == {"nn", "sm2"}
        with pytest.raises(ConfigError) as exc:
            next(evals)
        assert str(exc.value) == f"exponential kernel at spacing ratio 1.0 is outside the numeric range: {alone}"
        assert isinstance(exc.value.__cause__, NotPositiveDefiniteError)
        assert exc.value.__cause__.index == 5

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sensor_factor_failure_takes_precedence_over_a_later_joint_factor(self, monkeypatch, threads):
        # at ratio 1.0 the joint factor fails at point 5 and the sensor factor at every point:
        # the sensor factor's error, at point 0, is the one raised
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=50, ratios=(0.5, 1.0, 2.0), methods=("nn", "sm1"))
        self._point_five_indefinite_at_ratio_one(monkeypatch, cfg)
        self._second_sensor_factor_fails(monkeypatch)
        evals = _grid_evals(cfg, cfg.ratios, cfg.methods, threads=threads)
        assert set(next(evals)) == {"nn", "sm1"}
        with pytest.raises(ConfigError) as exc:
            next(evals)
        assert str(exc.value) == (
            "exponential kernel at spacing ratio 1.0 is outside the numeric range: "
            "matrix is not positive definite: pivot 2 is -1"
        )
        assert exc.value.__cause__.index == 0

    @pytest.mark.parametrize("failing", [0, 1])
    def test_setup_stops_at_the_first_failing_ratio(self, monkeypatch, failing):
        # joint factors are built for the ratios up to the failing one and no further,
        # and the points run only the ratios before it: none at all when the first fails
        from radiomap import harness

        cfg = ExperimentConfig(resolution=3, mode="mc", realizations=20, ratios=(0.5, 1.0, 2.0), methods=("nn", "sm0"))
        factor, draw = harness.joint_factors, harness.standard_normal_block
        factored, draws = [], []
        error = NotPositiveDefiniteError(1, -1.0, index=4)
        scns = [cfg.scenario(r) for r in cfg.ratios]
        c_ns = [covariance_matrix(scn.correlation, list(scn.sensors)) for scn in scns]

        def recorded(c_0, c_n):
            factored.append(next(r for r, want in zip(cfg.ratios, c_ns) if np.array_equal(c_n, want)))
            if len(factored) == failing + 1:
                raise error
            return factor(c_0, c_n)

        def drawn(master_seed, point_index, *args, **kwargs):
            draws.append(point_index)
            return draw(master_seed, point_index, *args, **kwargs)

        monkeypatch.setattr(harness, "joint_factors", recorded)
        monkeypatch.setattr(harness, "standard_normal_block", drawn)
        forms = grid_forms(scns[0], cfg.grid().xy, cfg.methods)
        cov = sweep_covariances(forms, [scn.correlation for scn in scns])
        rmse, got = harness._mc_rmse(forms, cov, range(9), cfg.realizations, cfg.master_seed, threads=2)
        assert factored == list(cfg.ratios[: failing + 1])
        assert got is error and rmse.shape == (failing, 2, 9)
        assert sorted(draws) == (list(range(9)) if failing else [])

    def test_fit_design_computed_once_per_sweep(self, monkeypatch):
        from radiomap import estimators

        original, calls = estimators.lse_design, []

        def counted(distances):
            calls.append(1)
            return original(distances)

        monkeypatch.setattr(estimators, "lse_design", counted)
        sweep(ExperimentConfig(resolution=2, mode="both", realizations=20, methods=("sm1", "sm2")), threads=2)
        assert len(calls) == 1

    def test_sensor_covariance_factored_only_for_sm0_sm1(self):
        # a Gaussian kernel below ratio ~5e-4 leaves Cn not positive definite;
        # only the correlation-derived weights need its factor
        cfg = ExperimentConfig(kernel="gaussian", ratios=(5e-4,), resolution=2, methods=("nn", "idw", "sm2", "nat"))
        assert all(math.isfinite(r.spatial_rmse) for r in sweep(cfg))
        with pytest.raises(ConfigError, match="gaussian kernel at spacing ratio 0.0005"):
            sweep(ExperimentConfig(kernel="gaussian", ratios=(5e-4,), resolution=2, methods=("nn", "sm1")))

    def test_analytic_sweep_factors_every_sensor_covariance_in_one_call(self, monkeypatch):
        # the analytic engine runs the whole sweep as one stack
        import radiomap
        from radiomap import linalg

        original = linalg.cholesky
        shapes = []

        def counted(m):
            shapes.append(np.shape(m))
            return original(m)

        for module in vars(radiomap).values():  # every binding, linalg's own included
            if getattr(module, "cholesky", None) is original:
                monkeypatch.setattr(module, "cholesky", counted)
        cfg = ExperimentConfig(resolution=4)
        sweep(cfg)
        assert shapes == [(len(cfg.ratios), 4, 4)]

    @pytest.mark.parametrize("kernel, ratio", [("gaussian", 1e-4)], ids=["cn-not-positive-definite"])
    def test_analytic_failure_raises_at_its_ratio_with_its_own_error(self, kernel, ratio):
        # the stack fails as a whole; ratio 1.0 before it is still yielded with the bits it
        # has alone, and the error is the one the failing ratio's sensor covariance gives alone
        cfg = ExperimentConfig(kernel=kernel, resolution=4, ratios=(1.0, ratio), methods=("nn", "sm0"))
        scn = cfg.scenario(ratio)
        with pytest.raises(NotPositiveDefiniteError) as alone:
            sensor_factor(scn.correlation, list(scn.sensors))
        evals = _grid_evals(cfg, cfg.ratios, cfg.methods)
        first = next(evals)
        want = _grid_eval(cfg, 1.0, cfg.methods)
        assert all(first[m].rmse.tobytes() == want[m].rmse.tobytes() for m in cfg.methods)
        with pytest.raises(ConfigError) as exc:
            next(evals)
        assert str(exc.value) == f"gaussian kernel at spacing ratio {ratio} is outside the numeric range: {alone.value}"

    @pytest.mark.parametrize("mode", ["analytic", "mc"])
    def test_gaussian_far_past_its_range_is_the_zero_correlation_limit(self, mode):
        # at ratio 1e200, (d / xc)^2 overflows and exp(-inf) = 0: every correlation is exactly 0,
        # as it is for the exponential kernel, and sm0's error is sigma itself
        surfaces = {}
        for kernel in ("gaussian", "exponential"):
            cfg = ExperimentConfig(kernel=kernel, resolution=3, ratios=(1e200,), mode=mode, realizations=40)
            surfaces[kernel] = _grid_eval(cfg, 1e200, cfg.methods)
        for m, surface in surfaces["gaussian"].items():
            assert surface.rmse.tobytes() == surfaces["exponential"][m].rmse.tobytes(), m
            assert surface.spatial_rmse == surfaces["exponential"][m].spatial_rmse, m
        if mode == "analytic":
            assert np.all(surfaces["gaussian"]["sm0"].rmse == 5.0)
        scn = ExperimentConfig(kernel="gaussian").scenario(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_n = covariance_matrix(scn.correlation, list(scn.sensors))
        assert np.array_equal(c_n, 25.0 * np.eye(4))

    def test_lists_accepted_for_ratios_and_methods(self):
        as_lists = sweep(ExperimentConfig(resolution=2, ratios=[0.5, 2.0], methods=["sm0", "nat"]))
        as_tuples = sweep(ExperimentConfig(resolution=2, ratios=(0.5, 2.0), methods=("sm0", "nat")))
        assert as_lists == as_tuples


def test_desk_preset_settings():
    cfg = ExperimentConfig.desk_preset(methods=("sm0",))
    assert cfg.resolution == 16
    assert cfg.realizations == 2000
    assert cfg.methods == ("sm0",)
    cfg.validate()


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"realizations": 0}, "realizations"),
            ({"ratios": ()}, "ratios"),
            ({"ratios": (0.0, 1.0)}, "ratios"),
            ({"methods": ("sm0", "bogus")}, "methods"),
            ({"mode": "exact"}, "mode"),
            ({"nu": 7}, "nu"),
            ({"sigma_db": -1.0}, "sigma_db"),
            ({"resolution": 0}, "resolution"),
            ({"master_seed": -3}, "master_seed"),
            ({"resolution": True}, "resolution"),
            ({"side_m": True}, "side_m"),
            ({"nu": True}, "nu"),
            ({"ratios": (True, 2.0)}, "ratios"),
            ({"emitter": Point(True, 0.0)}, "emitter"),
            ({"gamma": math.nan}, "gamma"),
            ({"sigma_db": math.inf}, "sigma_db"),
            ({"a_db": -math.inf}, "a_db"),
            ({"a_db": 10**400}, "a_db"),
            ({"ratios": (1.0, math.inf)}, "ratios"),
            ({"axis_ratio": math.nan}, "correlation.axis_ratio"),
            ({"rotation_rad": math.inf}, "correlation.rotation_rad"),
            ({"side_m": 1.5e308}, "side_m"),
            ({"resolution": 3.7}, "resolution"),
            ({"realizations": 10.0}, "realizations"),
            ({"master_seed": 1.9}, "master_seed"),
            ({"axis_ratio": "x"}, "correlation.axis_ratio"),
            ({"ratios": 1.0}, "ratios"),
        ],
    )
    def test_errors_name_the_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**kwargs).validate()


class TestRmseDistribution:
    def _surface(self, values):
        from radiomap.harness import RmseSurface

        v = np.asarray(values, dtype=float)
        return RmseSurface(
            method="sm0",
            mode="analytic",
            ratio=1.0,
            resolution=int(math.isqrt(v.size)),
            xy=np.empty((0, 2)),
            rmse=v,
            spatial_rmse=spatial_average(v),
        )

    def test_constant_surface_single_bin(self):
        dist = rmse_distribution(self._surface(np.full(16, 3.3)), bins=10)
        assert np.count_nonzero(dist.pdf) == 1
        assert set(np.round(dist.cdf, 12)) <= {0.0, 1.0}

    def test_cdf_monotone_ends_at_one(self):
        rng = np.random.default_rng(27)
        dist = rmse_distribution(self._surface(rng.uniform(1, 4, 256)), bins=20)
        assert np.all(np.diff(dist.cdf) >= 0.0)
        assert dist.cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(28)
        dist = rmse_distribution(self._surface(rng.uniform(1, 4, 400)), bins=15)
        width = dist.bin_centers[1] - dist.bin_centers[0]
        assert float(dist.pdf.sum() * width) == pytest.approx(1.0, abs=1e-9)
