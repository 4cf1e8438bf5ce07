import errno
import itertools
import math
import os
import signal
import time
import traceback
import warnings
from dataclasses import replace

import numpy as np
import pytest

from radiomap import (
    ALL_METHODS,
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
from radiomap.analysis import SetupRefusal, _error_rows, sweep_setup
from radiomap.geometry import coordinates
from radiomap.estimators import sensor_factor, sm0_weights
from radiomap.field import joint_cholesky
from radiomap.harness import (
    MAX_THREADS,
    WorkerError,
    _grid_evals,
    _mc_block_rmse,
    _mc_rmse,
    _McWorkspace,
    _rms_rows,
    _scaled_rms_rows,
    _spatial_stderr,
    _workspace_shapes,
)
from radiomap.linalg import NotPositiveDefiniteError

from workers import another_thread, append_line, patch_kernel, read_lines


def workspace_doubles(methods, realizations, points):
    """Doubles of a Monte Carlo task's workspace at 4 sensors, by its size function."""
    return sum(math.prod(shape) for shape in _workspace_shapes(4, methods, realizations, points).values())


def record_engine_work(monkeypatch, tmp_path):
    """Record each normal draw and each analytic engine call, in this process and in forked workers, in one file."""
    from radiomap import harness

    log = tmp_path / "engine-work"
    for name in ("standard_normal_block", "grid_analytic_rmse"):

        def recorded(*args, _name=name, _original=getattr(harness, name), **kwargs):
            append_line(log, _name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, recorded)
    return log


@pytest.mark.parametrize("empty", [[], np.empty(0), np.empty((3, 0))], ids=["list", "array", "rows"])
def test_spatial_average_of_no_values_names_the_cause(empty):
    with pytest.raises(ValueError, match="per-point values, got an empty array"):
        spatial_average(empty)


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
        # 1e-6 dB is above the Monte Carlo sigma limit there, 1e-9 of medians up to 127.7 dB
        model = CorrelationModel("exponential", sigma=1e-6, xc=640.0)
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
            ({"realizations": 0, "sigma_db": 1e-150}, "realizations"),  # the set-up would refuse as lost sigma
        ],
    )
    def test_integers_checked_before_any_draw(self, monkeypatch, table_scenario, kwargs, field):
        # before the set-up, too: a scenario that the set-up refuses still names the argument
        from radiomap import harness

        def no_draw(*args):
            raise AssertionError("drew normals")

        monkeypatch.setattr(harness, "standard_normal_block", no_draw)
        call = {"realizations": 10, "master_seed": 1, "point_index": 0, **kwargs}
        scn = ExperimentConfig(sigma_db=call.pop("sigma_db")).scenario(1.0) if "sigma_db" in call else table_scenario
        with pytest.raises(ValueError, match=f"^{field} must"):
            point_rmse_mc(scn, Point(99.0, 99.0), "sm0", **call)

    def test_sigma_lost_in_round_off_refused_before_any_draw(self, monkeypatch):
        # shadows of 1e-150 dB vanish against medians up to 127.7 dB: sm0 read 0.0, where sigma 1 reads 0.535
        from radiomap import harness

        p0 = Point(200.0, 300.0)
        scn = ExperimentConfig.desk_preset(sigma_db=1.0).scenario(0.5)
        assert point_rmse_mc(scn, p0, "sm0", 200, master_seed=1) == pytest.approx(0.5347, abs=1e-4)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew normals")

        monkeypatch.setattr(harness, "standard_normal_block", no_draw)
        scn = ExperimentConfig.desk_preset(sigma_db=1e-150).scenario(0.5)
        with pytest.raises(ValueError, match=r"^sigma is too small for Monte Carlo: 1e-150 dB is below 1e-09 "):
            point_rmse_mc(scn, p0, "sm0", 200, master_seed=1)

    @pytest.mark.parametrize("fraction", [1.01, 0.99])
    def test_sigma_limit_is_a_fraction_of_the_largest_median(self, fraction):
        from radiomap import analysis

        p0 = Point(200.0, 300.0)
        scn = ExperimentConfig.desk_preset().scenario(0.5)
        setup = sweep_setup([scn], coordinates([p0]), ("sm0",))
        limit = analysis._SIGMA_FRACTION * max(np.abs(setup.pm0).max(), np.abs(setup.pm).max())
        scn = ExperimentConfig.desk_preset(sigma_db=fraction * limit).scenario(0.5)
        if fraction < 1:
            with pytest.raises(ValueError, match="^sigma is too small for Monte Carlo"):
                point_rmse_mc(scn, p0, "sm0", 200, master_seed=1)
        else:
            assert 0.0 < point_rmse_mc(scn, p0, "sm0", 200, master_seed=1) < limit

    def test_validation_check_refuses_a_sigma_lost_in_round_off(self, monkeypatch):
        from radiomap import harness, validation

        def tiny_sigma(ratio=1.0, kernel="exponential"):
            return ExperimentConfig(kernel=kernel, sigma_db=1e-150).scenario(ratio)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew normals")

        monkeypatch.setattr(validation, "_table_scenario", tiny_sigma)
        monkeypatch.setattr(harness, "standard_normal_block", no_draw)
        with pytest.raises(ValueError, match="^sigma is too small for Monte Carlo: 1e-150 dB"):
            validation.check_analytic_vs_mc(1, realizations=50)

    @pytest.mark.parametrize("entry", ["point_rmse_mc", "check_analytic_vs_mc"])
    def test_failed_joint_factor_refused_before_any_solve(self, monkeypatch, table_scenario, entry):
        # the joint factors are decided before the sm0 weights are solved: a failing one raises its
        # error, and nothing is solved or drawn
        from radiomap import analysis, harness, validation

        error = NotPositiveDefiniteError(2, -1.0, index=0)
        factor = analysis.joint_factors

        def failing(c_0, c_n):
            return factor(c_0, c_n)[0], error

        def no_work(*args, **kwargs):
            raise AssertionError("solved or drew")

        monkeypatch.setattr(analysis, "joint_factors", failing)
        monkeypatch.setattr(analysis, "sm0_weight_rows", no_work)
        monkeypatch.setattr(harness, "standard_normal_block", no_work)
        with pytest.raises(SetupRefusal) as exc:
            if entry == "point_rmse_mc":
                point_rmse_mc(table_scenario, Point(99.0, 99.0), "sm0", 50, master_seed=1)
            else:
                validation.check_analytic_vs_mc(1, realizations=50)
        assert exc.value.row == "first-ratio factor" and str(exc.value) == str(error) and exc.value.__cause__ is error


class TestOnePointRefusals:
    """The one-point entries are refused by the set-up rows of the refusal table, as a sweep is."""

    P0 = Point(200.0, 300.0)

    @pytest.mark.parametrize("method", ["sm0", "nn"])
    def test_medians_that_lose_the_bias_are_refused(self, method):
        # a_db 1e6 keeps the 37 dB spread of the medians; at 1e9 it is below 1e-7 of them
        assert math.isfinite(point_rmse_mc(ExperimentConfig(a_db=1e6).scenario(1.0), self.P0, method, 200, 1))
        with pytest.raises(ValueError) as exc:
            point_rmse_mc(ExperimentConfig(a_db=1e9).scenario(1.0), self.P0, method, 200, 1)
        assert str(exc.value) == (
            "field 'a_db' sets median powers of up to 1e+09 dB; spread 37.2429 dB and sigma_db under 1e-07 of it "
            "lose the bias to round-off"
        )

    @pytest.mark.parametrize("method", ["sm0", "nn"])
    def test_sigma_squared_underflow_is_named(self, monkeypatch, method):
        # sigma 1e-150 keeps its Monte Carlo message; at 1e-162 sigma^2 is 0, which fails every factor at pivot 0
        from radiomap import harness

        def no_draw(*args, **kwargs):
            raise AssertionError("drew normals")

        monkeypatch.setattr(harness, "standard_normal_block", no_draw)
        with pytest.raises(ValueError, match="^sigma is too small for Monte Carlo: 1e-150 dB is below 1e-09 "):
            point_rmse_mc(ExperimentConfig(sigma_db=1e-150).scenario(1.0), self.P0, method, 200, 1)
        with pytest.raises(ValueError) as exc:
            point_rmse_mc(ExperimentConfig(sigma_db=1e-162).scenario(1.0), self.P0, method, 200, 1)
        assert str(exc.value) == "sigma^2 underflows a double at sigma = 1e-162 dB"

    @pytest.mark.parametrize("a_db, spread", [(1e9, "37.2429"), (1e20, "0")])
    def test_error_form_refuses_medians_that_lose_the_bias(self, a_db, spread):
        # the closed form's one-point entry is refused by the same rows: a_db 1e6 keeps the medians' spread, 1e9 and
        # 1e20 lose it
        assert math.isfinite(error_form("nn", ExperimentConfig(a_db=1e6).scenario(1.0), self.P0).bias)
        with pytest.raises(ValueError) as exc:
            error_form("nn", ExperimentConfig(a_db=a_db).scenario(1.0), self.P0)
        assert str(exc.value) == (
            f"field 'a_db' sets median powers of up to {a_db:.6g} dB; spread {spread} dB and sigma_db under 1e-07 of "
            "it lose the bias to round-off"
        )

    def test_error_form_takes_no_monte_carlo_sigma_limit(self):
        # nothing is drawn, so sigma 1e-150 runs; below it sigma^2 is subnormal (1e-160) or 0 (1e-162, failing the
        # factor at pivot 0): a method that takes the solve is refused, and nn's form, all bias, stands
        form = error_form("sm0", ExperimentConfig(sigma_db=1e-150).scenario(1.0), self.P0)
        assert form.bias == 0.0 and np.isfinite(form.coeffs).all()
        for sigma in (1e-160, 1e-162):
            with pytest.raises(ValueError) as exc:
                error_form("sm0", ExperimentConfig(sigma_db=sigma).scenario(1.0), self.P0)
            assert type(exc.value) is SetupRefusal and exc.value.row == "sigma^2 underflow"
            assert str(exc.value) == f"sigma^2 underflows a double at sigma = {sigma!r} dB"
        assert error_form("nn", ExperimentConfig(sigma_db=1e-162).scenario(1.0), self.P0).bias > 0.0

    def test_error_form_refuses_medians_past_the_analytic_limit(self, recwarn):
        # gamma 1e306 puts the medians above 2^510 dB, past which nn's squared bias overflows: refused before any warning
        with pytest.raises(ValueError) as exc:
            error_form("nn", ExperimentConfig(gamma=1e306).scenario(1.0), self.P0)
        assert str(exc.value) == (
            "field 'gamma' sets median powers of up to 2.9905e+307 dB, above 2^510 dB, past which the analytic engine's "
            "squared bias may overflow"
        )
        assert len(recwarn) == 0

    def test_validation_check_refuses_medians_past_the_analytic_limit(self, monkeypatch):
        # the check runs both engines, so it is refused where a both-mode sweep is; sigma 1e150 keeps Monte Carlo
        from radiomap import validation

        def huge_medians(ratio=1.0, kernel="exponential"):
            return ExperimentConfig(a_db=1e155, sigma_db=1e150).scenario(ratio)

        monkeypatch.setattr(validation, "_table_scenario", huge_medians)
        with pytest.raises(SetupRefusal) as exc:
            validation.check_analytic_vs_mc(1, realizations=50)
        assert exc.value.row == "median overflow"
        assert str(exc.value) == (
            "field 'a_db' sets median powers of up to 1e+155 dB, above 2^510 dB, past which the analytic engine's "
            "squared bias may overflow"
        )

    def test_validation_check_refuses_medians_that_lose_the_bias(self, monkeypatch):
        from radiomap import validation

        monkeypatch.setattr(validation, "_table_scenario", lambda ratio=1.0: ExperimentConfig(a_db=1e9).scenario(ratio))
        with pytest.raises(ValueError, match="^field 'a_db' sets median powers of up to 1e\\+09 dB; spread "):
            validation.check_analytic_vs_mc(1, realizations=50)


class TestRefusalTable:
    def test_rows_no_config_reaches_refuse_crafted_values(self):
        # ratios ascend, and a covariance only loses definiteness as the ratio falls, so a factor fails first at the
        # first ratio; a finite spatial RMSE keeps its standard error finite
        from radiomap.analysis import _ENGINES, _REFUSALS, _first_refusal
        from radiomap.harness import _refusal

        cfg = ExperimentConfig(resolution=2, ratios=(0.5, 1.0), methods=("nn", "sm1"), mode="mc")
        later = _REFUSALS["later-ratio factor"][1]
        error = NotPositiveDefiniteError(2, -1.0)
        assert later(error=None, failed=None) is None and later(error=error, failed=0) is None
        assert later(error=error, failed=1) is error

        def engine_refusal(k, se):
            return _first_refusal(_ENGINES, methods=cfg.methods, k=k, spatial={"mc": np.ones((2, 2))}, se=se)

        se = np.full((2, 2), np.finfo(float).max)
        assert engine_refusal(1, se) is None and engine_refusal(1, None) is None
        se[1, 1] = np.inf
        assert engine_refusal(0, se) is None
        row, cause = engine_refusal(1, se)
        assert row == "non-finite standard error" and str(_refusal(cfg, 1, cause)) == (
            "exponential kernel at spacing ratio 1.0 is outside the numeric range: sm1 standard error is not finite"
        )

    def test_no_entry_but_the_table_holds_a_threshold(self):
        # the entries that build a set-up refuse only through _REFUSALS: none compares against a float literal,
        # asks np.finfo or names a fraction of the table's
        import ast
        import inspect

        from radiomap import analysis, harness, validation

        entries = (harness._grid_evals, harness.sweep, harness.grid_rmse, harness._mc_rmse, harness.error_form)
        found = []
        for entry in (*entries, harness.point_rmse_mc, validation.check_analytic_vs_mc, analysis.sweep_setup):
            for node in ast.walk(ast.parse(inspect.getsource(entry))):
                if isinstance(node, ast.Compare) and any(
                    isinstance(e, ast.Constant) and isinstance(e.value, float) for e in [node.left, *node.comparators]
                ):
                    found.append(f"{entry.__name__}: float literal compared at line {node.lineno}")
                if isinstance(node, ast.Attribute) and node.attr == "finfo":
                    found.append(f"{entry.__name__}: finfo at line {node.lineno}")
                if isinstance(node, ast.Name) and node.id in ("_SIGMA_FRACTION", "_SPREAD_FRACTION"):
                    found.append(f"{entry.__name__}: {node.id} at line {node.lineno}")
        assert found == []


class TestForkedWorkers:
    """Forked Monte Carlo workers give the bytes of a thread pool and of one thread, and none outlives its call."""

    cfg = ExperimentConfig(resolution=3, mode="mc", realizations=30, ratios=(0.5, 2.0), master_seed=21, nu=2)

    def rmse(self, threads):
        """_mc_rmse's (K, M, N) RMSEs of cfg's 9 points, on threads workers."""
        cfg = self.cfg
        scns = [cfg.scenario(r) for r in cfg.ratios]
        setup = sweep_setup(scns, cfg.grid().xy, cfg.methods, cfg.nu, engines=("mc",))
        return _mc_rmse(setup, range(9), cfg.realizations, cfg.master_seed, threads)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_same_bytes_forked_pooled_and_serial(self, monkeypatch):
        forks, fork = [], os.fork

        def counted():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        serial = self.rmse(1).tobytes()
        assert forks == []
        for threads in (2, 3):
            forks.clear()
            assert self.rmse(threads).tobytes() == serial and len(forks) == threads - 1
            with another_thread():
                assert self.rmse(threads).tobytes() == serial
            assert len(forks) == threads - 1  # the pool forks nothing
        self.assert_no_child_left()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failed_fork_runs_its_chunks_here_with_the_same_bytes(self, monkeypatch, failing):
        # the fork after `failing` good ones raises EAGAIN; its chunk and every later one run here
        serial = self.rmse(1).tobytes()
        forks, fork = [], os.fork

        def failing_fork():
            forks.append(None)
            if len(forks) > failing:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        assert self.rmse(3).tobytes() == serial and len(forks) == failing + 1
        self.assert_no_child_left()

    def test_killed_worker_is_named_with_its_points_and_signal(self, monkeypatch):
        patch_kernel(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(WorkerError, match=r"^the Monte Carlo worker for points 4 to 8 of 9 was killed by signal 9 "):
            self.rmse(2)
        self.assert_no_child_left()

    @pytest.mark.parametrize(
        "error, raised, message",
        [(MemoryError, MemoryError, "ran out of memory"), (ZeroDivisionError, WorkerError, "exited with status 1")],
    )
    def test_worker_exception_is_raised_here(self, monkeypatch, error, raised, message):
        def fail():
            raise error

        patch_kernel(monkeypatch, fail)
        with pytest.raises(raised, match=f"^the Monte Carlo worker for points 4 to 8 of 9 {message}$"):
            self.rmse(2)
        self.assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failure_here_kills_every_worker_first(self, monkeypatch, error):
        # the workers would sleep for a minute: only a kill ends them sooner
        def fail():
            raise error

        patch_kernel(monkeypatch, lambda: time.sleep(60), here=fail)
        start = time.monotonic()
        with pytest.raises(error):
            self.rmse(3)
        assert time.monotonic() - start < 30
        self.assert_no_child_left()


class TestMcWorkspace:
    """The per-task workspace of the Monte Carlo kernel and the set-up it reads."""

    @staticmethod
    def setup_for(cfg, xy):
        """The scenarios of cfg's ratios and their set-up, joint factors included, at the rows of xy."""
        scns = [cfg.scenario(r) for r in cfg.ratios]
        return scns, sweep_setup(scns, xy, cfg.methods, cfg.nu, engines=("mc",))

    @pytest.mark.parametrize("kernel", ["exponential", "gaussian", "elliptical"])
    def test_sm0_rows_match_one_point_weights_bit_for_bit(self, kernel):
        # entry (k, i) of the set-up's stacks is the joint factor and the sm0 weights at ratio k and point i
        # alone; the Monte Carlo kernel and the analytic engine read those weights, the latter as sm0's
        # coefficient rows
        cfg = ExperimentConfig(kernel=kernel, rotation_rad=0.5, resolution=5, ratios=(0.05, 0.2, 1.0, 5.0, 20.0))
        xy = cfg.grid().xy
        scns, setup = self.setup_for(cfg, xy)
        joint = setup.joint
        solved = setup.weights["sm0"]
        analytic = _error_rows(setup)["sm0"][1]
        assert joint.shape == (len(scns), len(xy), 5, 5)
        assert solved.shape == analytic.shape == (len(scns), len(xy), 4)
        for k, scn in enumerate(scns):
            sensors = list(scn.sensors)
            for i, (x, y) in enumerate(xy.tolist()):
                want = sm0_weights(scn.correlation, sensors, Point(x, y)).tobytes()
                assert joint[k, i].tobytes() == joint_cholesky(scn, Point(x, y)).tobytes()
                assert solved[k, i].tobytes() == want
                assert analytic[k, i].tobytes() == want

    def test_no_row_leaks_between_points_or_ratios(self):
        # NaN in every row before each block, blocks in reverse order: the same bytes
        cfg = ExperimentConfig(resolution=3, realizations=257, ratios=(0.2, 1.0, 5.0), master_seed=4)
        xy = cfg.grid().xy
        _, setup = self.setup_for(cfg, xy)
        R = cfg.realizations
        blocks = [range(0, 4), range(4, 8), range(8, 9)]
        forward = np.empty((len(cfg.ratios), len(cfg.methods), 9))
        ws = _McWorkspace(4, cfg.methods, R, 4)
        for block in blocks:
            _mc_block_rmse(setup, block, range(9), R, cfg.master_seed, ws, forward)
        got = np.full_like(forward, np.nan)
        ws = _McWorkspace(4, cfg.methods, R, 4)
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
            ws = _McWorkspace(4, setup.methods, R, points)
            out = np.empty((len(setup.joint), len(setup.methods), points))
            _mc_block_rmse(setup, range(points), range(points), R, 5, ws, out)

        run()  # imports scipy outside the trace
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def budget(methods, R, points):
        """Bytes of the workspace by its size function, one draw's R x 8 Philox words (4 sensors) and 8 KB."""
        return 8 * workspace_doubles(methods, R, points) + 8 * R * 8 + 2**13

    def test_memory_budget_of_one_point(self):
        # one point's 9-ratio evaluation, workspace included, peaks within the size function, the draw's Philox
        # words and 8 KB of small arrays: a workspace of 26 rows (5 of normals, 15 for the point's truth,
        # measurement, deviation and refit rows, 6 of errors) and 72 weights. That is within 34 R-length rows
        # and 8 KB (41 rows when every ratio allocated its own temporaries)
        R = 10000
        cfg = ExperimentConfig(realizations=R, mode="mc")
        _, setup = self.setup_for(cfg, cfg.grid().xy[:1])
        assert workspace_doubles(cfg.methods, R, 1) == 26 * R + 6 * 12
        peak = self.peak_bytes(setup, 1, R)
        assert peak <= self.budget(cfg.methods, R, 1) and peak <= 34 * 8 * R + 2**13

    def test_memory_budget_of_a_block(self):
        # a block of 8 points at R = 2,000, the most that 2^14 doubles per row hold, peaks within the size
        # function, one draw's Philox words and 8 KB of small arrays. The bound holds for the first block of
        # the whole 4,096-point grid too: the kernel writes the weights of one block at a time.
        from radiomap import harness

        R = 2000
        points = harness._BLOCK_DOUBLES // R
        assert points == 8
        for methods, rows, weights in [
            (ALL_METHODS, 5 + 15 + 6, 6 * 12),
            (("sm1", "sm2", "nn", "idw", "nat"), 5 + 11 + 5, 5 * 8),
            (("nat",), 5 + 5 + 2, 2 * 4),  # as grid-both runs: a lone method's row runs twice
        ]:
            cfg = ExperimentConfig(realizations=R, mode="mc", methods=methods)
            assert workspace_doubles(methods, R, points) == points * (rows * R + weights)
            for xy in (cfg.grid().xy[:points], cfg.grid().xy):
                _, setup = self.setup_for(cfg, xy)
                assert self.peak_bytes(setup, points, R) <= self.budget(methods, R, points), (methods, len(xy))


def _family_method_sets() -> list[tuple[str, ...]]:
    """Every non-empty subset of each applied-to family of the method table, then sets that mix families."""
    from radiomap.estimators import _ESTIMATORS

    families: dict[str, list[str]] = {}
    for method, (_, applied_to) in _ESTIMATORS.items():
        families.setdefault(applied_to, []).append(method)
    subsets = [
        subset
        for members in families.values()
        for size in range(1, len(members) + 1)
        for subset in itertools.combinations(members, size)
    ]
    return subsets + [("sm0", "nat"), ("nat", "sm1"), ("idw", "sm0", "sm2"), ("nat", "nn", "sm2", "sm0", "sm1")]


class TestFamilyProducts:
    """Every method is predicted by one product per block and ratio, and a method's bits do not depend on which other
    methods run, from each applied-to family or several: a gemm row's bits do not depend on the zero weights it meets
    on the other families' rows, and a lone method runs as a two-row product, with the bits of a gemm row."""

    cfg = ExperimentConfig(resolution=3, ratios=(0.2, 5.0), master_seed=17, nu=2)

    def rmse(self, methods, realizations, threads):
        """_mc_rmse's (K, M, N) RMSEs of methods at cfg's 9 points."""
        cfg = replace(self.cfg, methods=methods)
        scns = [cfg.scenario(r) for r in cfg.ratios]
        setup = sweep_setup(scns, cfg.grid().xy, methods, cfg.nu, engines=("mc",))
        return _mc_rmse(setup, range(9), realizations, cfg.master_seed, threads)

    @pytest.mark.parametrize("realizations", [1, 2, 7, 2000])
    def test_a_methods_bytes_do_not_depend_on_the_method_set(self, realizations):
        full = self.rmse(ALL_METHODS, realizations, 1)
        assert np.isfinite(full).all()
        for threads in (1, 2):
            assert self.rmse(ALL_METHODS, realizations, threads).tobytes() == full.tobytes()
            for methods in _family_method_sets():
                got = self.rmse(methods, realizations, threads)
                for j, m in enumerate(methods):
                    assert got[:, j].tobytes() == full[:, ALL_METHODS.index(m)].tobytes(), (methods, m, threads)

    def test_one_product_per_block_and_ratio(self, monkeypatch):
        # R = 7 runs the 9 points as one block: every method gives 6 rows of weights against 4 measurement,
        # 4 deviation and 4 residual rows at each point; nat alone gives its row twice against 4 measurement rows
        from radiomap import harness

        shapes = []

        class Recorded:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b, out):
                shapes.append(a.shape)
                return np.matmul(a, b, out=out)

        monkeypatch.setattr(harness, "np", Recorded())
        self.rmse(ALL_METHODS, 7, 1)
        assert shapes == [(9, 6, 12)] * 2
        shapes.clear()
        self.rmse(("nat",), 7, 1)
        assert shapes == [(9, 2, 4)] * 2


class TestTwoPassRms:
    """The kernel's RMS squares and means each error row in place, and takes the scaled formula for a block with a
    row whose mean square lies outside _PLAIN_MEAN_SQUARES: the same bytes as the scaled formula everywhere."""

    @staticmethod
    def run(monkeypatch, tmp_path, cfg, threads, plain=True):
        """_grid_evals' bytes, and how many times any process took the scaled formula; with plain False, every row
        takes it."""
        from radiomap import harness

        log = tmp_path / "scaled"
        log.unlink(missing_ok=True)

        def recorded(*args, **kwargs):
            append_line(log, len(args[0]))
            return _scaled_rms_rows(*args, **kwargs)

        monkeypatch.setattr(harness, "_scaled_rms_rows", recorded)
        monkeypatch.setattr(harness, "_PLAIN_MEAN_SQUARES", harness._PLAIN_MEAN_SQUARES if plain else (1.0, 0.0))
        _, engines, spatial, stderr = _grid_evals(cfg, threads)
        return engines["mc"].tobytes() + spatial["mc"].tobytes() + stderr.tobytes(), len(read_lines(log))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_empty_plain_range_gives_the_same_bytes(self, monkeypatch, tmp_path, threads):
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=300, ratios=(0.2, 1.0, 5.0), master_seed=9, nu=2)
        default, default_scaled = self.run(monkeypatch, tmp_path, cfg, threads)
        forced, forced_scaled = self.run(monkeypatch, tmp_path, cfg, threads, plain=False)
        assert forced == default
        # the 16 points run as one block per worker, at 3 ratios, then the spatial rows
        assert default_scaled == 0 and forced_scaled == threads * 3 + 1

    @pytest.mark.parametrize("threads", [1, 2])
    def test_huge_sigma_recomputes_its_errors_for_the_scaled_formula(self, monkeypatch, tmp_path, threads):
        # mean squares near 1e299, past the plain range: every block recomputes its errors
        cfg = ExperimentConfig(
            resolution=4, mode="mc", realizations=300, ratios=(0.2, 5.0), master_seed=9, sigma_db=1e150
        )
        default, default_scaled = self.run(monkeypatch, tmp_path, cfg, threads)
        forced, _ = self.run(monkeypatch, tmp_path, cfg, threads, plain=False)
        assert forced == default and default_scaled == threads * 2 + 1
        spatial = _grid_evals(cfg, threads)[2]["mc"]
        assert np.isfinite(spatial).all() and 1e149 < spatial.min() and spatial.max() < 1e151


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
        one = _grid_evals(replace(cfg, ratios=(1.0,)), threads=1)
        four = _grid_evals(replace(cfg, ratios=(1.0,)), threads=4)
        assert one[1]["mc"].shape == (1, 2, 36)
        assert np.array_equal(one[1]["mc"], four[1]["mc"])

    def test_block_size_is_invisible(self, monkeypatch, tmp_path):
        # blocks of 1, 3 and the default number of points, on 1 and 2 workers, give the same bytes;
        # 25 points are no multiple of 3. The block sizes are recorded in a file, which the forked
        # worker appends to as well.
        from radiomap import harness

        cfg = ExperimentConfig(resolution=5, mode="mc", realizations=40, ratios=(0.2, 1.0, 5.0), master_seed=6, nu=2)
        kernel, log = harness._mc_block_rmse, tmp_path / "sizes"

        def recorded(setup, block, *args):
            append_line(log, len(block))
            return kernel(setup, block, *args)

        monkeypatch.setattr(harness, "_mc_block_rmse", recorded)
        results = set()
        for budget in (40, 120, harness._BLOCK_DOUBLES):  # R = 40: 1, 3 and 409 points per block
            monkeypatch.setattr(harness, "_BLOCK_DOUBLES", budget)
            for threads in (1, 2):
                log.unlink(missing_ok=True)
                _, engines, spatial, stderr = _grid_evals(cfg, threads)
                sizes = [int(size) for size in read_lines(log)]
                # chunks of 25 points, or of 12 and 13
                assert max(sizes) == min(budget // 40, -(-25 // threads)) and sum(sizes) == 25
                results.add(engines["mc"].tobytes() + spatial["mc"].tobytes() + stderr.tobytes())
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

    def test_pool_has_no_more_workers_than_points(self, monkeypatch, tmp_path):
        # forked, 4 processes run the 4 points, this one among them; while another thread runs,
        # a pool of 4 does
        from radiomap import harness

        sizes, log, kernel = [], tmp_path / "pids", harness._mc_block_rmse

        def recorded(*args):
            append_line(log, os.getpid())
            return kernel(*args)

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
        monkeypatch.setattr(harness, "_mc_block_rmse", recorded)
        cfg = ExperimentConfig(resolution=2, mode="mc", realizations=10, ratios=(1.0,))
        serial = sweep(cfg)
        log.unlink()
        assert sweep(cfg, threads=MAX_THREADS) == serial
        pids = read_lines(log)
        assert len(pids) == len(set(pids)) == 4 and str(os.getpid()) in pids and sizes == []
        with another_thread():
            assert sweep(cfg, threads=MAX_THREADS) == sweep(cfg)
        assert sizes == [4]


# The causes that refuse a run, in the order _grid_evals checks them, each as config overrides
# and its message; a factor failure at the last ratio is patched in.
REFUSALS = {
    "sigma^2 underflow": (
        {"sigma_db": 1e-160},
        "{kernel} kernel at spacing ratio {ratio} is outside the numeric range: "
        "sigma^2 underflows a double at sigma = 1e-160 dB",
    ),
    "first-ratio factor": (
        {"kernel": "gaussian", "ratios": (1e-4, 1.0)},
        "gaussian kernel at spacing ratio 0.0001 is outside the numeric range: "
        "matrix is not positive definite: pivot 3 is 7.10543e-15",
    ),
    "lost medians": (
        {"a_db": 1e20},
        "{kernel} kernel at spacing ratio {ratio} is outside the numeric range: field 'a_db' sets median powers "
        "of up to 1e+20 dB; spread 0 dB and sigma_db under 1e-07 of it lose the bias to round-off",
    ),
    "lost sigma": (
        {"sigma_db": 1e-12},
        "field 'sigma_db' is too small for Monte Carlo: 1e-12 dB is below 1e-09 of the largest median power "
        "magnitude, 127.743 dB, so the shadows would be lost to round-off",
    ),
    "last-ratio factor": (
        {},
        "{kernel} kernel at spacing ratio 1.0 is outside the numeric range: "
        "matrix is not positive definite: pivot 2 is -1",
    ),
}


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

    def test_unbiased_methods_scale_with_sigma(self):
        # the medians lie on the log-distance law, so the refit's methods have no bias and their
        # error is sigma times a fixed form: computed, the bias was the medians' round-off, and at
        # sigma 1e-100 dB sm1 read 3.6e86 sigma
        cfg = ExperimentConfig(resolution=4, ratios=(1.0,), methods=("sm0", "sm1", "sm2"))
        scaled = {s: [r.spatial_rmse / s for r in sweep(replace(cfg, sigma_db=s))] for s in (5.0, 1e-100)}
        assert scaled[1e-100] == pytest.approx(scaled[5.0], rel=1e-12, abs=0)

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
    def test_normals_drawn_once_per_point(self, monkeypatch, tmp_path, threads):
        # every process's draws are recorded in one file
        from radiomap import harness

        log = tmp_path / "draws"
        original = harness.standard_normal_block

        def counted(*args, **kwargs):
            append_line(log, args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "standard_normal_block", counted)
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=100, ratios=(0.5, 1.0, 2.0))
        sweep(cfg, threads=threads)
        calls = [int(i) for i in read_lines(log)]
        assert sorted(calls) == list(range(len(cfg.grid().xy))) == list(range(16))

    def test_mc_surfaces_match_one_point_entry(self):
        # every point of the point-major sweep equals its own point_rmse_mc call, bit for bit
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=300, master_seed=8, ratios=(0.2, 1.0, 5.0), nu=2)
        points = [Point(x, y) for x, y in cfg.grid().xy.tolist()]
        rmse = _grid_evals(cfg, threads=2)[1]["mc"]
        for ratio, at_ratio in zip(cfg.ratios, rmse):
            scn = cfg.scenario(ratio)
            for m, got in zip(cfg.methods, at_ratio):
                want = [
                    point_rmse_mc(scn, p, m, cfg.realizations, cfg.master_seed, i, cfg.nu)
                    for i, p in enumerate(points)
                ]
                assert got.tolist() == want

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
    def test_covariances_built_once_per_sweep(self, monkeypatch, mode, threads):
        # two kernel passes (every Cn, every C0), one stacked Cholesky of every Cn and one solve of
        # every ratio's weights at every point serve both engines; the Monte Carlo route adds one
        # stack of every ratio's joint factors and nothing else
        import sys

        from radiomap import linalg
        from radiomap.correlation import cross_covariance_stack as kernel
        from radiomap.estimators import sm0_weight_rows as solve

        factor = linalg.cholesky_stack
        kernel_calls, shapes, solves = [], [], []

        def counted_kernel(models, a, b):
            kernel_calls.append(len(models))
            return kernel(models, a, b)

        def counted_factor(m):
            shapes.append(np.shape(m))
            return factor(m)

        def counted_solve(lower, c_0):
            solves.append((np.shape(lower), np.shape(c_0)))
            return solve(lower, c_0)

        for name, module in list(sys.modules.items()):  # every binding, the defining modules' own included
            if not name.startswith("radiomap."):
                continue
            if getattr(module, "cross_covariance_stack", None) is kernel:
                monkeypatch.setattr(module, "cross_covariance_stack", counted_kernel)
            if getattr(module, "cholesky_stack", None) is factor:
                monkeypatch.setattr(module, "cholesky_stack", counted_factor)
            if getattr(module, "sm0_weight_rows", None) is solve:
                monkeypatch.setattr(module, "sm0_weight_rows", counted_solve)
        cfg = ExperimentConfig(resolution=4, mode=mode, realizations=100, ratios=(0.5, 1.0, 2.0))
        sweep(cfg, threads=threads)
        assert kernel_calls == [3, 3]
        assert solves == [((3, 4, 4), (3, 16, 4))]
        assert shapes.count((3, 4, 4)) == 1
        assert shapes.count((3, 16, 5, 5)) == (0 if mode == "analytic" else 1)
        assert len(shapes) == (1 if mode == "analytic" else 2)

    @pytest.mark.parametrize(
        "entry, engines",
        [
            ("sweep-analytic", {"analytic"}),
            ("sweep-mc", {"mc"}),
            ("sweep-both", {"analytic", "mc"}),
            ("grid_rmse", {"analytic", "mc"}),
            ("point_rmse_mc", {"mc"}),
            ("error_form", {"analytic"}),
            ("check_analytic_vs_mc", {"analytic", "mc"}),
        ],
        ids=lambda value: value if isinstance(value, str) else "-".join(sorted(value)),
    )
    def test_each_entry_builds_its_setup_once(self, monkeypatch, entry, engines):
        # one sweep_setup() call per entry, for the engines that run: the joint factors exactly when Monte Carlo does
        import sys

        from radiomap import analysis
        from radiomap.validation import check_analytic_vs_mc

        build, calls = analysis.sweep_setup, []

        def counted(*args, **kwargs):
            setup = build(*args, **kwargs)
            calls.append((set(setup.engines), setup.joint is not None))
            return setup

        for name, module in list(sys.modules.items()):  # every binding, the defining module's own included
            if name.startswith("radiomap.") and getattr(module, "sweep_setup", None) is build:
                monkeypatch.setattr(module, "sweep_setup", counted)
        cfg = ExperimentConfig(resolution=3, realizations=50, ratios=(0.5, 2.0))
        scn, p0 = cfg.scenario(0.5), Point(200.0, 300.0)
        runs = {
            "sweep-analytic": lambda: sweep(cfg),
            "sweep-mc": lambda: sweep(replace(cfg, mode="mc")),
            "sweep-both": lambda: sweep(replace(cfg, mode="both")),
            "grid_rmse": lambda: grid_rmse(replace(cfg, mode="both"), 0.5, "sm1"),
            "point_rmse_mc": lambda: point_rmse_mc(scn, p0, "sm1", 50, master_seed=1),
            "error_form": lambda: error_form("sm1", scn, p0),
            "check_analytic_vs_mc": lambda: check_analytic_vs_mc(1, realizations=50),
        }
        runs[entry]()
        assert calls == [(engines, "mc" in engines)]

    @staticmethod
    def _second_sensor_factor_fails(monkeypatch):
        # the sweep's stacked factor of every Cn reports its second matrix as failing
        from radiomap import analysis
        from radiomap.linalg import NotPositiveDefiniteError

        original = analysis.cholesky_stack

        def second_fails(m):
            lower, _ = original(m)
            return lower, NotPositiveDefiniteError(2, -1.0, index=1)

        monkeypatch.setattr(analysis, "cholesky_stack", second_fails)

    def test_failed_sensor_factor_raises_at_its_ratio(self, monkeypatch, tmp_path):
        # nothing runs, not even the ratio before it, and its error names it
        self._second_sensor_factor_fails(monkeypatch)
        log = record_engine_work(monkeypatch, tmp_path)
        cfg = ExperimentConfig(resolution=2, mode="mc", realizations=50, ratios=(0.5, 1.0, 2.0), methods=("nn", "sm1"))
        with pytest.raises(ConfigError) as exc:
            _grid_evals(cfg, threads=2)
        assert str(exc.value) == (
            "exponential kernel at spacing ratio 1.0 is outside the numeric range: "
            "matrix is not positive definite: pivot 2 is -1"
        )
        assert read_lines(log) == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_sensor_factor_traceback_independent_of_grid_size(self, monkeypatch, threads):
        # every point shares the ratio's one error, a value that is never raised on its own, so
        # no point adds its frame to it
        depths = []
        for resolution in (2, 4):
            self._second_sensor_factor_fails(monkeypatch)
            cfg = ExperimentConfig(resolution=resolution, mode="mc", realizations=20, ratios=(0.5, 1.0), methods=("sm0",))
            with pytest.raises(ConfigError) as exc:
                sweep(cfg, threads=threads)
            assert exc.value.__cause__.__traceback__ is None
            depths.append(len(traceback.extract_tb(exc.value.__traceback__)))
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
    def test_failed_joint_factor_raises_at_its_ratio_naming_its_pivot(self, monkeypatch, tmp_path, threads):
        # sm1 takes the solve, and the joint factors are decided before it: nothing is solved
        from radiomap import analysis

        methods = ("nn", "sm1", "sm2")
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=50, ratios=(0.5, 1.0, 2.0), methods=methods)
        alone = self._point_five_indefinite_at_ratio_one(monkeypatch, cfg)
        log = record_engine_work(monkeypatch, tmp_path)
        solves, solve = [], analysis.sm0_weight_rows
        monkeypatch.setattr(analysis, "sm0_weight_rows", lambda *args: solves.append(1) or solve(*args))
        with pytest.raises(ConfigError) as exc:
            _grid_evals(cfg, threads=threads)
        assert str(exc.value) == f"exponential kernel at spacing ratio 1.0 is outside the numeric range: {alone}"
        assert isinstance(exc.value.__cause__, NotPositiveDefiniteError)
        assert exc.value.__cause__.index == 16 + 5  # point 5 of ratio 1.0 in the set-up's (ratio, point) stack
        assert read_lines(log) == [] and solves == []

    @pytest.mark.parametrize("threads", [1, 2])
    def test_sensor_factor_failure_takes_precedence_over_a_later_joint_factor(self, monkeypatch, tmp_path, threads):
        # at ratio 1.0 the joint factor fails at point 5 and the sensor factor at every point:
        # the sensor factor's error, ratio 1.0's in the stack of every Cn, is the one raised
        cfg = ExperimentConfig(resolution=4, mode="mc", realizations=50, ratios=(0.5, 1.0, 2.0), methods=("nn", "sm1"))
        self._point_five_indefinite_at_ratio_one(monkeypatch, cfg)
        self._second_sensor_factor_fails(monkeypatch)
        log = record_engine_work(monkeypatch, tmp_path)
        with pytest.raises(ConfigError) as exc:
            _grid_evals(cfg, threads=threads)
        assert str(exc.value) == (
            "exponential kernel at spacing ratio 1.0 is outside the numeric range: "
            "matrix is not positive definite: pivot 2 is -1"
        )
        assert exc.value.__cause__.index == 1
        assert read_lines(log) == []

    @pytest.mark.parametrize("failing", [0, 1])
    def test_setup_stops_at_the_first_failing_ratio(self, monkeypatch, failing):
        # one joint_factors call covers every ratio and names the failing one, and the set-up refuses it by its row
        # and its ratio, with its error as the cause, whichever ratio fails: nothing is solved
        from radiomap import analysis

        cfg = ExperimentConfig(resolution=3, mode="mc", realizations=20, ratios=(0.5, 1.0, 2.0), methods=("nn", "sm0"))
        factor, factored, solves = analysis.joint_factors, [], []
        error = NotPositiveDefiniteError(1, -1.0, index=9 * failing + 4)  # point 4 of the failing ratio

        def recorded(c_0, c_n):
            factored.append(c_0.shape)
            return factor(c_0, c_n)[0], error

        monkeypatch.setattr(analysis, "joint_factors", recorded)
        monkeypatch.setattr(analysis, "sm0_weight_rows", lambda *args: solves.append(1))
        with pytest.raises(SetupRefusal) as exc:
            sweep_setup([cfg.scenario(r) for r in cfg.ratios], cfg.grid().xy, cfg.methods, engines=("mc",))
        assert factored == [(3, 9, 4)] and solves == []
        assert exc.value.row == ("later-ratio factor" if failing else "first-ratio factor")
        assert exc.value.ratio_index == failing and exc.value.__cause__ is error

    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_monte_carlo_sigma_limit_is_a_fraction_of_the_largest_median(self, mode):
        # just above the limit every value is finite and sm0 is above 0; just below, the run is
        # refused before any ratio, and the analytic engine alone still takes it
        from radiomap import analysis

        cfg = ExperimentConfig(resolution=3, ratios=(0.5, 1.0), realizations=50, mode=mode, methods=("sm0", "nn"))
        setup = sweep_setup([cfg.scenario(0.5)], cfg.grid().xy, cfg.methods)
        limit = analysis._SIGMA_FRACTION * max(np.abs(setup.pm0).max(), np.abs(setup.pm).max())
        rows = sweep(replace(cfg, sigma_db=1.01 * limit))
        assert len(rows) == 4 and all(r.spatial_rmse > 0 and math.isfinite(r.mc_stderr) for r in rows)
        with pytest.raises(ConfigError, match="^field 'sigma_db' is too small for Monte Carlo"):
            _grid_evals(replace(cfg, sigma_db=0.99 * limit))
        assert len(sweep(replace(cfg, sigma_db=0.99 * limit, mode="analytic"))) == 4

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
        # the analytic engine runs the whole sweep as one stack: one factor, one solve
        import radiomap
        from radiomap import estimators, linalg

        original, solve = linalg.cholesky_stack, estimators.sm0_weight_rows
        shapes, solves = [], []

        def counted(m):
            shapes.append(np.shape(m))
            return original(m)

        def counted_solve(lower, c_0):
            solves.append(np.shape(c_0))
            return solve(lower, c_0)

        for module in vars(radiomap).values():  # every binding, linalg's and estimators' own included
            if getattr(module, "cholesky_stack", None) is original:
                monkeypatch.setattr(module, "cholesky_stack", counted)
            if getattr(module, "sm0_weight_rows", None) is solve:
                monkeypatch.setattr(module, "sm0_weight_rows", counted_solve)
        cfg = ExperimentConfig(resolution=4)
        sweep(cfg)
        assert shapes == [(len(cfg.ratios), 4, 4)]
        assert solves == [(len(cfg.ratios), 16, 4)]

    @pytest.mark.parametrize("kernel, ratio", [("gaussian", 1e-4)], ids=["cn-not-positive-definite"])
    def test_analytic_failure_raises_at_its_ratio_with_its_own_error(self, monkeypatch, tmp_path, kernel, ratio):
        # the stack fails as a whole: nothing is solved and the engine is not called, not even for
        # ratio 1.0 before it, and the error is the one the failing ratio's sensor covariance gives alone
        from radiomap import analysis

        cfg = ExperimentConfig(kernel=kernel, resolution=4, ratios=(1.0, ratio), methods=("nn", "sm0"))
        scn = cfg.scenario(ratio)
        with pytest.raises(NotPositiveDefiniteError) as alone:
            sensor_factor(scn.correlation, list(scn.sensors))
        log = record_engine_work(monkeypatch, tmp_path)
        monkeypatch.setattr(analysis, "sm0_weight_rows", lambda *args: append_line(log, "sm0_weight_rows"))
        with pytest.raises(ConfigError) as exc:
            _grid_evals(cfg)
        assert str(exc.value) == f"gaussian kernel at spacing ratio {ratio} is outside the numeric range: {alone.value}"
        assert read_lines(log) == []

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "mode, factor", [("analytic", "sensor"), ("mc", "sensor"), ("both", "sensor"), ("mc", "joint"), ("both", "joint")]
    )
    def test_failing_run_does_no_engine_work(self, monkeypatch, tmp_path, mode, factor, threads):
        # the last ratio's sensor or joint factor fails: no normal is drawn and the analytic engine
        # is not called, in this process or a forked worker, and the failing ratio is named
        cfg = ExperimentConfig(resolution=4, mode=mode, realizations=50, ratios=(0.5, 1.0), methods=("nn", "sm1"))
        if factor == "sensor":
            self._second_sensor_factor_fails(monkeypatch)
            cause = "matrix is not positive definite: pivot 2 is -1"
        else:
            cause = self._point_five_indefinite_at_ratio_one(monkeypatch, cfg)
        log = record_engine_work(monkeypatch, tmp_path)
        with pytest.raises(ConfigError) as exc:
            sweep(cfg, threads=threads)
        assert str(exc.value) == f"exponential kernel at spacing ratio 1.0 is outside the numeric range: {cause}"
        assert read_lines(log) == []

    @pytest.mark.parametrize(
        "mode, earlier, later",
        [
            (mode, *pair)
            for mode in ("analytic", "mc", "both")
            for pair in zip(list(REFUSALS), list(REFUSALS)[1:])
            if mode != "analytic" or "lost sigma" not in pair  # analytic mode never loses sigma
        ]
        + [("analytic", "lost medians", "last-ratio factor")],
    )
    def test_a_refused_run_names_the_first_cause_in_order(self, monkeypatch, mode, earlier, later):
        # the later cause alone is named; with the earlier one too, the earlier one is
        base = ExperimentConfig(resolution=3, mode=mode, realizations=20, ratios=(0.5, 1.0), methods=("nn", "sm1"))
        if later == "last-ratio factor":
            self._second_sensor_factor_fails(monkeypatch)
        for causes in ((later,), (earlier, later)):
            cfg = replace(base, **{k: v for c in causes for k, v in REFUSALS[c][0].items()})
            with pytest.raises(ConfigError) as exc:
                sweep(cfg)
            want = REFUSALS[causes[0]][1].format(kernel=cfg.kernel, ratio=cfg.ratios[0])
            assert str(exc.value) == want, causes

    @pytest.mark.parametrize("mode", ["analytic", "mc"])
    def test_gaussian_far_past_its_range_is_the_zero_correlation_limit(self, mode):
        # at ratio 1e200, (d / xc)^2 overflows and exp(-inf) = 0: every correlation is exactly 0,
        # as it is for the exponential kernel, and sm0's error is sigma itself
        evals = {}
        for kernel in ("gaussian", "exponential"):
            cfg = ExperimentConfig(kernel=kernel, resolution=3, ratios=(1e200,), mode=mode, realizations=40)
            _, engines, spatial, _ = _grid_evals(cfg)
            evals[kernel] = engines[mode], spatial[mode]
        for got, want in zip(evals["gaussian"], evals["exponential"]):
            assert got.shape[:2] == (1, len(cfg.methods)) and got.tobytes() == want.tobytes()
        if mode == "analytic":
            assert np.all(evals["gaussian"][0][0, cfg.methods.index("sm0")] == 5.0)
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
            ({"side_m": 1e-100, "ratios": (1.0, 1e300)}, "ratios"),  # side_m / ratio underflows to 0
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
