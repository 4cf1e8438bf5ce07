import math
from dataclasses import replace

import numpy as np
import pytest

from radiomap import (
    CorrelationModel,
    ExperimentConfig,
    Point,
    analytic_rmse,
    covariance_matrix,
    error_form,
    lse_error_coeffs,
    lse_fit,
    median_power,
    predict,
    sm0_sigma0,
    sm0_weights,
    sweep,
)
from radiomap.analysis import (
    ENGINES,
    AffineErrorForm,
    SetupRefusal,
    grid_analytic_rmse,
    sm1_coefficient_error_form,
    sweep_setup,
)
from radiomap.estimators import DegenerateGeometryError
from radiomap.geometry import coordinates
from radiomap.linalg import NotPositiveDefiniteError
from radiomap.harness import EMITTER_PRESETS, _mc_rmse, _spatial_stderr, point_rmse_mc

from closed_form import closed_form_rmse


class TestLseErrorCoeffs:
    def test_coefficient_sums(self, table_scenario):
        # the slope-error weights sum to zero, and so do the intercept-error
        # weights taken against the shadow-mean level; the fit's own intercept
        # weights (1/n - beta) sum to one
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.uniform(50.0, 2000.0, size=4)
            if np.ptp(np.log10(d)) < 1e-3:
                continue
            co = lse_error_coeffs(d)
            assert abs(co.alpha.sum()) <= 1e-12
            assert abs(co.beta.sum()) <= 1e-12
            assert abs((1.0 / 4.0 - co.beta).sum() - 1.0) <= 1e-12

    def test_zero_shadow_gives_zero_errors(self, table_scenario):
        co = lse_error_coeffs(np.array(table_scenario.sensor_distances()))
        s = np.zeros(4)
        assert float(co.da_coeffs @ s) == 0.0
        assert float(co.dgamma_coeffs @ s) == 0.0

    def test_median_deviation_matches_direct_fit(self, table_scenario):
        # closed-form da/dgamma reproduce the fitted-median deviation at any point
        rng = np.random.default_rng(3)
        d = np.array(table_scenario.sensor_distances())
        co = lse_error_coeffs(d)
        pm = np.array([median_power(table_scenario, s) for s in table_scenario.sensors])
        for _ in range(50):
            s = rng.normal(0.0, 5.0, size=4)
            fit = lse_fit(d, pm + s)
            da = float(co.da_coeffs @ s)
            dg = float(co.dgamma_coeffs @ s)
            a_level = table_scenario.a_db + float(s.mean())
            assert da == pytest.approx(a_level - fit.a_hat, abs=1e-9)
            assert dg == pytest.approx(table_scenario.gamma - fit.gamma_hat, abs=1e-9)
            for d_k in (137.0, 512.0, 901.0):
                delta_true = (a_level + 10.0 * table_scenario.gamma * math.log10(d_k)) - (
                    fit.a_hat + 10.0 * fit.gamma_hat * math.log10(d_k)
                )
                assert da + 10.0 * dg * math.log10(d_k) == pytest.approx(delta_true, abs=1e-9)

    def test_degenerate_distances_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            lse_error_coeffs(np.array([10.0, 10.0, 10.0, 10.0]))


class TestErrorForm:
    def test_sm0_construction(self, table_scenario, table_model):
        p0 = Point(320, 320)
        form = error_form("sm0", table_scenario, p0)
        w = sm0_weights(table_model, list(table_scenario.sensors), p0)
        assert abs(form.bias) <= 1e-9
        assert form.coeffs[0] == 1.0
        assert np.allclose(form.coeffs[1:], -w, atol=1e-12)

    def test_nn_construction(self, table_scenario):
        p0 = Point(30.0, 600.0)  # nearest sensor 1 at (0, 640)
        form = error_form("nn", table_scenario, p0)
        pm0 = median_power(table_scenario, p0)
        pm1 = median_power(table_scenario, table_scenario.sensors[1])
        assert form.bias == pytest.approx(pm0 - pm1, abs=1e-9)
        assert np.allclose(form.coeffs, [1.0, 0.0, -1.0, 0.0, 0.0], atol=1e-12)

    def test_sm1_mechanical_matches_hand_expansion(self, table_scenario):
        p0 = Point(160.0, 160.0)
        mech = error_form("sm1", table_scenario, p0)
        hand = sm1_coefficient_error_form(table_scenario, p0)
        assert abs(mech.bias - hand.bias) <= 1e-9
        assert np.all(np.abs(mech.coeffs - hand.coeffs) <= 1e-9)

    def test_form_reproduces_simulated_error(self, table_scenario):
        # evaluating the error form equals simulating the estimator directly
        from radiomap import predict

        rng = np.random.default_rng(9)
        pm = np.array([median_power(table_scenario, s) for s in table_scenario.sensors])
        p0 = Point(205.0, 445.0)
        pm0 = median_power(table_scenario, p0)
        for method in ("sm0", "sm1", "sm2", "nn", "idw", "nat"):
            form = error_form(method, table_scenario, p0)
            for _ in range(20):
                s0 = float(rng.normal(0, 5))
                s = rng.normal(0, 5, size=4)
                simulated = (pm0 + s0) - predict(method, table_scenario, p0, pm + s).value
                assert form.evaluate(s0, s) == pytest.approx(simulated, abs=1e-9)


class TestAnalyticRmse:
    def test_pure_query_shadow_gives_sigma(self, table_scenario, table_model):
        form = AffineErrorForm(bias=0.0, coeffs=np.array([1.0, 0, 0, 0, 0]))
        got = analytic_rmse(form, table_model, Point(320, 320), list(table_scenario.sensors))
        assert got == pytest.approx(5.0, rel=1e-12)

    def test_pure_bias(self, table_scenario, table_model):
        form = AffineErrorForm(bias=-2.5, coeffs=np.zeros(5))
        got = analytic_rmse(form, table_model, Point(320, 320), list(table_scenario.sensors))
        assert got == 2.5

    def test_form_of_the_wrong_length_rejected(self, table_scenario, table_model):
        form = AffineErrorForm(bias=0.0, coeffs=np.ones(4))  # four sensors need five coefficients
        with pytest.raises(ValueError):
            analytic_rmse(form, table_model, Point(320, 320), list(table_scenario.sensors))

    def test_matches_monte_carlo(self, table_scenario, table_model):
        p0 = Point(160.0, 160.0)
        form = error_form("sm2", table_scenario, p0)
        expected = analytic_rmse(form, table_model, p0, list(table_scenario.sensors))
        got = point_rmse_mc(table_scenario, p0, "sm2", 100000, master_seed=15)
        assert abs(got - expected) <= 3.0 * expected / math.sqrt(2 * 100000)

    def test_matches_monte_carlo_on_random_scenarios(self):
        # covers all three kernels and arbitrary emitter/query geometry
        from radiomap.validation import _random_scenario

        rng = np.random.default_rng(35)
        realizations = 40000
        for k in range(15):
            scn, p0 = _random_scenario(rng)
            for method in ("sm0", "sm2", "nat"):
                expected = analytic_rmse(
                    error_form(method, scn, p0), scn.correlation, p0, list(scn.sensors)
                )
                got = point_rmse_mc(scn, p0, method, realizations, master_seed=35, point_index=k)
                assert abs(got - expected) <= 3.0 * expected / math.sqrt(2 * realizations)


class TestNaiveMonteCarlo:
    # A second simulation route sharing nothing with the harness's sampler:
    # numpy multivariate sampling of the joint shadows [S0, S1..Sn] and
    # batched predict() calls. It checks the analytic sweep values behind
    # the C07 (E2, exponential, ratio 20) and C11 (E1, Gaussian, ratio 1)
    # margins at C04's bound of three standard errors.
    REALIZATIONS = 4000
    SEED = 4242

    @pytest.mark.parametrize(
        "emitter, kernel, ratio, methods",
        [("E2", "exponential", 20.0, ("sm0", "sm2")), ("E1", "gaussian", 1.0, ("sm1", "sm2"))],
        ids=["C07-case", "C11-case"],
    )
    def test_matches_analytic_sweep(self, emitter, kernel, ratio, methods):
        config = ExperimentConfig(
            emitter=EMITTER_PRESETS[emitter],
            kernel=kernel,
            ratios=(ratio,),
            resolution=16,
            methods=methods,
        )
        analytic = {row.method: row.spatial_rmse for row in sweep(config)}
        scn = config.scenario(ratio)
        sensors = list(scn.sensors)
        pm = np.array([median_power(scn, s) for s in sensors])
        rng = np.random.default_rng(self.SEED)
        per_point = {m: [] for m in methods}
        for x, y in config.grid().xy.tolist():
            p0 = Point(x, y)
            cov = covariance_matrix(scn.correlation, [p0, *sensors])
            joint = rng.multivariate_normal(np.zeros(len(sensors) + 1), cov, size=self.REALIZATIONS)
            truth = median_power(scn, p0) + joint[:, 0]
            meas = pm + joint[:, 1:]
            for m in methods:
                err = truth - predict(m, scn, p0, meas).value
                per_point[m].append(math.sqrt(float(np.mean(err**2))))
        for m in methods:
            rmse = np.array(per_point[m])
            spatial = math.sqrt(float(np.mean(rmse**2)))
            se = _spatial_stderr(rmse, self.REALIZATIONS, spatial)
            assert abs(spatial - analytic[m]) <= 3.0 * se, (m, spatial, analytic[m], se)


class TestGridAnalyticRmse:
    """The engine against the numpy closed form of closed_form.py, point by point.

    The model-free parts are gathered once, at ratio 1, and every ratio
    runs in one stack, as a sweep does.
    """

    METHODS = ("sm0", "sm1", "sm2", "nn", "idw", "nat")

    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("emitter", ["E1", "E2", "E3"])
    @pytest.mark.parametrize("kernel", ["exponential", "gaussian", "elliptical"])
    def test_matches_closed_form(self, kernel, emitter, nu):
        config = ExperimentConfig(
            kernel=kernel, emitter=EMITTER_PRESETS[emitter], rotation_rad=0.5, resolution=4, nu=nu
        )
        xy = config.grid().xy
        scns = [config.scenario(ratio) for ratio in (0.05, 1.0, 20.0)]
        got = grid_analytic_rmse(sweep_setup(scns, xy, self.METHODS, nu))
        for k, scn in enumerate(scns):
            want = closed_form_rmse(scn, xy, self.METHODS, nu)
            for j, m in enumerate(self.METHODS):
                assert np.max(np.abs(got[k, j] - want[m])) <= 1e-9, (m, scn.correlation.xc)

    @pytest.mark.parametrize("nu", [1, 2, 3])
    @pytest.mark.parametrize("kernel", ["exponential", "gaussian", "elliptical"])
    def test_stack_rows_equal_one_model_calls(self, kernel, nu):
        # row k of a K-model call has the bits of a call with model k alone, and both match the closed form
        config = ExperimentConfig(kernel=kernel, emitter=EMITTER_PRESETS["E2"], rotation_rad=0.5, resolution=5, nu=nu)
        xy = config.grid().xy
        scns = [config.scenario(ratio) for ratio in (0.05, 0.2, 1.0, 5.0, 20.0)]
        stacked = grid_analytic_rmse(sweep_setup(scns, xy, self.METHODS, nu))
        for k, scn in enumerate(scns):
            alone = grid_analytic_rmse(sweep_setup([scn], xy, self.METHODS, nu))
            want = closed_form_rmse(scn, xy, self.METHODS, nu)
            for j, m in enumerate(self.METHODS):
                assert stacked[k, j].tobytes() == alone[0, j].tobytes(), (m, k)
                assert np.max(np.abs(alone[0, j] - want[m])) <= 1e-9, (m, k)

    def test_matches_closed_form_near_double_range(self):
        # sigma^2 is 1.7e308: the engine's quadratic form must not overflow;
        # the closed form runs in units of sigma
        config = ExperimentConfig(sigma_db=1.3e154, resolution=3)
        scn = config.scenario(1.0)
        xy = config.grid().xy
        got = grid_analytic_rmse(sweep_setup([scn], xy, self.METHODS))
        want = closed_form_rmse(scn, xy, self.METHODS, unit=1.3e154)
        for j, m in enumerate(self.METHODS):
            assert np.allclose(got[0, j], want[m], rtol=1e-12, atol=0.0), m

    def test_requested_methods_only(self, table_scenario):
        points = [Point(100.0, 200.0), Point(320.0, 320.0)]
        def rmse(methods):
            return grid_analytic_rmse(sweep_setup([table_scenario], coordinates(points), methods))

        got = rmse(("nn", "sm1"))
        assert got.shape == (1, 2, 2)
        assert got.tobytes() == rmse(("sm1", "nn"))[:, ::-1].tobytes()  # columns in the methods' order


class TestSetupInterface:
    """Both engines on one all-method set-up with joint factors: one (K, M, N) array each."""

    RATIOS = (0.05, 3.0)

    @pytest.fixture(scope="class")
    def built(self):
        config = ExperimentConfig(resolution=2)
        scns = [config.scenario(ratio) for ratio in self.RATIOS]
        return scns, sweep_setup(scns, config.grid().xy, config.methods, engines=("analytic", "mc"))

    def test_engines_return_ratio_method_point_arrays(self, built):
        scns, setup = built
        xy = setup.xy
        shape = (len(scns), len(setup.methods), len(xy))
        analytic = grid_analytic_rmse(setup)
        mc = _mc_rmse(setup, range(len(xy)), 64, 3)
        assert analytic.shape == mc.shape == shape
        for k, scn in enumerate(scns):
            sensors = list(scn.sensors)
            for j, m in enumerate(setup.methods):
                for i, (x, y) in enumerate(xy.tolist()):
                    p0 = Point(x, y)
                    want = analytic_rmse(error_form(m, scn, p0), scn.correlation, p0, sensors)
                    assert abs(analytic[k, j, i] - want) <= 1e-9 * want, (k, m, i)
                    alone = sweep_setup([scn], xy[i : i + 1], (m,), engines=("mc",))
                    assert mc[k, j, i] == _mc_rmse(alone, [i], 64, 3)[0, 0, 0], (k, m, i)

    def test_methods_of_one_family_share_their_weights(self, built):
        _, setup = built
        assert set(setup.weights) == set(setup.methods)
        assert setup.weights["sm2"] is setup.weights["idw"]
        assert setup.weights["sm2"].shape == (len(setup.xy), 4)
        assert setup.weights["sm0"] is setup.weights["sm1"]
        assert setup.weights["sm0"].shape == (len(self.RATIOS), len(setup.xy), 4)

    def test_failed_factor_solves_nothing(self, monkeypatch):
        # sigma^2 underflows to 0 and fails every factor at pivot 0: no set-up is built, and nothing is solved
        from radiomap import analysis

        solves = []
        monkeypatch.setattr(analysis, "sm0_weight_rows", lambda *args: solves.append(1))
        config = ExperimentConfig(sigma_db=1e-170, resolution=2)
        with pytest.raises(SetupRefusal, match=r"^sigma\^2 underflows a double at sigma = 1e-170 dB$") as exc:
            sweep_setup([config.scenario(1.0)], config.grid().xy, config.methods, engines=ENGINES)
        assert exc.value.row == "sigma^2 underflow" and solves == []

    def test_a_setup_runs_only_the_engines_it_was_built_for(self):
        # the rows a set-up passed are those of its engines: a Monte Carlo set-up never met median overflow
        config = ExperimentConfig(resolution=2)
        scns, xy = [config.scenario(1.0)], config.grid().xy
        for engines in ((), ("fast",), "mc"):
            with pytest.raises(ValueError, match=r"^engines must be a non-empty subset of \('analytic', 'mc'\)"):
                sweep_setup(scns, xy, config.methods, engines=engines)
        with pytest.raises(ValueError, match="^the set-up was built without the analytic engine"):
            grid_analytic_rmse(sweep_setup(scns, xy, config.methods, engines=("mc",)))

    @pytest.mark.parametrize("change", [{"sigma_db": 1e-160}, {"emitter": EMITTER_PRESETS["E2"]}], ids=["sigma", "emitter"])
    def test_scenarios_that_differ_in_more_than_xc_are_refused(self, change):
        # the set-up is the one statement of a sweep: its scenarios agree in all but the correlation distance,
        # so the sigma and medians the refusals read are every ratio's
        config = ExperimentConfig(resolution=2)
        xy = config.grid().xy
        assert sweep_setup([config.scenario(0.5), config.scenario(2.0)], xy, config.methods).c_n.shape == (2, 4, 4)
        with pytest.raises(ValueError, match="^the scenarios of a sweep must differ in their correlation distance alone$"):
            sweep_setup([config.scenario(0.5), replace(config, **change).scenario(2.0)], xy, config.methods)
        with pytest.raises(ValueError, match="^need at least one scenario$"):
            sweep_setup([], xy, config.methods)


class TestSetupRefusals:
    """sweep_setup() walks the set-up rows of the refusal table itself: a SweepSetup that exists can run."""

    # for each set-up row, in table order: the overrides of a res-2 config, the ratios of its scenarios, its methods
    # and the engines, which that row refuses first
    CASES = {
        "sigma^2 underflow": ({"sigma_db": 1e-160}, (1.0,), ("sm0", "nn"), ("analytic",)),
        "first-ratio factor": ({"kernel": "gaussian"}, (7e-4, 1.0), ("sm1",), ("analytic",)),
        "median overflow": ({"gamma": 1.2e152}, (1.0,), ("nn",), ("analytic",)),
        "lost bias": ({"a_db": 3.75e8}, (1.0,), ("sm0", "nn"), ENGINES),
        "lost sigma": ({"sigma_db": 1.2e-7}, (1.0,), ("sm0", "nn"), ("mc",)),
        "later-ratio factor": ({"kernel": "gaussian"}, (1.0, 7e-4), ("sm1",), ("analytic",)),
    }

    def test_every_setup_row_has_a_case_in_table_order(self):
        from radiomap.analysis import _REFUSALS, _SETUP

        assert list(self.CASES) == [row for row, (stage, _) in _REFUSALS.items() if stage == _SETUP]

    @pytest.mark.parametrize("row", list(CASES))
    def test_each_row_is_raised_before_any_solve(self, monkeypatch, row):
        from radiomap import analysis

        overrides, ratios, methods, engines = self.CASES[row]
        config = ExperimentConfig(resolution=2, **overrides)
        scns, xy = [config.scenario(r) for r in ratios], config.grid().xy
        solves, solve = [], analysis.sm0_weight_rows
        monkeypatch.setattr(analysis, "sm0_weight_rows", lambda *args: solves.append(1) or solve(*args))
        with pytest.raises(SetupRefusal) as exc:
            sweep_setup(scns, xy, methods, engines=engines)
        assert exc.value.row == row and solves == []
        assert exc.value.ratio_index == (1 if row == "later-ratio factor" else 0)
        factor = row.endswith("factor")
        assert isinstance(exc.value.__cause__, NotPositiveDefiniteError) is factor
        if factor:
            assert str(exc.value) == str(exc.value.__cause__)


class TestSigma0:
    @pytest.mark.parametrize("sigma", [1e-160, 1e-162])
    def test_sigma_squared_underflow_is_refused_by_the_setup_row(self, sigma):
        # a subnormal sigma^2 read 0.700434 sigma for 0.700445 at 5 dB, and a zero one failed the factor at pivot 0
        scn = ExperimentConfig(sigma_db=sigma).scenario(1.0)
        with pytest.raises(SetupRefusal) as exc:
            sm0_sigma0(scn.correlation, list(scn.sensors), Point(200.0, 300.0))
        assert exc.value.row == "sigma^2 underflow"
        assert str(exc.value) == f"sigma^2 underflows a double at sigma = {sigma!r} dB"

    def test_sigma_squared_overflow_keeps_the_kernels_cause(self):
        scn = ExperimentConfig(sigma_db=1e200).scenario(1.0)
        with pytest.raises(OverflowError, match=r"^sigma\^2 overflows a double at sigma = 1e\+200 dB$"):
            sm0_sigma0(scn.correlation, list(scn.sensors), Point(200.0, 300.0))

    def test_five_decibels_keeps_its_bits(self):
        # the value at the reference configuration before the refusal was added
        scn = ExperimentConfig(sigma_db=5.0).scenario(1.0)
        got = sm0_sigma0(scn.correlation, list(scn.sensors), Point(200.0, 300.0))
        assert got == float.fromhex("0x1.c048eadc83c85p+1")

    def test_collocated_query_has_zero_error(self, table_model, table_scenario):
        got = sm0_sigma0(table_model, list(table_scenario.sensors), Point(0.0, 0.0))
        assert got == pytest.approx(0.0, abs=1e-6)

    def test_uncorrelated_limit_is_sigma(self, table_scenario):
        model = CorrelationModel("exponential", sigma=5.0, xc=1e-6 * 640.0)
        got = sm0_sigma0(model, list(table_scenario.sensors), Point(320, 320))
        assert got == pytest.approx(5.0, rel=1e-9)

    def test_consistent_with_error_form(self, table_model, table_scenario):
        p0 = Point(320.0, 320.0)
        via_schur = sm0_sigma0(table_model, list(table_scenario.sensors), p0)
        via_form = analytic_rmse(
            error_form("sm0", table_scenario, p0), table_model, p0, list(table_scenario.sensors)
        )
        assert via_schur == pytest.approx(via_form, abs=1e-9)

    def test_never_exceeds_sigma(self, table_model, table_scenario):
        rng = np.random.default_rng(19)
        for _ in range(50):
            p0 = Point(*rng.uniform(-200.0, 900.0, 2))
            assert sm0_sigma0(table_model, list(table_scenario.sensors), p0) <= 5.0 + 1e-12

    def test_is_the_minimum_over_weight_perturbations(self, table_model, table_scenario):
        rng = np.random.default_rng(21)
        p0 = Point(250.0, 180.0)
        sensors = list(table_scenario.sensors)
        sigma0 = sm0_sigma0(table_model, sensors, p0)
        w = sm0_weights(table_model, sensors, p0)
        for _ in range(20):
            w_pert = w + rng.normal(0.0, 0.1, size=4)
            form = AffineErrorForm(bias=0.0, coeffs=np.concatenate(([1.0], -w_pert)))
            assert analytic_rmse(form, table_model, p0, sensors) >= sigma0 - 1e-9
