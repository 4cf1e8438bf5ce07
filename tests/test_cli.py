import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from radiomap import cli
from radiomap.cli import main
from radiomap.harness import MAX_THREADS
from radiomap.validation import CHECK_NAMES, INJECTABLE_BUGS, VALIDATION_SEED, CheckResult, run_validation

from workers import another_thread, patch_kernel

# the kernel's cause when sigma_db is 1e200
SIGMA_1E200_OVERFLOWS = "sigma^2 overflows a double at sigma = 1e+200 dB"


def write_config(path: Path, **overrides) -> Path:
    doc = {
        "side_m": 640.0,
        "emitter": "E1",
        "a_db": 15.3,
        "gamma": 3.76,
        "sigma_db": 5.0,
        "correlation": {"kind": "exponential"},
        "ratios": [0.2, 1.0, 5.0],
        "resolution": 4,
        "realizations": 50,
        "methods": ["sm0", "sm2", "idw"],
        "master_seed": 424242,
        "mode": "analytic",
        "nu": 1,
    }
    doc.update(overrides)
    cfg = path / "config.json"
    cfg.write_text(json.dumps(doc))
    return cfg


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_validate(args: list[str]) -> tuple[int, str]:
    """Exit code and stderr of `radiomap validate ARGS`; argparse's own errors exit through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(["validate", *args])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestSweepCommand:
    def test_writes_expected_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv", "sweep.svg"]
        assert (out / "sweep.csv").read_bytes().count(b"\r\n") == 1 + 3 * 3
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 3 * 3
        assert rows[0].keys() == {"ratio", "method", "spatial_rmse_db", "mode", "mc_stderr_db"}
        assert (out / "sweep.svg").read_text().startswith("<svg")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["sweep.csv", "sweep.svg"]
        assert manifest["master_seed"] == 424242
        assert manifest["config"]["methods"] == ["sm0", "sm2", "idw"]

    def test_default_ratio_grid_row_count(self, tmp_path):
        cfg = write_config(
            tmp_path,
            ratios=[0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0],
            methods=["sm0", "sm1", "sm2", "nn", "idw", "nat"],
        )
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        assert len(read_rows(out / "sweep.csv")) == 54

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, mode="mc", realizations=200)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", str(cfg), str(out1)]) == 0
        assert main(["sweep", str(cfg), str(out2), "--threads", "3"]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_mc_sweep_reads_no_os_entropy(self, tmp_path, monkeypatch):
        # every stream is keyed without the OS entropy that Philox(key=...) reads first
        import random

        cfg = write_config(tmp_path, mode="mc", realizations=200)
        assert main(["sweep", str(cfg), str(tmp_path / "a"), "--threads", "2"]) == 0

        def no_entropy(n):
            raise AssertionError("read OS entropy")

        monkeypatch.setattr(random, "_urandom", no_entropy)
        assert main(["sweep", str(cfg), str(tmp_path / "b"), "--threads", "2"]) == 0
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()

    def test_csv_roundtrip_precision(self, tmp_path):
        from radiomap import ExperimentConfig, sweep as run_sweep

        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        expected = run_sweep(
            ExperimentConfig(
                resolution=4,
                ratios=(0.2, 1.0, 5.0),
                methods=("sm0", "sm2", "idw"),
                master_seed=424242,
                realizations=50,
            )
        )
        for got, want in zip(rows, expected):
            assert float(got["ratio"]) == pytest.approx(want.ratio, rel=1e-9)
            assert float(got["spatial_rmse_db"]) == pytest.approx(want.spatial_rmse, rel=1e-9)

    def test_missing_config_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["sweep", str(missing), str(tmp_path / "out")]) == 1
        assert str(missing) in capsys.readouterr().err

    def test_zero_realizations_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, realizations=0, mode="mc")
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        assert "realizations" in capsys.readouterr().err

    @pytest.mark.parametrize("command, entry", [("sweep", "sweep"), ("grid", "grid_rmse")])
    def test_out_of_memory_exits_2_naming_the_sizes(self, tmp_path, capsys, monkeypatch, command, entry):
        # stands in for a resolution or realizations too large to allocate
        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, entry, out_of_memory)
        argv = [command, str(write_config(tmp_path)), str(tmp_path / "out")]
        if command == "grid":
            argv += ["--ratio", "1.0", "--method", "sm0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "resolution" in err and "realizations" in err

    def test_unknown_method_exits_2_listing_valid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, methods=["sm0", "spline"])
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "spline" in err
        for name in ("sm0", "sm1", "sm2", "nn", "idw", "nat"):
            assert name in err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra_knob=1)
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        assert "extra_knob" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "emitter, cause",
        [([320.0, 320.0], "all sensors are effectively equidistant"), ([0.0, 0.0], "emitter coincides with sensor 0")],
        ids=["centre", "sensor"],
    )
    def test_degenerate_emitter_exits_3_naming_position(self, tmp_path, capsys, emitter, cause):
        cfg = write_config(tmp_path, emitter=emitter, methods=["sm1"])
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 3
        position = f"{emitter[0]:g}, {emitter[1]:g}"
        assert capsys.readouterr().err.startswith(f"degenerate geometry: emitter at ({position}): {cause}")

    @pytest.mark.parametrize(
        "overrides, code, named",
        [
            ({"correlation": {"kind": "gaussian"}, "ratios": [5e-4]}, 2, ["gaussian", "0.0005"]),
            ({"sigma_db": 1e-200}, 2, ["exponential", "0.2", "sigma^2 underflows a double at sigma = 1e-200 dB"]),
            ({"ratios": [1e-320]}, 2, ["exponential", "1e-320"]),
            ({"correlation": {"kind": "elliptical", "axis_ratio": 1e300}}, 2, ["elliptical", "0.2"]),
            ({"a_db": 1e308}, 2, ["exponential", "0.2"]),
            ({"sigma_db": 1e200}, 2, ["exponential", "0.2", SIGMA_1E200_OVERFLOWS]),
            ({"sigma_db": 1e200, "mode": "mc"}, 2, ["exponential", "0.2", SIGMA_1E200_OVERFLOWS]),
            ({"gamma": 1e308}, 2, ["exponential", "0.2"]),
            ({"side_m": 1e308, "methods": ["sm0"]}, 2, ["exponential", "0.2"]),
            ({"emitter": [80, 80]}, 3, ["(80, 80)", "resolution-4"]),
            ({"side_m": math.nan}, 2, ["'side_m'"]),
            ({"ratios": [math.inf]}, 2, ["'ratios'"]),
            ({"sigma_db": math.inf}, 2, ["'sigma_db'"]),
            ({"correlation": {"kind": "elliptical", "axis_ratio": "x"}}, 2, ["'correlation.axis_ratio'"]),
            ({"a_db": math.nan}, 2, ["'a_db'"]),
            ({"resolution": 3.7}, 2, ["'resolution'"]),
            ({"master_seed": 1.9}, 2, ["'master_seed'"]),
            ({"nu": True}, 2, ["'nu'"]),
            ({"resolution": 10**30}, 2, ["'resolution'"]),
            ({"mode": "mc", "resolution": 2, "realizations": 10**30}, 2, ["'realizations'"]),
            ({"correlation": {"kind": "exponential", "scale": 1}}, 2, ["unknown field(s) in 'correlation': scale"]),
            ({"emitter": [1, "x"]}, 2, ["field 'emitter'", "str"]),
            ({"emitter": [math.inf, 0]}, 2, ["field 'emitter'", "finite", "(inf, 0)"]),
        ],
        ids=[
            "gaussian-ratio-5e-4",
            "sigma-1e-200",
            "ratio-1e-320",
            "axis-ratio-1e300",
            "a_db-1e308",
            "sigma-1e200",
            "sigma-1e200-mc",
            "gamma-1e308",
            "side-1e308",
            "emitter-on-grid-point",
            "side-nan",
            "ratios-inf",
            "sigma-inf",
            "axis-ratio-str",
            "a_db-nan",
            "resolution-3.7",
            "master-seed-1.9",
            "nu-true",
            "resolution-1e30",
            "realizations-1e30",
            "correlation-unknown-key",
            "emitter-str",
            "emitter-inf",
        ],
    )
    def test_probe_exits_with_named_cause(self, tmp_path, capsys, overrides, code, named):
        cfg = write_config(tmp_path, **overrides)
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        for text in named:
            assert text in err

    @pytest.mark.parametrize(
        "text, named",
        [("{", "is not valid JSON"), ("[1, 2]", "config document must be a JSON object")],
        ids=["invalid-json", "not-an-object"],
    )
    def test_config_file_that_is_no_json_object_exits_2(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"side_m": 1e308, "methods": ["nat"]},
            {"side_m": 1e160, "methods": ["nat"]},
            {"side_m": 1e110, "methods": ["idw", "sm2"], "nu": 3},
            {"side_m": 1e-110, "methods": ["idw", "nn"], "nu": 3},
        ],
        ids=["nat-1e308", "nat-1e160", "idw-sm2-nu3-1e110", "idw-nu3-1e-110"],
    )
    def test_geometry_weights_at_extreme_sides_give_finite_csv(self, tmp_path, overrides):
        # the weights are computed in units of the sensor span, so no squared or cubed distance
        # overflows or underflows
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows and all(math.isfinite(float(r["spatial_rmse_db"])) for r in rows)

    def test_large_mc_sigma_gives_finite_stderr(self, tmp_path):
        # per-point RMSEs near 1e100 dB: their fourth powers overflow a double
        cfg = write_config(tmp_path, sigma_db=1e100, mode="mc", resolution=2)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert rows and all(math.isfinite(float(r["mc_stderr_db"])) for r in rows)
        assert all(0.0 < float(r["mc_stderr_db"]) < float(r["spatial_rmse_db"]) for r in rows)

    def test_large_sigma_gives_finite_spatial_rmse(self, tmp_path):
        # per-point RMSEs near 1e154 dB: their squares overflow a double
        cfg = write_config(tmp_path, sigma_db=1.3e154, methods=["nn"], resolution=2, ratios=[1])
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        (row,) = read_rows(out / "sweep.csv")
        assert float(row["spatial_rmse_db"]) == pytest.approx(1.0033e154, rel=1e-4)

    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_large_sigma_gives_finite_mc_rmse(self, tmp_path, mode):
        # the squared prediction errors of each realization overflow a double
        cfg = write_config(
            tmp_path, sigma_db=1.3e154, methods=["nn"], resolution=2, ratios=[1], mode=mode, realizations=10000
        )
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        (row,) = read_rows(out / "sweep.csv")
        assert float(row["spatial_rmse_db"]) == pytest.approx(1.0033e154, rel=1e-2)
        assert math.isfinite(float(row["mc_stderr_db"]))

    def test_mc_failure_names_its_ratio_at_any_thread_count(self, tmp_path, capsys):
        # the 5x5 joint covariance is not positive definite at ratio 1e-3, the first ratio:
        # the set-up stops there, and nothing is drawn
        cfg = write_config(
            tmp_path, correlation={"kind": "gaussian"}, ratios=[1e-3, 1.0], methods=["nn"], mode="mc", realizations=100
        )
        errs = []
        for threads in ("1", "2"):
            assert main(["sweep", str(cfg), str(tmp_path / "out"), "--threads", threads]) == 2
            errs.append(capsys.readouterr().err)
        assert "gaussian kernel at spacing ratio 0.001" in errs[0]
        assert errs[0] == errs[1]

    def test_sweep_csv_same_bytes_forked_pooled_and_serial(self, tmp_path):
        cfg = write_config(tmp_path, mode="mc", resolution=3, realizations=40, methods=["sm0", "sm1", "nat"])

        def csv_bytes(threads, name):
            out = tmp_path / name
            assert main(["sweep", str(cfg), str(out), "--threads", str(threads)]) == 0
            return (out / "sweep.csv").read_bytes()

        serial = csv_bytes(1, "serial")
        for threads in (2, 3):
            assert csv_bytes(threads, f"forked-{threads}") == serial
            with another_thread():
                assert csv_bytes(threads, f"pooled-{threads}") == serial

    def test_killed_worker_exits_5_on_one_line(self, tmp_path, capsys, monkeypatch):
        # a worker killed by SIGKILL, as by the OOM killer: no traceback, no output, no child left
        patch_kernel(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        cfg = write_config(tmp_path, mode="mc", resolution=2, realizations=20)
        assert main(["sweep", str(cfg), str(tmp_path / "out"), "--threads", "2"]) == 5
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"worker failed: the Monte Carlo worker for points 2 to 3 of 4 was killed by signal 9 \(.+\)\n", err
        ), err
        assert not (tmp_path / "out" / "sweep.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_worker_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def out_of_memory():
            raise MemoryError

        patch_kernel(monkeypatch, out_of_memory)
        cfg = write_config(tmp_path, mode="mc", resolution=2, realizations=20)
        assert main(["sweep", str(cfg), str(tmp_path / "out"), "--threads", "2"]) == 2
        assert capsys.readouterr().err == "out of memory: lower 'resolution' or 'realizations'\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "sigma, overrides",
        [
            (1e-162, {"methods": ["sm0"]}),
            (1e-162, {"methods": ["nn"], "mode": "mc"}),
            (1e-162, {"methods": ["nn", "sm1"], "mode": "both"}),
            (1e-162, {"methods": ["nn", "sm2"]}),
            (1e-160, {"methods": ["sm0"]}),
        ],
        ids=["analytic-sm0", "mc-nn", "both", "analytic-sm2", "analytic-sm0-subnormal"],
    )
    def test_sigma_squared_underflow_is_named(self, tmp_path, capsys, sigma, overrides):
        # pivot 0 of every sensor and joint covariance is sigma^2 itself; an unbiased method's error
        # is all shadow, so a subnormal sigma^2 stops its run as well (at ratio 1, sm0 read 0.64064
        # sigma at 1e-160 dB and 0.63358 at 1e-161, for 0.64063 at 5 dB)
        cfg = write_config(tmp_path, sigma_db=sigma, ratios=[0.5, 1.0], **overrides)
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.strip() == (
            "config error: exponential kernel at spacing ratio 0.5 is outside the numeric range: "
            f"sigma^2 underflows a double at sigma = {sigma!r} dB"
        )

    @pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
    def test_medians_whose_spread_is_lost_name_a_db(self, tmp_path, capsys, mode):
        # at a_db 1e20 the medians' 37 dB spread is lost in their round-off: nn read 0.936 dB for 9.66
        cfg = write_config(tmp_path, a_db=1e20, resolution=2, ratios=[0.05, 5], methods=["nn", "idw"], mode=mode)
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: exponential kernel at spacing ratio 0.05 is outside the numeric range: "
            "field 'a_db' sets median powers of up to 1e+20 dB; spread 0 dB and sigma_db under 1e-07 of it"
        )
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [({"a_db": 1e300, "methods": ["sm2"]}, "a_db"), ({"gamma": 1e306, "methods": ["sm1"]}, "gamma")],
        ids=["a_db-1e300-sm2", "gamma-1e306-sm1"],
    )
    def test_analytic_median_overflow_names_its_field(self, tmp_path, capsys, overrides, field):
        cfg = write_config(tmp_path, resolution=2, ratios=[0.05, 5], **overrides)
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"exponential kernel at spacing ratio 0.05 is outside the numeric range: field '{field}'" in err
        assert "above 2^510 dB" in err

    def test_a_db_of_a_million_keeps_the_path_loss_bias(self, tmp_path):
        values = {}
        for a_db in (15.3, 1e6):
            methods = ["sm0", "sm1", "sm2", "nn", "idw", "nat"]
            cfg = write_config(tmp_path, a_db=a_db, ratios=[0.05, 1.0, 5.0], methods=methods)
            assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 0
            values[a_db] = [float(r["spatial_rmse_db"]) for r in read_rows(tmp_path / "out" / "sweep.csv")]
        assert values[1e6] == pytest.approx(values[15.3], rel=0, abs=1e-9)

    def test_far_emitter_passes_the_medians_check(self, tmp_path):
        # a far emitter's medians spread over 1e-8 dB, below their round-off, but sigma_db is far above it
        cfg = write_config(tmp_path, emitter=[1e12, 0.0], methods=["sm0", "nn", "idw", "nat"])
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 0
        assert all(math.isfinite(float(r["spatial_rmse_db"])) for r in read_rows(tmp_path / "out" / "sweep.csv"))

    def test_sigma_squared_underflow_leaves_geometry_only_methods_analytic(self, tmp_path):
        cfg = write_config(tmp_path, sigma_db=1e-162, methods=["nn", "idw", "nat"])
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
        assert all(math.isfinite(float(r["spatial_rmse_db"])) for r in read_rows(out / "sweep.csv"))

    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_monte_carlo_refuses_a_sigma_lost_in_round_off(self, tmp_path, capsys, mode):
        # shadows of 1e-150 dB vanish when added to medians near 128 dB: sm0 would read 0
        cfg = write_config(tmp_path, sigma_db=1e-150, ratios=[0.5], mode=mode)
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "field 'sigma_db' is too small for Monte Carlo: 1e-150 dB" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("mode", ["mc", "both"])
    def test_monte_carlo_takes_a_millidecibel_sigma(self, tmp_path, mode):
        # sm0's Monte Carlo RMSE scales with sigma down to 1e-3 dB
        rmse = {}
        for sigma in (1e-3, 5.0):
            cfg = write_config(tmp_path, sigma_db=sigma, ratios=[0.5], mode=mode, methods=["sm0"])
            assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 0
            (row,) = read_rows(tmp_path / "out" / "sweep.csv")
            rmse[sigma] = float(row["spatial_rmse_db"])
        assert rmse[1e-3] / 1e-3 == pytest.approx(rmse[5.0] / 5.0, rel=1e-9)

    @pytest.mark.parametrize("mode", ["analytic", "mc", "both"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_gaussian_sm1_failure_message(self, tmp_path, capsys, mode, threads):
        # the sensor covariance Cn fails, and its error wins over the joint factor's (pivot 3 is
        # 9.57101e-12 at the first grid point) in every mode
        cfg = write_config(tmp_path, correlation={"kind": "gaussian"}, ratios=[5e-4], methods=["sm1"], mode=mode)
        assert main(["sweep", str(cfg), str(tmp_path / "out"), "--threads", threads]) == 2
        assert capsys.readouterr().err.strip() == (
            "config error: gaussian kernel at spacing ratio 0.0005 is outside the numeric range: "
            "matrix is not positive definite: pivot 3 is 6.22791e-12"
        )

    @pytest.mark.parametrize(
        "overrides, code",
        [
            ({"a_db": 1e308}, 2),
            ({"a_db": 1e308, "mode": "mc"}, 2),
            ({"gamma": 1e308, "methods": ["sm0", "sm1", "sm2", "nn", "idw", "nat"]}, 2),
            ({"sigma_db": 1e200, "mode": "mc"}, 2),
            ({"sigma_db": 1e100, "mode": "mc", "resolution": 2}, 0),
            ({"sigma_db": 1e100, "mode": "both", "resolution": 2}, 0),
        ],
        ids=["a_db-1e308", "a_db-1e308-mc", "gamma-1e308-all", "sigma-1e200-mc", "sigma-1e100-mc", "sigma-1e100-both"],
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_numeric_limits_raise_no_runtime_warning(self, tmp_path, overrides, code, threads):
        cfg = write_config(tmp_path, **overrides)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sweep", str(cfg), str(tmp_path / "out"), "--threads", str(threads)]) == code
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        flags = ["--res", "2", "--seed", "7", "--nu", "2", "--realizations", "30", "--mode", "mc"]
        assert main(["sweep", str(cfg), str(out), *flags]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["resolution"] == 2
        assert manifest["master_seed"] == 7
        assert manifest["config"]["nu"] == 2
        assert manifest["config"]["realizations"] == 30
        assert manifest["config"]["mode"] == "mc"
        assert {row["mode"] for row in read_rows(out / "sweep.csv")} == {"mc"}


# For each row of the refusal table (analysis._REFUSALS), in its order: the overrides of a res-2 sweep just inside the
# limit, which exits 0, and just outside it, which exits 2 naming the row's field or cause. None marks a row that no
# config reaches; TestRefusalTable calls its check on crafted values.
REFUSAL_BOUNDARIES = {
    "sigma^2 underflow": ({"sigma_db": 1.5e-154}, {"sigma_db": 1.49e-154}, "sigma^2 underflows a double"),
    "first-ratio factor": (
        {"correlation": {"kind": "gaussian"}, "ratios": [8e-4], "methods": ["sm1"]},
        {"correlation": {"kind": "gaussian"}, "ratios": [7e-4], "methods": ["sm1"]},
        "matrix is not positive definite",
    ),
    "median overflow": ({"gamma": 1e152, "methods": ["nn"]}, {"gamma": 1.2e152, "methods": ["nn"]}, "field 'gamma'"),
    "lost bias": ({"a_db": 3.7e8}, {"a_db": 3.75e8}, "field 'a_db'"),
    "lost sigma": ({"sigma_db": 1.3e-7, "mode": "mc"}, {"sigma_db": 1.2e-7, "mode": "mc"}, "field 'sigma_db'"),
    "later-ratio factor": None,
    # the largest medians Monte Carlo takes, with the largest sigma, against medians that overflow
    "non-finite RMSE": (
        {"gamma": 1e160, "sigma_db": 1e153, "mode": "mc", "methods": ["nn"]},
        {"gamma": 1e308, "mode": "mc", "methods": ["nn"]},
        "nn RMSE is not finite",
    ),
    "non-finite standard error": None,
}


def test_refusal_boundaries_cover_every_row_of_the_table():
    from radiomap.analysis import _REFUSALS

    assert list(REFUSAL_BOUNDARIES) == list(_REFUSALS)


@pytest.mark.parametrize("row", [row for row, case in REFUSAL_BOUNDARIES.items() if case is not None])
def test_each_refusal_exits_2_just_outside_its_limit_and_0_just_inside(tmp_path, capsys, row):
    inside, outside, named = REFUSAL_BOUNDARIES[row]
    base = {"ratios": [1.0], "resolution": 2, "realizations": 50, "methods": ["sm0", "nn"]}
    cfg = write_config(tmp_path, **{**base, **inside})
    assert main(["sweep", str(cfg), str(tmp_path / "in")]) == 0
    assert all(math.isfinite(float(r["spatial_rmse_db"])) for r in read_rows(tmp_path / "in" / "sweep.csv"))
    cfg = write_config(tmp_path, **{**base, **outside})
    capsys.readouterr()
    assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err


class TestGridCommand:
    def test_writes_grid_dist_and_heatmap(self, tmp_path):
        cfg = write_config(tmp_path, resolution=2)
        out = tmp_path / "out"
        assert main(["grid", str(cfg), str(out), "--ratio", "1", "--method", "sm0"]) == 0
        rows = read_rows(out / "grid.csv")
        assert len(rows) == 4
        assert rows[0].keys() == {"x_m", "y_m", "rmse_db"}
        assert {(float(r["x_m"]), float(r["y_m"])) for r in rows} == {
            (160.0, 160.0),
            (480.0, 160.0),
            (160.0, 480.0),
            (480.0, 480.0),
        }
        dist_rows = read_rows(out / "dist.csv")
        assert dist_rows[0].keys() == {"bin_center_db", "pdf", "cdf"}
        assert float(dist_rows[-1]["cdf"]) == pytest.approx(1.0)
        assert (out / "grid.svg").read_text().startswith("<svg")

    def test_manifest_rebuilds_grid_and_dist(self, tmp_path):
        # the manifest echoes the one-ratio, one-method config that ran, flags applied, and the bins:
        # from it alone a second run writes the same grid.csv and dist.csv
        cfg = write_config(tmp_path, resolution=2)
        flags = ["--ratio", "2.5", "--method", "nat", "--bins", "7", "--mode", "both", "--res", "3", "--seed", "9"]
        assert main(["grid", str(cfg), str(tmp_path / "first"), *flags]) == 0
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        echo = manifest["config"]
        assert (echo["ratios"], echo["methods"], manifest["bins"]) == ([2.5], ["nat"], 7)
        assert (echo["mode"], echo["resolution"], echo["master_seed"]) == ("both", 3, 9)
        (tmp_path / "echo.json").write_text(json.dumps(echo))
        again = [str(tmp_path / "echo.json"), str(tmp_path / "again")]
        run = ["--ratio", repr(echo["ratios"][0]), "--method", echo["methods"][0], "--bins", str(manifest["bins"])]
        assert main(["grid", *again, *run]) == 0
        for name in ("grid.csv", "dist.csv"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()

    def test_res64_grid_row_count(self, tmp_path):
        cfg = write_config(tmp_path, resolution=64)
        out = tmp_path / "out"
        assert main(["grid", str(cfg), str(out), "--ratio", "1", "--method", "sm0"]) == 0
        assert len(read_rows(out / "grid.csv")) == 4096

    def test_unknown_method_exits_2_listing_valid(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["grid", str(cfg), str(tmp_path / "out"), "--ratio", "1", "--method", "spline"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        for name in ("sm0", "sm1", "sm2", "nn", "idw", "nat"):
            assert name in err


    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--ratio", "nan"], "--ratio"),
            (["--ratio", "inf"], "--ratio"),
            (["--ratio", "1", "--bins", "0"], "--bins"),
            (["--ratio", "1", "--threads", "0"], "--threads"),
            (["--ratio", "1", "--threads", "-1"], "--threads"),
            (["--ratio", "1", "--threads", str(MAX_THREADS + 1)], "--threads"),
        ],
        ids=["ratio-nan", "ratio-inf", "bins-0", "threads-0", "threads-negative", "threads-above-max"],
    )
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, flags, named):
        cfg = write_config(tmp_path, resolution=2)
        assert main(["grid", str(cfg), str(tmp_path / "out"), "--method", "sm0", *flags]) == 2
        assert named in capsys.readouterr().err

    def test_ratio_that_underflows_the_spacing_names_the_flag(self, tmp_path, capsys):
        # side_m / ratio underflows to 0: the value came from --ratio, not from the config's ratios
        cfg = write_config(tmp_path, side_m=1e-100, resolution=2)
        argv = ["grid", str(cfg), str(tmp_path / "out"), "--ratio", "1e300", "--method", "nn"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: flag '--ratio' must be finite and > 0 with side_m / ratio > 0, got 1e+300 at side_m 1e-100\n"
        )
        assert not (tmp_path / "out").exists()

    def test_bins_above_the_bound_exit_2_naming_it(self, tmp_path, capsys, monkeypatch):
        # a small bound stands in for MAX_BINS, so no large histogram is ever built
        monkeypatch.setattr(cli, "MAX_BINS", 5)
        cfg = write_config(tmp_path, resolution=2)
        argv = ["grid", str(cfg), str(tmp_path / "out"), "--ratio", "1", "--method", "nn"]
        assert main([*argv, "--bins", "6"]) == 2
        assert capsys.readouterr().err == "config error: flag '--bins' must be <= 5, got 6\n"
        assert not (tmp_path / "out").exists()
        assert main([*argv, "--bins", "5"]) == 0
        assert len(read_rows(tmp_path / "out" / "dist.csv")) == 5

    def test_bins_bound_is_checked_before_any_work(self, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("grid evaluated")

        monkeypatch.setattr(cli, "grid_rmse", no_work)
        cfg = write_config(tmp_path, resolution=2)
        argv = ["grid", str(cfg), str(tmp_path / "out"), "--ratio", "1", "--method", "nn"]
        assert main([*argv, "--bins", str(cli.MAX_BINS + 1)]) == 2
        assert f"flag '--bins' must be <= {cli.MAX_BINS}" in capsys.readouterr().err


class TestValidateCommand:
    def test_fresh_build_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["validate", str(out)]) == 0
        rows = read_rows(out / "validate.csv")
        assert len(rows) == 6
        assert all(r["passed"] == "true" for r in rows)
        for r in rows:
            float(r["delta"])  # numeric delta present
        assert "kriging_equivalence: pass" in capsys.readouterr().out
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == VALIDATION_SEED

    def test_results_hold_plain_bools_and_floats(self):
        # numpy scalars would make the results unserializable by json
        results = run_validation()
        assert [r.name for r in results] == list(CHECK_NAMES)
        assert all(type(r.passed) is bool and type(r.delta) is float for r in results)
        json.dumps([[r.passed, r.delta] for r in results])

    @pytest.mark.parametrize("flags, seed", [([], VALIDATION_SEED), (["--seed", "7"], 7)], ids=["default", "given"])
    def test_manifest_records_the_seed_the_checks_ran_with(self, tmp_path, monkeypatch, flags, seed):
        ran_with = []

        def fake_validation(master_seed, inject_bug):
            ran_with.append(master_seed)
            return [CheckResult(name, True, 0.0, 1.0) for name in CHECK_NAMES]

        monkeypatch.setattr(cli, "run_validation", fake_validation)
        out = tmp_path / "out"
        assert main(["validate", str(out), *flags]) == 0
        assert ran_with == [seed]
        assert json.loads((out / "manifest.json").read_text())["master_seed"] == seed

    def test_injected_bug_fails_with_exit_4(self, tmp_path):
        out = tmp_path / "out"
        assert main(["validate", str(out), "--inject-bug", "sigma0-sign"]) == 4
        rows = read_rows(out / "validate.csv")
        assert any(r["passed"] == "false" for r in rows)

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--seed", "-1"], "'master_seed'"),
            (["--seed", str(2**64)], "'master_seed'"),
            (["--seed", str(10**23)], "'master_seed'"),
            (["--inject-bug", "foo"], "--inject-bug"),
        ],
        ids=["seed-negative", "seed-2**64", "seed-10**23", "inject-bug-unknown"],
    )
    def test_bad_flag_exits_2_naming_it(self, tmp_path, flags, named):
        out = tmp_path / "out"
        code, err = run_validate([str(out), *flags])
        assert code == 2
        assert named in err and "Traceback" not in err
        assert not (out / "validate.csv").exists()


# Every draw is rejected before the first check runs, so the property stays
# fast; one valid validate run takes over a second.
@given(
    st.one_of(st.none(), st.integers(max_value=-1), st.integers(min_value=2**64)),
    st.one_of(st.none(), st.text(max_size=12).filter(lambda name: name not in INJECTABLE_BUGS)),
)
@settings(max_examples=100, deadline=None)
def test_out_of_range_validate_flags_exit_2_naming_them(seed, bug):
    assume(seed is not None or bug is not None)
    flags = ([] if seed is None else [f"--seed={seed}"]) + ([] if bug is None else [f"--inject-bug={bug}"])
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err = run_validate([str(out), *flags])
        assert code == 2
        # argparse rejects the bug name before the seed is checked
        assert ("--inject-bug" if bug is not None else "'master_seed'") in err
        assert "Traceback" not in err
        assert not (out / "validate.csv").exists()


# Float fields are drawn over the whole finite double range, next to
# everyday values so that some runs get past the numerics.
_NUMBER = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
_POSITIVE = st.one_of(
    st.floats(0.01, 1e3), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
)
_WRONG = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-2, 0),
    _NUMBER,
)
_CORRELATION = {
    "kind": st.sampled_from(["exponential", "gaussian", "elliptical"]),
    "axis_ratio": st.floats(min_value=1.0, allow_infinity=False),
    "rotation_rad": _NUMBER,
}
_VALID = st.fixed_dictionaries(
    {
        # these three bound the run time
        "resolution": st.integers(1, 4),
        "realizations": st.integers(1, 50),
        "ratios": st.lists(_POSITIVE, min_size=1, max_size=3, unique=True).map(sorted),
    },
    optional={
        "side_m": _POSITIVE,
        "emitter": st.one_of(st.sampled_from(["E1", "E2", "E3"]), st.lists(_NUMBER, min_size=2, max_size=2)),
        "a_db": _NUMBER,
        "gamma": _POSITIVE,
        "sigma_db": _POSITIVE,
        "correlation": st.fixed_dictionaries({}, optional=_CORRELATION),
        "methods": st.lists(st.sampled_from(["sm0", "sm1", "sm2", "nn", "idw", "nat"]), min_size=1, max_size=6, unique=True),
        "master_seed": st.integers(0, 2**64 - 1),
        "mode": st.sampled_from(["analytic", "mc", "both"]),
        "nu": st.sampled_from([1, 2, 3, 1.0, 2.0, 3.0]),
    },
)
_KEYS = [
    "side_m", "emitter", "a_db", "gamma", "sigma_db", "correlation", "ratios", "resolution",
    "realizations", "methods", "master_seed", "mode", "nu", *(f"correlation.{k}" for k in _CORRELATION),
]


@st.composite
def _configs(draw):
    """A valid config with up to two values replaced by a wrong type or an out-of-range number."""
    doc = draw(_VALID)
    for key in draw(st.lists(st.sampled_from(_KEYS), max_size=2, unique_by=lambda k: k.split(".")[0])):
        top, _, sub = key.partition(".")
        doc[top] = {**doc.get(top, {}), sub: draw(_WRONG)} if sub else draw(_WRONG)
    return doc


@given(_configs())
@settings(max_examples=150, deadline=None)
def test_any_config_gives_finite_csv_or_a_named_exit(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["sweep", str(cfg), str(Path(tmp) / "out")])
        if code == 0:
            rows = read_rows(Path(tmp) / "out" / "sweep.csv")
            cells = [r[k] for r in rows for k in ("ratio", "spatial_rmse_db", "mc_stderr_db") if r[k]]
            assert rows and all(math.isfinite(float(c)) for c in cells)
        else:
            assert code in (2, 3) and err.getvalue().strip()


@given(
    _configs(),
    st.sampled_from(["sm0", "sm1", "sm2", "nn", "idw", "nat"]),
    _POSITIVE,
    st.sampled_from(["analytic", "mc", "both"]),
)
@settings(max_examples=100, deadline=None)
def test_any_grid_gives_finite_csv_or_a_named_exit(doc, method, ratio, mode):
    # the mode flag puts two thirds of the draws through the Monte Carlo route
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["grid", str(cfg), str(out), "--method", method, "--ratio", repr(ratio), "--mode", mode])
        if code == 0:
            cells = [v for name in ("grid.csv", "dist.csv") for row in read_rows(out / name) for v in row.values()]
            assert cells and all(math.isfinite(float(c)) for c in cells)
        else:
            assert code in (2, 3) and err.getvalue().strip()


# The CSV contract: the benchmark's recorded outputs, which hold the CSVs of
# the sweep and grid commands to within 1e-9 dB. They were recorded on one
# thread; the Monte Carlo ones hold at any thread count.
@pytest.mark.parametrize(
    "name, seed, threads",
    [pytest.param("sweep-analytic", seed, 1, id=f"sweep-analytic-{seed}") for seed in range(10)]
    + [
        pytest.param("grid-both", 0, 1, id="grid-both-0"),
        pytest.param("grid-both", 0, 2, id="grid-both-0-threads2"),
        pytest.param("sweep-mc", 0, 2, id="sweep-mc-0-threads2"),
    ],
)
def test_outputs_match_recorded_benchmark_reference(tmp_path, perfbench, name, seed, threads):
    workload = perfbench.WORKLOADS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(workload.config(seed)))
    out = tmp_path / "out"
    assert main(workload.argv(str(cfg), str(out), threads=threads)) == 0
    reference = perfbench.load_reference(workload, seed)
    assert reference is not None
    assert perfbench.check_outputs(workload, out, reference) == []
