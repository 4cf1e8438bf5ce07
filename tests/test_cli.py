import csv
import json
from pathlib import Path

import pytest

from radiomap.cli import main


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


class TestSweepCommand:
    def test_writes_expected_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out)]) == 0
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

    def test_degenerate_emitter_exits_3_naming_position(self, tmp_path, capsys):
        cfg = write_config(tmp_path, emitter=[320.0, 320.0], methods=["sm1"])
        assert main(["sweep", str(cfg), str(tmp_path / "out")]) == 3
        assert "320" in capsys.readouterr().err

    def test_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg), str(out), "--res", "2", "--seed", "7", "--nu", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["resolution"] == 2
        assert manifest["master_seed"] == 7
        assert manifest["config"]["nu"] == 2


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
        ],
        ids=["ratio-nan", "ratio-inf", "bins-0", "threads-0", "threads-negative"],
    )
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, flags, named):
        cfg = write_config(tmp_path, resolution=2)
        assert main(["grid", str(cfg), str(tmp_path / "out"), "--method", "sm0", *flags]) == 2
        assert named in capsys.readouterr().err


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

    def test_injected_bug_fails_with_exit_4(self, tmp_path):
        out = tmp_path / "out"
        assert main(["validate", str(out), "--inject-bug", "sigma0-sign"]) == 4
        rows = read_rows(out / "validate.csv")
        assert any(r["passed"] == "false" for r in rows)
