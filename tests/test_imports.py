"""What importing radiomap brings in, each case checked in a fresh interpreter.

field.standard_normal_block imports scipy.special.ndtri at the first normal
draw, so importing radiomap and every analytic call stay numpy-only, while a
Monte Carlo call brings scipy in. Importing radiomap asks OpenBLAS for one
thread unless the caller chose a count, and that moves no bit, nor does a
BLAS pool move any bit of the Monte Carlo row correlation or of the Monte
Carlo kernel's one product per block and ratio. Other tests import scipy into the test
process, and importing radiomap there set its BLAS thread variable, so each
case runs in a child interpreter that imports radiomap from the same
directory as this test did.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radiomap

SRC_DIR = str(Path(radiomap.__file__).resolve().parent.parent)

CONFIG = {"resolution": 2, "realizations": 20, "ratios": [0.5, 1.0], "master_seed": 7, "mode": "analytic"}

# The variables that set OpenBLAS's thread count, in the order it reads them.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def start_fresh(code: str, cwd: Path, blas: dict[str, str] | None = None) -> subprocess.Popen:
    """Start code in a fresh interpreter; with blas, its environment holds these BLAS thread variables in place of ours."""
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    if blas is not None:
        env = {**{k: v for k, v in env.items() if k not in BLAS_VARIABLES}, **blas}
    return subprocess.Popen(
        [sys.executable, "-c", code], cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def finish(proc: subprocess.Popen) -> list:
    """Wait for a fresh interpreter and return the JSON of its last stdout line."""
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def run_fresh(code: str, cwd: Path, blas: dict[str, str] | None = None) -> list:
    """Run code in a fresh interpreter and return the JSON of its last stdout line."""
    return finish(start_fresh(code, cwd, blas))


_CLI = "from radiomap.cli import main; code = main({argv!r})"
_CASES = {
    "import-cli": ("import radiomap.cli; code = 0", False),
    "sweep-analytic": (_CLI.format(argv=["sweep", "config.json", "out"]), False),
    "grid-analytic-nat": (_CLI.format(argv=["grid", "config.json", "out", "--ratio", "1", "--method", "nat"]), False),
    "library-sweep-analytic": (
        "import radiomap; radiomap.sweep(radiomap.ExperimentConfig(resolution=2, ratios=(1.0,))); code = 0",
        False,
    ),
    "sweep-mc": (_CLI.format(argv=["sweep", "config.json", "out", "--mode", "mc"]), True),
    "grid-both": (_CLI.format(argv=["grid", "config.json", "out", "--ratio", "1", "--method", "nat", "--mode", "both"]), True),
}


@pytest.mark.parametrize("call, loads_scipy", _CASES.values(), ids=_CASES.keys())
def test_only_monte_carlo_calls_import_scipy(tmp_path, call, loads_scipy):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    code = f"import json, sys\n{call}\nprint(json.dumps([code, 'scipy' in sys.modules]))"
    assert run_fresh(code, tmp_path) == [0, loads_scipy]


def test_cold_concurrent_first_draw_matches_serial(tmp_path):
    # Two threads enter their first draw together, so both may reach the
    # ndtri import at once; every block must equal its serial draw bit for bit.
    code = """
import json, sys, threading
from concurrent.futures import ThreadPoolExecutor
from radiomap.field import standard_normal_block

sys.setswitchinterval(1e-6)
cold = "scipy" not in sys.modules
start = threading.Barrier(2, timeout=60)

def draw(point):
    if point < 2:
        start.wait()
    return standard_normal_block(2024, point, 5, 1000).tobytes()

with ThreadPoolExecutor(2) as pool:
    pooled = list(pool.map(draw, range(8)))
serial = [standard_normal_block(2024, point, 5, 1000).tobytes() for point in range(8)]
print(json.dumps([cold, pooled == serial]))
"""
    assert run_fresh(code, tmp_path) == [True, True]


def test_cli_import_binds_what_the_perfbench_tracer_patches(tmp_path):
    # perfbench/tracer.py reads radiomap.validation from sys.modules and
    # replaces radiomap.harness.ThreadPoolExecutor with a traced subclass of
    # the stdlib executor; a lazy import of either breaks `--trace 1`.
    code = """
import concurrent.futures, json, sys
import radiomap.cli, radiomap.harness
print(json.dumps([
    "radiomap.validation" in sys.modules,
    radiomap.harness.ThreadPoolExecutor is concurrent.futures.ThreadPoolExecutor,
]))
"""
    assert run_fresh(code, tmp_path) == [True, True]


def test_perfbench_span_keys_name_public_functions():
    # perfbench/tracer.py records a span for each "layer.function" key of its SPANS set and wraps
    # only the public functions a layer defines: a refactor that renames, hides or moves one of them
    # would drop its span silently
    import ast
    import importlib
    import types

    tree = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py").read_text())
    (spans,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SPANS"]
    ]
    assert "harness.sweep" in spans and "harness.grid_rmse" in spans
    for key in sorted(spans):
        layer, name = key.split(".")
        module = importlib.import_module(f"radiomap.{layer}")
        fn = getattr(module, name, None)
        assert not name.startswith("_") and isinstance(fn, types.FunctionType), key
        assert fn.__module__ == module.__name__, key


# OpenBLAS runs no more threads than the process may use CPUs.
_TWO = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 2
_MC_SWEEP = _CLI.format(argv=["sweep", "config.json", "out", "--mode", "mc"]) + "; assert 'scipy.special' in sys.modules"
_POLICY = {
    "default": ("import radiomap.cli", {}, ["1", 1]),
    "default-after-mc-sweep": (_MC_SWEEP, {}, ["1", 1]),
    "openblas-preset": ("import radiomap.cli", {"OPENBLAS_NUM_THREADS": "2"}, ["2", _TWO]),
    "omp-preset": ("import radiomap.cli", {"OMP_NUM_THREADS": "2"}, [None, _TWO]),
}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize("call, blas, expected", _POLICY.values(), ids=_POLICY.keys())
def test_one_blas_thread_unless_the_caller_chose(tmp_path, call, blas, expected):
    # the variable radiomap leaves set and the threads of the process: numpy's OpenBLAS, and
    # scipy's own, loaded at the first draw, start none of their own at one thread
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    code = f"""import json, os, sys
{call}
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""
    assert run_fresh(code, tmp_path, blas=blas) == expected


def _policy_calls(perfbench, tmp_path: Path, case: str) -> list[list[str]]:
    """A case's CLI calls, their configs written under tmp_path, each call with its own output directory."""
    if case == "analytic-res256":  # an analytic sweep whose c @ c_n products OpenBLAS splits over its default pool
        analytic = dataclasses.replace(perfbench.WORKLOADS["sweep-analytic"], resolution=256)
        (tmp_path / "res256.json").write_text(json.dumps({**analytic.config(3), "ratios": [0.3, 3.0]}))
        return [analytic.argv("res256.json", "res256")]
    calls = []
    for name, workload in perfbench.WORKLOADS.items():
        workload = perfbench.toy(workload)
        (tmp_path / f"{name}.json").write_text(json.dumps(workload.config(3)))
        calls += [workload.argv(f"{name}.json", f"{name}-{t}", threads=t) for t in (1, 2)]
    return calls


@pytest.mark.parametrize("case, csvs", [("perfbench-toy", 8), ("analytic-res256", 1)])
def test_blas_thread_policy_moves_no_bit(tmp_path, perfbench, case, csvs):
    # radiomap imported first (one BLAS thread) against numpy imported first under a pool of two:
    # the same CSV bytes. The two sides run at once.
    calls = _policy_calls(perfbench, tmp_path, case)
    sides = {"one": ("", {}), "pool": ("import numpy", {"OPENBLAS_NUM_THREADS": "2"})}
    procs = []
    for side, (first, blas) in sides.items():
        argvs = [[*argv[:2], f"{side}/{argv[2]}", *argv[3:]] for argv in calls]
        code = f"""import json
{first}
from radiomap.cli import main
print(json.dumps([main(argv) for argv in {argvs!r}]))
"""
        procs.append(start_fresh(code, tmp_path, blas=blas))
    assert [finish(proc) for proc in procs] == [[0] * len(calls)] * 2
    one, pool = ({str(p.relative_to(tmp_path / s)): p.read_bytes() for p in (tmp_path / s).rglob("*.csv")} for s in sides)
    assert one == pool and len(one) == csvs


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_correlation_bits_do_not_depend_on_blas_threads(tmp_path):
    # one point's product at R = 2 x 10^5, which OpenBLAS splits over a pool of two, and windows of it:
    # the same bits on one BLAS thread and on two. The two sides run at once.
    code = """import hashlib, json, os
import numpy as np
from radiomap import CorrelationModel, Point, build_square_scenario
from radiomap.field import _correlate_rows, joint_cholesky, standard_normal_block
model = CorrelationModel("elliptical", sigma=5.0, xc=1280.0, axis_ratio=3.3, rotation=0.5)
lower = joint_cholesky(build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, model), Point(30.0, 600.0))
z = standard_normal_block(21, 5, 5, 200000)
block = _correlate_rows(z, lower)
windows = all(
    _correlate_rows(z[first : first + width], lower).tobytes() == block[first : first + width].tobytes()
    for width in (1, 2, 7, 2000)
    for first in (0, 1, 99999, 200000 - width)
)
print(json.dumps([hashlib.sha256(block.tobytes()).hexdigest(), windows, len(os.listdir("/proc/self/task"))]))
"""
    procs = [start_fresh(code, tmp_path, blas={"OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
    one, two = (finish(proc) for proc in procs)
    # the main thread, then numpy's pool and scipy's, loaded at the first draw, each of _TWO threads
    assert one[1:] == [True, 1] and two[1:] == [True, 1 + 2 * (_TWO - 1)]
    assert one[0] == two[0]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
def test_monte_carlo_bits_do_not_depend_on_blas_threads(tmp_path):
    # every method at one point and two ratios, R = 2 x 10^5: each ratio's product, (6, 12) weights against
    # 12 rows, passes OpenBLAS's 10^6 multiply-adds below which it runs on one thread, so a pool of two
    # splits it. The same bits on one BLAS thread and on two. The two sides run at once.
    code = """import hashlib, json, os
from radiomap import ExperimentConfig
from radiomap.analysis import sweep_setup
from radiomap.harness import _mc_rmse
cfg = ExperimentConfig(resolution=1, ratios=(0.2, 5.0), master_seed=3, nu=2)
models = [cfg.correlation_for_ratio(r) for r in cfg.ratios]
setup = sweep_setup(cfg.scenario(0.2), cfg.grid().xy, cfg.methods, models, cfg.nu, joint=True)
rmse = _mc_rmse(setup, [0], 200000, cfg.master_seed)
print(json.dumps([hashlib.sha256(rmse.tobytes()).hexdigest(), rmse.shape, len(os.listdir("/proc/self/task"))]))
"""
    procs = [start_fresh(code, tmp_path, blas={"OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
    one, two = (finish(proc) for proc in procs)
    assert one[1:] == [[2, 6, 1], 1] and two[1:] == [[2, 6, 1], 1 + 2 * (_TWO - 1)]
    assert one[0] == two[0]
