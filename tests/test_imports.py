"""Which calls import scipy, each checked in a fresh interpreter.

field.standard_normal_block imports scipy.special.ndtri at the first normal
draw, so importing radiomap and every analytic call stay numpy-only, while a
Monte Carlo call brings scipy in. Other tests import scipy into the test
process, so each case runs in a child interpreter that imports radiomap from
the same directory as this test did.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radiomap

SRC_DIR = str(Path(radiomap.__file__).resolve().parent.parent)

CONFIG = {"resolution": 2, "realizations": 20, "ratios": [0.5, 1.0], "master_seed": 7, "mode": "analytic"}


def run_fresh(code: str, cwd: Path) -> list:
    """Run code in a fresh interpreter and return the JSON of its last stdout line."""
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
