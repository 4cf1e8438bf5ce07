import importlib.util
import sys
from pathlib import Path

import pytest

from radiomap import CorrelationModel, Point, build_square_scenario


@pytest.fixture
def table_model():
    """Exponential kernel at the reference square's scale (spacing ratio 1)."""
    return CorrelationModel("exponential", sigma=5.0, xc=640.0)


@pytest.fixture
def table_scenario(table_model):
    """Reference square: side 640 m, emitter at (-100, 0), urban-macro constants."""
    return build_square_scenario(640.0, Point(-100.0, 0.0), 15.3, 3.76, table_model)


@pytest.fixture(scope="session")
def perfbench():
    """perfbench/workloads.py, loaded by path: the workload configs and the reference checker."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module
