"""The README's "Library use" code runs as written, a refused set-up names its row, and its list of refusals follows
the refusal table, so a renamed documented entry or a moved row fails here instead of going stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    """The Python code blocks of the README's "Library use" section, in order."""
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_use_blocks_run():
    # each block on its own, as a reader would paste it
    blocks = library_use_blocks()
    assert blocks
    for number, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md, Library use block {number}", "exec"), {})


def test_refusal_list_names_every_row_of_the_table_in_order():
    from radiomap.analysis import _REFUSALS

    section = README.read_text().split("`analysis._REFUSALS`", 1)[1]
    items = re.findall(r"^\d+\. `([^`]+)` \(exit (\d)", section.split("\n\n", 2)[1], flags=re.M)
    assert items == [(name, "2") for name in _REFUSALS]


def test_library_setup_names_its_refusal():
    # the Gaussian sensor covariance at ratio 3e-4, as README's library use builds it, is refused by its row
    from radiomap import ExperimentConfig
    from radiomap.analysis import SetupRefusal, sweep_setup

    cfg = ExperimentConfig(kernel="gaussian", ratios=(3e-4,))
    with pytest.raises(SetupRefusal) as exc:
        sweep_setup([cfg.scenario(r) for r in cfg.ratios], cfg.grid().xy, cfg.methods, cfg.nu)
    assert (exc.value.row, exc.value.ratio_index) == ("first-ratio factor", 0)
    assert str(exc.value) == "matrix is not positive definite: pivot 3 is 8.41993e-13"
