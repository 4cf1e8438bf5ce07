"""Self-test of the benchmark at toy size (res 4, 100 realizations).

    python3 perfbench/selftest.py

For every workload, a plain and a traced measurement must emit exactly the
metrics BENCHMARK.json names, all finite, with every call correct. The
stream contract pins the normal count, so the tracer must count it exactly.
As a negative control, outputs with one value perturbed, one value made
non-finite, or (for sweeps) sm0 not the lowest method must each fail the
checker. Exits non-zero on the first failure.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import sys

import run
from workloads import N_RATIOS, WORKLOADS, check_outputs, output_values, toy

SEED = 1


def _metric_units(kind: str) -> dict[str, str]:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def _fail(msg: str) -> None:
    print(f"selftest FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def check_metrics(name: str, workload) -> None:
    for trace, kind, compute, units in (
        (False, "end_to_end", run.end_to_end, run.END_TO_END),
        (True, "per_layer", run.per_layer, run.PER_LAYER),
    ):
        m = run.measure(workload, SEED, 0.0, trace, reference=None)
        bad = [c["problems"] for c in m["calls"] if c["problems"]]
        if bad:
            _fail(f"{name} trace={int(trace)}: {bad}")
        metrics = compute(workload, m)
        expected = _metric_units(kind)
        if sorted(metrics) != sorted(expected) or units != expected:
            _fail(f"{name} {kind}: metrics or units differ from BENCHMARK.json")
        nonfinite = [k for k, v in metrics.items() if not math.isfinite(v)]
        if nonfinite:
            _fail(f"{name} {kind}: non-finite {nonfinite}")
        if trace:
            check_stream_counts(name, workload, metrics)
        print(f"{name} trace={int(trace)}: {len(metrics)} metrics ok")


def check_stream_counts(name: str, workload, metrics: dict) -> None:
    """Normals drawn are fixed by the stream contract: 5 per realization per point."""
    if workload.mode == "analytic":
        expected = 0
    else:
        ratios = N_RATIOS if workload.command == "sweep" else 1
        expected = workload.resolution**2 * ratios * workload.realizations * 5
    got = metrics["field.standard_normal_block.normals"]
    if got != expected:
        _fail(f"{name}: traced {got} normals, the stream contract gives {expected}")
    if expected and metrics["field.standard_normal_block.used_frac"] != 5 / 8:
        _fail(f"{name}: used_frac {metrics['field.standard_normal_block.used_frac']} != 5/8")


def _edit_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def negative_control(name: str, workload) -> None:
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workload.config(SEED)))
        out = work / "out"
        res = run._child("call", config, False, workload.argv(str(config), str(out)))
        if "error" in res:
            _fail(f"{name}: {res['error']}")
        reference = output_values(workload, out)
        if check_outputs(workload, out, reference):
            _fail(f"{name}: unperturbed outputs fail the checker")

        main_csv = out / ("sweep.csv" if workload.command == "sweep" else "grid.csv")
        col = 2
        pristine = main_csv.read_bytes()
        cases = {
            "value + 1e-6 dB": lambda rows: rows[1].__setitem__(col, repr(float(rows[1][col]) + 1e-6)),
            "non-finite value": lambda rows: rows[1].__setitem__(col, "nan"),
        }
        if workload.command == "sweep":
            # rows 1..6 are ratio 0.05, sm0 first
            cases["sm0 above another method"] = lambda rows: rows[1].__setitem__(col, repr(float(rows[2][col]) + 1.0))
        for label, edit in cases.items():
            main_csv.write_bytes(pristine)
            _edit_csv(main_csv, edit)
            if not check_outputs(workload, out, reference):
                _fail(f"{name}: checker accepted outputs with {label}")
            if label == "sm0 above another method" and not check_outputs(workload, out, None):
                _fail(f"{name}: order check alone missed {label}")
        print(f"{name}: negative control rejected {len(cases)} perturbations")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    for name, workload in WORKLOADS.items():
        small = toy(workload)
        check_metrics(name, small)
        negative_control(name, small)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
