"""radiomap benchmark: drive the real CLI on one named workload.

    python3 perfbench/run.py --workload sweep-analytic --seed 1 --seconds 40 --trace 0

Each sample is a fresh interpreter (perfbench/child.py) running one
``radiomap.cli.main`` call, back to back with one client: a closed loop.
One set-up-only child checks the checkout before the loop. The loop
starts another call while half the last one's duration still fits in
--seconds, and always makes at least one (two with --trace 1: one plain,
one traced).

Every call's outputs are checked after the child exits, outside the timed
region. A call that exits non-zero or fails the check counts as failed.

With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer metrics, from traced calls alternated with plain ones. End-to-end
times are host-speed corrected by a fixed calibration task timed in the
same children (see README.md, "Noise"). The last stdout line is the JSON
result; a full record with the environment and every sample is written
under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, StaleReferenceError, Workload, check_outputs, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 150.0

# Median time of one calibration repetition (child.calibrate), by thread
# count, on the 2-core Xeon VM the benchmark was tuned on. Corrected times
# read as seconds on a host that runs the calibration at this speed.
CALIBRATION_REFERENCE_S = {1: 0.027, 2: 0.053}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Functions whose calls and self time are reported one by one.
TRACED_FUNCTIONS = (
    "correlation.covariance_matrix",
    "correlation.cross_covariance",
    "linalg.cholesky",
    "linalg.solve_spd",
    "linalg.quadratic_form",
    "estimators.sm0_weights",
    "estimators.sm2_weights",
    "estimators.as_affine",
    "estimators.sibson_weights",
    "analysis.error_form",
    "analysis.analytic_rmse",
    "field.standard_normal_block",
    "field.sample_shadow_block",
    "field.joint_cholesky",
)
# Layers whose total self time is reported; validation is never called.
LAYER_TOTALS = ("geometry", "correlation", "linalg", "estimators", "analysis", "field", "harness", "cli", "svgplot")

PER_LAYER = {
    **{f"{f}.{kind}": unit for f in TRACED_FUNCTIONS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "linalg.cholesky.distinct_inputs": "count",
    "linalg.quadratic_form.negative": "count",
    "estimators.sibson_weights.distinct_inputs": "count",
    "field.standard_normal_block.normals": "count",
    "field.standard_normal_block.used_frac": "ratio",
    "field.standard_normal_block.normals_per_s": "1/s",
    **{f"{layer}.self_s": "s" for layer in LAYER_TOTALS},
    "harness.pool_wait_s": "s",
    "harness.cpu_util": "ratio",
    "cli.load_config.self_s": "s",
    "cli.bytes_written": "bytes",
    "svgplot.heatmap.self_s": "s",
    "svgplot.line_chart.self_s": "s",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


# ---------------------------------------------------------------------------
# children


def _child(tag: str, config: Path, trace: bool, cli_args: list[str]) -> dict:
    """Run one child and return its result; a failure carries the reason under 'error'."""
    result_path = config.parent / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(SRC), str(config), "1" if trace else "0"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            cmd + cli_args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:g} s"}
    try:
        result = json.loads(result_path.read_text())
        result_path.unlink()
    except (OSError, json.JSONDecodeError) as err:
        return {"error": f"child exited {proc.returncode} without a result ({err}): {proc.stderr.strip()[-2000:]}"}
    if result.get("rc", 0) != 0:
        result["error"] = f"radiomap exited {result['rc']}: {proc.stderr.strip()[-2000:]}"
    return result


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.glob("*.csv")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def measure(workload: Workload, seed: int, seconds: float, trace: bool, reference: dict | None) -> dict:
    """A set-up probe, then the timed closed loop; every sample and check."""
    if not (SRC / "radiomap" / "cli.py").is_file():
        raise SetupError(f"no radiomap sources under {SRC}")
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workload.config(seed), indent=2) + "\n")

        probe = _child("probe", config, False, [])
        if "error" in probe:
            raise SetupError(f"set-up probe failed: {probe['error']}")

        calls = []
        first_digest = None
        start = time.perf_counter()
        while True:
            t_call = time.perf_counter()
            traced = trace and len(calls) % 2 == 1
            out_dir = work / f"out{len(calls)}"
            argv = workload.argv(str(config.relative_to(ROOT)), str(out_dir.relative_to(ROOT)))
            res = _child(f"call{len(calls)}", config, traced, argv)
            res["traced"] = traced
            problems = [res["error"]] if "error" in res else check_outputs(workload, out_dir, reference)
            if not problems:
                digest = _digest(out_dir)
                first_digest = first_digest or digest
                if digest != first_digest:
                    problems.append("CSV bytes differ from the first call of this run")
            res["problems"] = problems
            calls.append(res)
            shutil.rmtree(out_dir, ignore_errors=True)

            last = time.perf_counter() - t_call
            elapsed = time.perf_counter() - start
            need_pair = trace and len(calls) < 2
            # Start another call if it should end within half a call of the
            # budget, so the measured time averages to --seconds.
            if not need_pair and elapsed + last / 2 > seconds:
                break
        return {"argv": argv, "config": workload.config(seed), "probe": probe, "calls": calls}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _plain_calls(m: dict) -> list[dict]:
    return [c for c in m["calls"] if not c["traced"] and "run_s" in c]


def _speed(calls: list[dict], calib_key: str, threads: int) -> float:
    """Mean host speed over some calls, relative to the reference: above 1 is faster."""
    calib = [t for c in calls for t in c[calib_key]]
    return CALIBRATION_REFERENCE_S[threads] / statistics.fmean(calib) if calib else float("nan")


def _corrected(calls: list[dict], key: str, calib_key: str, threads: int) -> float:
    """The mean of a time over some calls, scaled to the reference host speed.

    The host flips between speeds faster than one call lasts, so a call's
    own calibration misjudges it; means over the whole run average both
    over the same mix of fast and slow stretches.
    """
    if not calls:
        return float("nan")
    return statistics.fmean(c[key] for c in calls) * _speed(calls, calib_key, threads)


def _corrected_run_s(workload: Workload, calls: list[dict]) -> float:
    return _corrected(calls, "run_s", "run_calib_s", workload.threads)


def _setup_calls(m: dict) -> list[dict]:
    return [m["probe"]] + [c for c in m["calls"] if "setup_s" in c]


def end_to_end(workload: Workload, m: dict) -> dict[str, float]:
    plain = _plain_calls(m)
    # Corrected means: on a shared 2-core Xeon VM the host's speed swings by
    # tens of percent, and only a task timed next to the calls follows it
    # (see perfbench/README.md, "Noise"). Set-up runs on one thread.
    run_s = _corrected_run_s(workload, plain)
    return {
        "setup_s": _corrected(_setup_calls(m), "setup_s", "setup_calib_s", 1),
        "run_s": run_s,
        "evals_per_s": workload.evals / run_s,
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in plain]),
    }


def _layer_metrics(call: dict) -> dict[str, float]:
    t = call["trace"]
    stats = t["stats"]

    def stat(key: str, i: int) -> float:
        return stats.get(key, [0, 0.0, 0.0])[i]

    out: dict[str, float] = {}
    for f in TRACED_FUNCTIONS:
        out[f"{f}.calls"] = stat(f, 0)
        out[f"{f}.self_s"] = stat(f, 1)
    out["linalg.cholesky.distinct_inputs"] = t["distinct"].get("linalg.cholesky", 0)
    out["estimators.sibson_weights.distinct_inputs"] = t["distinct"].get("estimators.sibson_weights", 0)
    out["linalg.quadratic_form.negative"] = t["counters"].get("linalg.quadratic_form.negative", 0)
    normals = t["counters"].get("field.standard_normal_block.normals", 0)
    words = t["counters"].get("field.standard_normal_block.words", 0)
    block_s = stat("field.standard_normal_block", 2)
    out["field.standard_normal_block.normals"] = normals
    out["field.standard_normal_block.used_frac"] = normals / words if words else 0.0
    out["field.standard_normal_block.normals_per_s"] = normals / block_s if block_s else 0.0
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = sum(
            v[1] for k, v in stats.items() if k.startswith(layer + ".") and k != "harness.pool_wait"
        )
    out["harness.pool_wait_s"] = stat("harness.pool_wait", 1)
    out["cli.load_config.self_s"] = stat("cli.load_config", 1)
    out["cli.bytes_written"] = call["bytes_written"]
    out["svgplot.heatmap.self_s"] = stat("svgplot.heatmap", 1)
    out["svgplot.line_chart.self_s"] = stat("svgplot.line_chart", 1)
    return out


def per_layer(workload: Workload, m: dict) -> dict[str, float]:
    traced = [c for c in m["calls"] if c["traced"] and "trace" in c]
    plain = _plain_calls(m)
    per_call = [_layer_metrics(c) for c in traced]
    out = {k: _median([pc[k] for pc in per_call]) for k in per_call[0]} if per_call else {}
    out["harness.cpu_util"] = _median([c["cpu_s"] / (c["run_s"] * workload.threads) for c in plain])
    out["trace.overhead_s"] = _corrected_run_s(workload, traced) - _corrected_run_s(workload, plain)
    return out


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "radiomap").rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(workload: Workload, seed: int, m: dict) -> dict:
    versions = m["probe"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": workload.name,
        "seed": seed,
        "threads": workload.threads,
        "argv": ["radiomap", *m["argv"]],
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        reference = load_reference(workload, args.seed)
        m = measure(workload, args.seed, args.seconds, trace, reference)
    except (SetupError, StaleReferenceError) as err:
        print(f"benchmark cannot run: {err}", file=sys.stderr)
        return 2

    attempted = len(m["calls"])
    failed = sum(1 for c in m["calls"] if c["problems"])
    values = per_layer(workload, m) if trace else end_to_end(workload, m)
    units = PER_LAYER if trace else END_TO_END
    plain = _plain_calls(m)

    record = {
        "environment": environment(workload, args.seed, m),
        "evals_per_call": workload.evals,
        "calibration_reference_s": CALIBRATION_REFERENCE_S,
        "samples": {
            "setup_s": [c["setup_s"] for c in _setup_calls(m)],
            "setup_calib_s": [c["setup_calib_s"] for c in _setup_calls(m)],
            "run_s": [c["run_s"] for c in plain],
            "run_calib_s": [c["run_calib_s"] for c in plain],
        },
        "host_speed": _speed(plain, "run_calib_s", workload.threads),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": [c["problems"] for c in m["calls"] if c["problems"]],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
        "traces": [c["trace"] for c in m["calls"] if c.get("trace")],
        "config": m["config"],
    }
    record_path = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for problems in record["problems"]:
        print(f"FAILED: {'; '.join(problems)}", file=sys.stderr)
    print(f"# {workload.name} seed {args.seed}: {attempted} calls, {failed} failed "
          f"(failed_frac {failed / attempted:g}); {len(plain)} plain run_s samples, "
          f"uncorrected median {_median(record['samples']['run_s']):.6g} s, "
          f"host speed {record['host_speed']:.4g} of reference; "
          f"{workload.evals} evals per call; record {record_path}")
    for name, metric in record["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
