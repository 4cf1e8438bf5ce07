"""One benchmark sample: a fresh interpreter that runs one radiomap CLI call.

Usage: child.py RESULT.json SRC_DIR CONFIG.json TRACE(0|1) [CLI ARG ...]

Set-up is timed from before ``import radiomap.cli`` to after ``load_config``,
which every CLI call pays. With no CLI arguments the child stops there. The
run is ``radiomap.cli.main(args)`` timed around the call. With TRACE 1 the
tracer is installed between the two, so set-up is never traced.

A fixed calibration task is timed on one thread right after set-up, and
just before and just after the run on as many threads as the run, in the
same process. It measures how fast the host runs this kind of code at that
moment; run.py divides by it (see "Noise" in README.md).
"""

import sys
import time

CALIBRATION_REPS = 8


def _calibration_task(np, ndtri, A, b) -> None:
    """About 25 ms of the program's kinds of work, with fixed inputs."""
    s = 0.0
    for i in range(40000):
        s += (i * 0.5) ** 0.5 * 1.0001
    for _ in range(400):
        np.linalg.solve(A, b)
        np.linalg.cholesky(A)
    u = np.random.Generator(np.random.Philox(key=12345)).random(200000)
    ndtri(u).reshape(-1, 8)[:, :5].sum()


def calibrate(threads: int = 1) -> list[float]:
    """Wall time of each repetition of the calibration task, run on `threads` threads at once."""
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np
    from scipy.special import ndtri

    A = np.eye(8) * 2.0 + 0.1
    b = np.arange(8.0)
    times = []
    with ThreadPoolExecutor(threads) as pool:
        for _ in range(CALIBRATION_REPS):
            t0 = time.perf_counter()
            list(pool.map(lambda _: _calibration_task(np, ndtri, A, b), range(threads)))
            times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    result_path, src_dir, config_path, trace = sys.argv[1:5]
    cli_args = sys.argv[5:]

    t0 = time.perf_counter()
    import radiomap.cli as cli

    cli.load_config(config_path)
    setup_s = time.perf_counter() - t0

    import json
    import resource
    from pathlib import Path

    import numpy
    import scipy
    import radiomap

    src = Path(src_dir).resolve()
    if src not in Path(radiomap.__file__).resolve().parents:
        print(f"radiomap imported from {radiomap.__file__}, not from {src}", file=sys.stderr)
        return 2

    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setup_calib_s": calibrate(),
    }
    if cli_args:
        tracer = None
        if trace == "1":
            import tracer as tracing

            tracer = tracing.Tracer()
            bindings = tracing.install(tracer)
        threads = int(cli_args[cli_args.index("--threads") + 1])
        calib_before = result["setup_calib_s"] if threads == 1 else calibrate(threads)
        cpu0 = time.process_time()
        t1 = time.perf_counter()
        rc = cli.main(cli_args)
        result["run_s"] = time.perf_counter() - t1
        result["cpu_s"] = time.process_time() - cpu0
        result["rc"] = rc
        result["run_calib_s"] = calib_before + calibrate(threads)
        out_dir = Path(cli_args[2])
        result["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        if tracer is not None:
            stats, distinct, counters = tracer.merged()
            result["trace"] = {
                "stats": stats,
                "distinct": distinct,
                "counters": counters,
                "spans": tracer.spans,
                "bindings_patched": bindings,
            }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
