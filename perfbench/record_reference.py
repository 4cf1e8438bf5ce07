"""Record the reference outputs the benchmark checks every call against.

    python3 perfbench/record_reference.py 0 9

Runs each workload once per seed in the given inclusive range, with one
thread, and stores every CSV value in perfbench/reference/<workload>.json.gz.
Re-record only when the workloads themselves change: a change to the
program must reproduce the recorded values within 1e-9 dB.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from dataclasses import asdict

import run
from workloads import REFERENCE_DIR, WORKLOADS, check_outputs, output_values, reference_path


def main() -> int:
    first, last = (int(a) for a in sys.argv[1:3])
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        seeds = {}
        for seed in range(first, last + 1):
            work = run.WORK / f"reference-{workload.name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                config = work / "config.json"
                config.write_text(json.dumps(workload.config(seed)))
                out = work / "out"
                res = run._child("call", config, False, workload.argv(str(config), str(out), threads=1))
                problems = [res["error"]] if "error" in res else check_outputs(workload, out, None)
                if problems:
                    print(f"{workload.name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = output_values(workload, out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"{workload.name} seed {seed} recorded")
        doc = {"workload": asdict(workload), "source_sha256": run._source_digest(), "seeds": seeds}
        with gzip.GzipFile(reference_path(workload), "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, sort_keys=True).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
