"""Record perfbench/reference.json: the final error and final estimate of
every reference-checked run, for every input variant.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are trusted; the file it
writes is what later runs of the benchmark compare against.  It also runs
every other check of the warm-up cycle, and refuses to write when one fails.
"""

from __future__ import annotations

import json
import platform
import shutil
import sys

from run import BLAS_THREADS, HERE, ROOT, SRC, Runner, pin_blas

RECORDED = ("builtin-replicate", "integrate-large")


def main():
    sys.path.insert(0, str(SRC))
    import numpy
    from rigiform.cli import main as cli_main
    from workloads import RTOL, VARIANTS, WORKLOADS, reduce_estimate

    work = ROOT / ".perfbench" / "record"
    out = {
        "rtol": RTOL,
        "recorded_with": {"python": platform.python_version(), "numpy": numpy.__version__,
                          "blas_threads": BLAS_THREADS},
        "workloads": {},
    }
    for name in RECORDED:
        table = out["workloads"][name] = {}
        for variant in range(VARIANTS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            workload = WORKLOADS[name](variant, work, None)
            runner = Runner(cli_main)
            workload.prepare()
            runner.cycle(workload.cycle(-1))
            if runner.failed:
                print(f"{name} variant {variant}: {runner.failures}", file=sys.stderr)
                return 1
            table[str(variant)] = {
                key: {"final_error": seen["final_error"], "muhat": reduce_estimate(seen["muhat"])}
                for key, seen in sorted(workload.observed.items())
            }
            print(f"{name} variant {variant} recorded", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    pin_blas()
    sys.exit(main())
