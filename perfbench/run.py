"""rigiform benchmark: one workload, driven through `rigiform.cli.main`.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a rigiform checkout and imports the package from its
`src/` tree.  Workloads are defined in workloads.py.  Each run:

1. writes the workload's inputs from the seed and runs one untimed warm-up
   cycle;
2. measures set-up time: a fresh interpreter imports rigiform and loads the
   workload's input scenarios, SETUP_REPEATS times;
3. repeats the workload's cycle of commands, in this process, until
   `--seconds` have passed, checking the output of every command.

With `--trace 0` it reports the end-to-end metrics, with times scaled to the
reference speed of calibration.py (raw wall times are in the info line).
With `--trace 1` it alternates untraced and traced passes over the same
cycle and reports the per-layer metrics and the tracing overhead (traced
minus untraced wall).
The last stdout line is the result object; the line before it carries the
machine facts and the timing distributions.  Spans of a traced run are
written to .perfbench/spans-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import calibration
from calibration import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
HELD_OUT_SEED = 23  # keep unused while developing a change; confirm its claim on this seed
BLAS_THREADS = 1  # one core: see README, "Steady timings"
SETUP_REPEATS = 15


def highest_percentile(values):
    """(percentile, value) for the highest percentile that has at least ten
    samples above it, or None with fewer than 20 samples."""
    count = len(values)
    if count < 20:
        return None
    p = int(100 * (1 - 10 / count))
    return p, statistics.quantiles(values, n=100)[p - 1]


def timing_summary(values):
    tail = highest_percentile(values)
    return {
        "count": len(values),
        "median_s": statistics.median(values) if values else None,
        "tail": None if tail is None else {"percentile": tail[0], "value_s": tail[1]},
    }


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": blas_threads(),
    }


class Runner:
    """Executes commands in-process, times them and keeps the tally.  With
    `calibrate`, a reference-loop sample is taken between commands and the
    time of each command marked `scaled` is its wall time scaled to the
    reference speed; `walls` keeps the raw wall times."""

    def __init__(self, cli_main, calibrate=False):
        self.cli_main = cli_main
        self.calibrate = calibrate
        self.speed_sample = None
        self.walls: list[float] = []
        self.speeds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, op, tracer=None):
        """Run one command; return its time in seconds (scaled, when
        calibrating)."""
        if op.prepare is not None:
            op.prepare()
        if self.calibrate and self.speed_sample is None:
            self.speed_sample = calibration.sample()
        stdout, stderr = io.StringIO(), io.StringIO()
        reason = None
        start = perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if tracer is None:
                    code = self.cli_main(op.argv)
                else:
                    with tracer.span(f"cli.{op.kind}"):
                        code = self.cli_main(op.argv)
        except (Exception, SystemExit) as exc:  # a failed command is counted, not fatal
            code = None
            reason = f"raised {type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        if self.calibrate:
            before, self.speed_sample = self.speed_sample, calibration.sample()
            self.walls.append(wall)
            self.speeds.append(REFERENCE_S / (0.5 * (before + self.speed_sample)))
            if op.scaled:
                wall = calibration.scale(wall, before, self.speed_sample)
        if reason is None and code != 0:
            reason = f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
        if reason is None:
            try:
                reason = op.check(stdout.getvalue())
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{' '.join(op.argv)}: {reason}")
        return wall

    def cycle(self, ops, tracer=None):
        """Run a cycle; return [(op, wall)]."""
        return [(op, self.execute(op, tracer)) for op in ops]


def setup_seconds(files):
    """Median over SETUP_REPEATS fresh interpreters of import plus load,
    each scaled by the reference-loop samples taken around it; also the
    raw wall times."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, files)]
    values, walls = [], []
    after = calibration.sample()
    for _ in range(SETUP_REPEATS):
        before = after
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=False)
        after = calibration.sample()
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-300:]}")
        walls.append(float(done.stdout.strip().splitlines()[-1]))
        values.append(calibration.scale(walls[-1], before, after))
    return statistics.median(values), walls


def end_to_end(cycles):
    """Per-command medians (each cycle's mean per kind, median over cycles),
    steps per second, and the distributions behind them."""
    metrics, timings = {}, {}
    for kind in ("generate", "check", "run"):
        means = []
        walls = []
        for records in cycles:
            mine = [wall for op, wall in records if op.kind == kind]
            walls += mine
            if mine:
                means.append(sum(mine) / len(mine))
        metrics[f"{kind}_s"] = statistics.median(means)
        timings[kind] = timing_summary(walls)
    rates = []
    for records in cycles:
        runs = [(op, wall) for op, wall in records if op.kind == "run"]
        rates.append(sum(op.steps for op, _ in runs) / sum(wall for _, wall in runs))
    metrics["steps_per_s"] = statistics.median(rates)
    timings["steps_per_s_per_cycle"] = rates
    return metrics, timings


def measure(runner, workload, seconds):
    cycles = []
    start = perf_counter()
    while not cycles or perf_counter() - start < seconds:
        cycles.append(runner.cycle(workload.cycle(len(cycles))))
    return cycles


def measure_traced(runner, workload, seconds):
    """Pairs of untraced and traced passes over the same cycle, alternating
    which goes first.  Returns (tracer, traced span ranges, pair walls)."""
    from tracing import Tracer

    tracer = Tracer()
    ranges, pairs = [], []
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        index = len(pairs)
        walls = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                first = len(tracer.spans)
            try:
                records = runner.cycle(workload.cycle(index), tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                ranges.append((first, len(tracer.spans)))
            walls[traced] = sum(wall for _, wall in records)
        pairs.append(walls)
    return tracer, ranges, pairs


def main(argv=None):
    from workloads import VARIANTS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                             "for confirming a claimed gain)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "rigiform" / "__init__.py").is_file():
        print(f"perfbench: no rigiform package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import rigiform
    from rigiform.cli import main as cli_main

    if Path(rigiform.__file__).resolve().parent != SRC / "rigiform":
        print(f"perfbench: imported rigiform from {rigiform.__file__}, not {SRC}", file=sys.stderr)
        return 1

    variant = args.seed % VARIANTS
    references = json.loads((HERE / "reference.json").read_text())
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](
            variant, work, references["workloads"].get(args.workload, {}).get(str(variant), {})
        )
        runner = Runner(cli_main, calibrate=not args.trace)
        workload.prepare()
        runner.cycle(workload.cycle(-1))
        setup, setup_values = setup_seconds(workload.setup_files())

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "variant": variant,
            "machine": machine_facts(),
            "setup_wall_s": setup_values,
        }
        if args.trace:
            from tracing import layer_metrics, self_times

            tracer, ranges, pairs = measure_traced(runner, workload, args.seconds)
            overhead = [p[True] - p[False] for p in pairs]
            metrics = layer_metrics(tracer, ranges)
            metrics["trace.overhead_s"] = statistics.median(overhead)
            metrics["trace.overhead_share"] = (
                metrics["trace.overhead_s"] / statistics.median(p[False] for p in pairs)
            )
            info["cycles"] = len(pairs)
            info["self_s_per_cycle"] = self_times(tracer, ranges)
            spans_file = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
            spans_file.write_text(json.dumps(tracer.export()) + "\n")
            info["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            first = len(runner.walls)
            cycles = measure(runner, workload, args.seconds)
            metrics, info["timings"] = end_to_end(cycles)
            raw = iter(runner.walls[first:])
            info["wall"] = end_to_end([[(op, next(raw)) for op, _ in records]
                                       for records in cycles])[0]
            info["wall"]["setup_s"] = statistics.median(setup_values)
            speeds = runner.speeds[first:]
            info["speed"] = {"median": statistics.median(speeds), "min": min(speeds),
                             "max": max(speeds)}
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["success_ratio"] = (runner.attempted - runner.failed) / runner.attempted
            info["cycles"] = len(cycles)
        info["runs"] = [
            {"dim": dim, "n": n, "edges": edges} for dim, n, edges in sorted(workload.run_shapes)
        ]
        info["failures"] = runner.failures
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def pin_blas():
    """Fix the BLAS pool size; effective only before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


if __name__ == "__main__":
    pin_blas()
    sys.exit(main())
