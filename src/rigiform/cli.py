"""Command-line front end.

Subcommands: check (print a target's certificate), run (integrate one
scenario), generate (emit a random certified scenario file), replicate
(run a built-in scenario with and without the estimator and summarize the
contrast).  Exit codes: 0 success or certified, 1 validation failure,
2 divergence during integration.

Timing is printed to stdout or stored in replicate's summary.json but
never in verdict.json, which stays a pure function of the scenario so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import certificate
# unused here, these stay importable: perfbench/tracing.py wraps them by name
from .analysis import is_hurwitz, is_infinitesimally_rigid, stability_matrix  # noqa: F401
from .rigidity import is_minimally_rigid  # noqa: F401
from .scenario import BUILTIN_NAMES, MODES, ScenarioError, builtin_scenario, canonical_json, \
    generate_scenario, load_scenario, save_scenario
from .sim import RunVerdict, run_verdict, stream_run
from .sim import integrate, write_csv  # noqa: F401  unused here, wrapped like those above


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; that code means divergence
    here, so usage problems are remapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _say(*values) -> None:
    """print to stdout.  Once stdout's reader has gone, stdout points at
    os.devnull, so the command still ends with its own exit code."""
    try:
        print(*values, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _resolve_scenario(ref: str):
    path = Path(ref)
    if path.is_file():
        return load_scenario(path)
    if ref in BUILTIN_NAMES:
        return builtin_scenario(ref)
    raise ScenarioError(
        f"'{ref}' is neither a scenario file nor a built-in name "
        f"(built-ins: {', '.join(BUILTIN_NAMES)})"
    )


def cmd_check(args) -> int:
    sc = _resolve_scenario(args.scenario)
    fw = sc.framework_target()
    cert = certificate(fw)
    if args.json:
        _say(canonical_json({"scenario": sc.name, **cert.to_dict()}))
    else:
        rigidity = ("" if cert.infinitesimally_rigid else "not ") + "infinitesimally rigid"
        if cert.minimally_rigid:
            rigidity += ", minimally rigid"
        _say(f"scenario {sc.name}: {fw.graph.n} agents, {fw.graph.edge_count} edges, dim {fw.dim}")
        _say(f"rank {cert.rank} of {cert.rank_needed} needed: {rigidity}")
        hurwitz = "hurwitz" if cert.hurwitz else "not hurwitz"
        _say(f"stability margin {cert.margin:.17g}: {hurwitz}")
        _say("certified" if cert.certified else "not certified")
    return 0 if cert.certified else 1


def _execute_run(sc, out_dir):
    """Integrate while writing trajectory.csv, write verdict.json, return
    (record, streamed run, seconds integrating): the time spent formatting
    the CSV, or handing it to the writer process and waiting, not counted."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    run = stream_run(sc, out / "trajectory.csv")
    wall = time.perf_counter() - start - run.write_seconds
    record = {"scenario": sc.name, "mode": sc.mode, "samples": run.sample_count,
              "null_reason": None}
    try:
        verdict = run_verdict(run)
    except ValueError as exc:
        # no verdict: its fields are null but for the two a short run still knows
        record.update(dict.fromkeys(f.name for f in dataclasses.fields(RunVerdict)),
                      diverged=run.diverged,
                      final_error=float(np.linalg.norm(run.final_errors)),
                      null_reason=str(exc))
    else:
        record.update(vars(verdict))
    (out / "verdict.json").write_text(canonical_json(record) + "\n")
    return record, run, wall


def cmd_run(args) -> int:
    sc = _resolve_scenario(args.scenario)
    if args.mode is not None and args.mode != sc.mode:
        sc = dataclasses.replace(sc, mode=args.mode)
    record, run, wall = _execute_run(sc, args.out)
    _say(f"run {sc.name} ({sc.mode}): {record['samples']} samples in {wall:.2f} s")
    _say(
        f"final error {record['final_error']:.6e}; converged {record['converged']}; "
        f"orbit {record['orbit_detected']}; rate {record['rate']}"
    )
    _say(f"wrote {args.out}/trajectory.csv and {args.out}/verdict.json")
    if run.diverged:
        step = run.divergence_step
        print(
            f"run diverged at step {step} (t = {step * sc.dt:.6g} s of simulated time): "
            f"{run.divergence_reason}",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_generate(args) -> int:
    sc = generate_scenario(args.n, args.dim, args.seed, args.assignment)
    save_scenario(sc, args.out)
    _say(
        f"wrote {args.out}: {sc.name} "
        f"({len(sc.initial_positions)} agents, {len(sc.edges)} edges, dim {sc.dim})"
    )
    return 0


def cmd_replicate(args) -> int:
    base = builtin_scenario(args.name)
    out = Path(args.out)
    legs = {}
    diverged = False
    summary = {"scenario": args.name, "legs": legs}
    for mode, leg_dir in (("gradient_only", "gradient"), ("estimator", "estimator")):
        sc = base if base.mode == mode else dataclasses.replace(base, mode=mode)
        record, run, wall = _execute_run(sc, out / leg_dir)
        legs[mode] = {**record, "wall_seconds": wall}
        diverged = diverged or run.diverged
        if mode == "gradient_only":
            _say(
                f"{args.name} gradient_only: orbit_detected={record['orbit_detected']}, "
                f"steady_speed={record['steady_speed']}, wall {wall:.1f} s"
            )
        else:
            mu_norm = float(np.linalg.norm(run.last_mu))
            gap = float(np.linalg.norm(run.last_mu_hat - run.last_mu))
            recovery = gap / mu_norm if mu_norm > 0.0 else None
            summary["mu_final"] = run.last_mu.tolist()
            summary["mu_hat_final"] = run.last_mu_hat.tolist()
            summary["mu_recovery_relative_error"] = recovery
            shown = "n/a" if recovery is None else f"{recovery:.3e}"
            _say(
                f"{args.name} estimator: converged={record['converged']}, "
                f"final_error={record['final_error']:.6e}, "
                f"mu recovery relative error {shown}, wall {wall:.1f} s"
            )
    (out / "summary.json").write_text(canonical_json(summary) + "\n")
    return 2 if diverged else 0


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused after it."""
    parser = _Parser(
        prog="rigiform",
        description="Simulate and certify distance-based formation control "
        "with per-edge disturbance estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="certify a scenario's target formation")
    p_check.add_argument("scenario", help="scenario file or built-in name")
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="integrate a scenario and write its trajectory")
    p_run.add_argument("scenario", help="scenario file or built-in name")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--mode", choices=MODES, default=None, help="override controller mode")
    p_run.set_defaults(func=cmd_run)

    p_gen = sub.add_parser("generate", help="emit a random certified scenario file")
    p_gen.add_argument("--n", type=int, required=True, help="number of agents")
    p_gen.add_argument("--dim", type=int, choices=(2, 3), required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, help="output scenario file")
    p_gen.add_argument(
        "--assignment",
        choices=("trace", "triangle_cyclic", "triangle_acyclic"),
        default="trace",
        help="estimating-agent rule (triangle rules need --n 3 --dim 2)",
    )
    p_gen.set_defaults(func=cmd_generate)

    p_rep = sub.add_parser(
        "replicate", help="run a built-in scenario with and without the estimator"
    )
    p_rep.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    p_rep.add_argument("--out", required=True, help="output directory")
    p_rep.set_defaults(func=cmd_replicate)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
