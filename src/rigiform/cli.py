"""Command-line front end.

Subcommands: check (certify a target), run (integrate one scenario),
generate (emit a random certified scenario file), replicate (run a
built-in scenario with and without the estimator and summarize the
contrast).  Exit codes: 0 success or certified, 1 validation failure,
2 divergence during integration.

Timing is printed to stdout or stored in replicate's summary.json but
never in verdict.json, which stays a pure function of the scenario so
repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from .analysis import is_hurwitz, stability_matrix
from .controller import MODES
from .rigidity import is_infinitesimally_rigid, is_minimally_rigid, rigid_rank_target
from .scenario import BUILTIN_NAMES, ScenarioError, builtin_scenario, generate_scenario, \
    load_scenario, save_scenario
from .sim import integrate, run_verdict, write_csv


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; that code means divergence
    here, so usage problems are remapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


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
    rigid, rank = is_infinitesimally_rigid(fw)
    needed = rigid_rank_target(fw.graph.n, fw.dim)
    minimal = is_minimally_rigid(fw)
    with warnings.catch_warnings():
        # a non-rigid target already fails certification; the warning would
        # only repeat the report
        warnings.simplefilter("ignore", RuntimeWarning)
        matrix = stability_matrix(fw)
    hurwitz, margin = is_hurwitz(matrix)
    spectrum = np.linalg.eigvals(matrix)
    order = np.lexsort((spectrum.imag, spectrum.real))
    certified = rigid and hurwitz
    record = {
        "scenario": sc.name,
        "rank": rank,
        "rank_needed": needed,
        "infinitesimally_rigid": rigid,
        "minimally_rigid": minimal,
        "hurwitz": hurwitz,
        "margin": margin,
        "spectrum": [[float(spectrum.real[i]), float(spectrum.imag[i])] for i in order],
        "certified": certified,
    }
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        rigidity = "infinitesimally rigid" if rigid else "not infinitesimally rigid"
        if minimal:
            rigidity += ", minimally rigid"
        print(f"scenario {sc.name}: {fw.graph.n} agents, {fw.graph.edge_count} edges, dim {fw.dim}")
        print(f"rank {rank} of {needed} needed: {rigidity}")
        print(f"stability margin {margin:.17g}: {'hurwitz' if hurwitz else 'not hurwitz'}")
        print("certified" if certified else "not certified")
    return 0 if certified else 1


def _execute_run(sc, out_dir):
    """Integrate, write trajectory.csv and verdict.json, return
    (record, trajectory, wall_seconds)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    traj = integrate(sc)
    wall = time.perf_counter() - start
    write_csv(traj, out / "trajectory.csv")
    record = {
        "scenario": sc.name,
        "mode": sc.mode,
        "samples": traj.sample_count,
        "diverged": traj.diverged,
        "final_error": float(np.linalg.norm(traj.final_errors)),
        "converged": None,
        "rate": None,
        "rate_r_squared": None,
        "steady_speed": None,
        "orbit_detected": None,
        "null_reason": None,
    }
    try:
        verdict = run_verdict(traj)
    except ValueError as exc:
        record["null_reason"] = str(exc)
    else:
        record.update(
            converged=verdict.converged,
            final_error=verdict.final_error,
            rate=verdict.rate,
            rate_r_squared=verdict.rate_r_squared,
            steady_speed=verdict.steady_speed,
            orbit_detected=verdict.orbit_detected,
        )
    (out / "verdict.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record, traj, wall


def cmd_run(args) -> int:
    sc = _resolve_scenario(args.scenario)
    if args.mode is not None and args.mode != sc.mode:
        sc = dataclasses.replace(sc, mode=args.mode)
    record, traj, wall = _execute_run(sc, args.out)
    print(f"run {sc.name} ({sc.mode}): {record['samples']} samples in {wall:.2f} s")
    print(
        f"final error {record['final_error']:.6e}; converged {record['converged']}; "
        f"orbit {record['orbit_detected']}; rate {record['rate']}"
    )
    print(f"wrote {args.out}/trajectory.csv and {args.out}/verdict.json")
    if traj.diverged:
        step = traj.divergence_step
        print(
            f"run diverged at step {step} (t = {step * sc.dt:.6g} s of simulated time)",
            file=sys.stderr,
        )
        return 2
    return 0


def cmd_generate(args) -> int:
    sc = generate_scenario(args.n, args.dim, args.seed, args.assignment)
    save_scenario(sc, args.out)
    print(
        f"wrote {args.out}: {sc.name} "
        f"({len(sc.initial_positions)} agents, {len(sc.edges)} edges, dim {sc.dim})"
    )
    return 0


def cmd_replicate(args) -> int:
    if args.name not in BUILTIN_NAMES:
        raise ScenarioError(
            f"unknown built-in scenario '{args.name}' (available: {', '.join(BUILTIN_NAMES)})"
        )
    base = builtin_scenario(args.name)
    out = Path(args.out)
    legs = {}
    diverged = False
    summary = {"scenario": args.name, "legs": legs}
    for mode, leg_dir in (("gradient_only", "gradient"), ("estimator", "estimator")):
        sc = base if base.mode == mode else dataclasses.replace(base, mode=mode)
        record, traj, wall = _execute_run(sc, out / leg_dir)
        legs[mode] = {**record, "wall_seconds": wall}
        diverged = diverged or traj.diverged
        if mode == "gradient_only":
            print(
                f"{args.name} gradient_only: orbit_detected={record['orbit_detected']}, "
                f"steady_speed={record['steady_speed']}, wall {wall:.1f} s"
            )
        else:
            mu_final = traj.mu[-1]
            mu_hat_final = traj.mu_hat[-1]
            mu_norm = float(np.linalg.norm(mu_final))
            recovery = (
                float(np.linalg.norm(mu_hat_final - mu_final)) / mu_norm
                if mu_norm > 0.0
                else None
            )
            summary["mu_final"] = [float(v) for v in mu_final]
            summary["mu_hat_final"] = [float(v) for v in mu_hat_final]
            summary["mu_recovery_relative_error"] = recovery
            shown = "n/a" if recovery is None else f"{recovery:.3e}"
            print(
                f"{args.name} estimator: converged={record['converged']}, "
                f"final_error={record['final_error']:.6e}, "
                f"mu recovery relative error {shown}, wall {wall:.1f} s"
            )
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 2 if diverged else 0


def _build_parser() -> _Parser:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
