"""The benchmark's workloads: inputs made from a seed, the commands of one
cycle, and the checks applied to every command's output.

Every workload runs all three user-facing commands (`generate`, `check`,
`run`) so that each end-to-end metric exists on each workload; what differs
is which command carries the weight and how each layer is loaded:

- builtin-replicate: the two built-in formations (n = 4 and 5) with
  seed-perturbed starts, each run in both modes (the four replicate legs).
  Call-bound: a step costs 140-175 µs, nearly all Python and numpy call overhead.
- generate-certify: fresh 2-D and 3-D formations with a few hundred agents,
  drawn and certified every cycle.  Dominated by `random_trace`'s pure-Python
  gap test and the dense SVD/eigenvalue calls.  Its one short run keeps
  `run_s` defined and is a small share of the cycle.
- integrate-large: a 3-D formation with n = 400 and |E| = 1194, generated
  and checked in the untimed warm-up, then run densely sampled every cycle.
  Array-bound (dense n x |E| scatter products) and output-heavy.  Small
  3-D formations are generated and checked beside it to keep `generate_s`
  and `check_s` defined.

Inputs depend on `seed % VARIANTS`; reference.json holds the recorded final
errors and estimates for every variant of the workloads that integrate a
fixed input.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

VARIANTS = 32
RTOL = 1e-6  # relative tolerance of final errors and estimates against reference.json
DT = 1e-3


@dataclass
class Op:
    """One CLI command.  `check` reads the command's stdout and output files
    and returns a failure reason, or None when the output is right.
    `scaled` says whether its time is scaled to the reference speed of
    calibration.py or reported as raw wall time."""

    kind: str
    argv: list[str]
    check: Callable[[str], str | None]
    prepare: Callable[[], None] | None = None
    steps: int = 0
    scaled: bool = True


def rigid_edge_count(n: int, dim: int) -> int:
    return 2 * n - 3 if dim == 2 else 3 * n - 6


def last_csv_columns(path: Path, prefix: str) -> list[float]:
    """Values of the columns named prefix* in the last row of a CSV,
    read from the file's two ends only."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().rstrip("\n").split(",")
        size = fh.seek(0, 2)
        back = min(size, 1 << 21)
        fh.seek(size - back)
        last = fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1].split(",")
    return [float(v) for name, v in zip(header, last) if name.startswith(prefix)]


def reduce_estimate(muhat: list[float]) -> dict:
    """The part of a final estimate vector kept as a reference: every entry
    for small formations, eight evenly spaced entries and the norm otherwise."""
    count = len(muhat)
    index = list(range(count)) if count <= 16 else [int(i) for i in np.linspace(0, count - 1, 8)]
    return {
        "index": index,
        "value": [muhat[i] for i in index],
        "norm": float(np.linalg.norm(muhat)),
    }


def compare_to_reference(observed: dict, ref: dict) -> str | None:
    final, want = observed["final_error"], ref["final_error"]
    if abs(final - want) > RTOL * abs(want):
        return f"final_error {final!r} differs from reference {want!r}"
    muhat = observed["muhat"]
    est = ref["muhat"]
    scale = max(est["norm"], 1e-12)
    if abs(float(np.linalg.norm(muhat)) - est["norm"]) > RTOL * scale:
        return f"muhat norm {np.linalg.norm(muhat)!r} differs from reference {est['norm']!r}"
    for i, want_i in zip(est["index"], est["value"]):
        if abs(muhat[i] - want_i) > RTOL * scale:
            return f"muhat[{i}] {muhat[i]!r} differs from reference {want_i!r}"
    return None


def write_run_input(source: Path, target: Path, steps: int, every: int) -> None:
    """Copy of a scenario file with its integration grid replaced."""
    data = json.loads(source.read_text())
    data["sim"] = {"dt": DT, "t_end": steps * DT, "output_every": every}
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class Workload:
    """Base: subclasses set `name` and build cycles from the helpers below.

    `reference` maps a run's key to its recorded outputs; None means the
    references are being recorded, so the comparison is skipped and the
    observed values are kept in `observed`.
    """

    name = ""
    # Command kinds reported as raw wall time: those whose cost is bulk
    # array work, which the machine's slow spells barely touch, so that
    # scaling by the interpreter-bound reference loop would only add its
    # swings (see README, "Steady timings").
    UNSCALED: frozenset[str] = frozenset()

    def __init__(self, variant: int, work: Path, reference: dict | None):
        self.variant = variant
        self.work = work
        self.reference = reference
        self.observed: dict[str, dict] = {}
        self.run_shapes: set[tuple[int, int, int]] = set()

    def prepare(self) -> None:
        """Write the inputs that exist before the first command."""

    def setup_files(self) -> list[Path]:
        """Scenario files set-up time loads."""
        return []

    def cycle(self, index: int) -> list[Op]:
        """Commands of cycle `index`; -1 is the untimed warm-up."""
        raise NotImplementedError

    def op(self, kind, argv, check, prepare=None, steps=0) -> Op:
        return Op(kind, argv, check, prepare, steps, kind not in self.UNSCALED)

    def generate_op(self, n: int, dim: int, seed: int, path: Path) -> Op:
        def prepare():
            path.unlink(missing_ok=True)

        def check(stdout):
            data = json.loads(path.read_bytes())
            edges = len(data["edges"])
            if data["dim"] != dim or len(data["agents"]) != n:
                return f"generated {len(data['agents'])} agents in {data['dim']}-D"
            if edges != rigid_edge_count(n, dim):
                return f"generated {edges} edges, a minimally rigid formation has " \
                       f"{rigid_edge_count(n, dim)}"
            return None

        argv = ["generate", "--n", str(n), "--dim", str(dim), "--seed", str(seed),
                "--out", str(path)]
        return self.op("generate", argv, check, prepare)

    def check_op(self, path: Path) -> Op:
        def check(stdout):
            record = json.loads(stdout)
            if record["rank"] != record["rank_needed"]:
                return f"rank {record['rank']} of {record['rank_needed']} needed"
            if not (record["certified"] and record["hurwitz"] and record["margin"] < 0):
                return f"not certified (margin {record['margin']!r})"
            return None

        return self.op("check", ["check", str(path), "--json"], check)

    def run_op(self, path: Path, out: Path, steps: int, every: int, key: str | None,
               mode: str | None = None, beats: str | None = None,
               source: Path | None = None) -> Op:
        """A run of `steps` RK4 steps sampled every `every` steps.  With a
        source, the run input is first written as a copy of it with that
        grid.  With a key, the final error and estimate must match the
        reference; with `beats`, the final error must be lower than that of
        the run keyed `beats` earlier in the cycle."""
        expected = steps // every + 1

        def prepare():
            shutil.rmtree(out, ignore_errors=True)
            if source is not None:
                write_run_input(source, path, steps, every)
            self.note_shape(path)

        def check(stdout):
            verdict = json.loads((out / "verdict.json").read_text())
            if verdict["diverged"]:
                return "run diverged"
            if verdict["samples"] != expected:
                return f"{verdict['samples']} samples, the horizon implies {expected}"
            if key is None:
                return None
            observed = {
                "final_error": verdict["final_error"],
                "muhat": last_csv_columns(out / "trajectory.csv", "muhat_"),
            }
            self.observed[key] = observed
            if beats is not None and observed["final_error"] >= self.observed[beats]["final_error"]:
                return f"{key} ended at error {observed['final_error']!r}, not below {beats}"
            if self.reference is None:
                return None
            if key not in self.reference:
                return f"no reference recorded for {key}"
            return compare_to_reference(observed, self.reference[key])

        argv = ["run", str(path), "--out", str(out)]
        if mode is not None:
            argv += ["--mode", mode]
        return self.op("run", argv, check, prepare, steps)

    def note_shape(self, path: Path) -> None:
        data = json.loads(path.read_text())
        self.run_shapes.add((data["dim"], len(data["agents"]), len(data["edges"])))


class BuiltinReplicate(Workload):
    """The four replicate legs on seed-perturbed copies of the built-ins,
    shortened to 5 s of simulated time, plus the built-in sizes' generate
    and check."""

    name = "builtin-replicate"
    STEPS, EVERY = 5000, 20  # 251 samples: enough for the verdict's 50-sample window
    PERTURB = {"epuck2d": 0.5, "tetra3d": 0.2}  # half-width of the start offsets
    SMALL = ((4, 2), (5, 3))  # (n, dim) of the generated formations: the built-ins' sizes
    SMALL_PER_CYCLE = 3  # of each size; these commands take milliseconds, so take several

    def prepare(self):
        from rigiform.scenario import builtin_scenario, scenario_to_dict

        for k, name in enumerate(self.PERTURB):
            data = scenario_to_dict(builtin_scenario(name))
            rng = np.random.default_rng([self.variant, k])
            agents = np.array(data["agents"])
            agents += rng.uniform(-self.PERTURB[name], self.PERTURB[name], agents.shape)
            data["agents"] = agents.tolist()
            data["sim"] = {"dt": DT, "t_end": self.STEPS * DT, "output_every": self.EVERY}
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    def setup_files(self):
        return [self.work / f"{name}.json" for name in self.PERTURB]

    def cycle(self, index):
        ops, small = [], []
        for j in range(self.SMALL_PER_CYCLE):
            seed = 1000 * self.variant + (self.SMALL_PER_CYCLE * index + j) % 1000
            for n, dim in self.SMALL:
                small.append(self.work / f"small{dim}d-{j}.json")
                ops.append(self.generate_op(n, dim, seed, small[-1]))
        ops += [self.check_op(path) for path in self.setup_files() + small]
        for name in self.PERTURB:
            path = self.work / f"{name}.json"
            for mode in ("gradient_only", "estimator"):
                beats = f"{name}/gradient_only" if mode == "estimator" else None
                ops.append(self.run_op(path, self.work / f"out-{name}-{mode}", self.STEPS,
                                       self.EVERY, f"{name}/{mode}", mode, beats))
        return ops


class GenerateCertify(Workload):
    """A new 2-D and 3-D formation per cycle, each generated and checked,
    and a short densely sampled run of the 2-D one."""

    name = "generate-certify"
    SIZES = ((200, 2), (250, 3))
    STEPS, EVERY = 250, 1

    def cycle(self, index):
        seed = 1000 * self.variant + index % 1000
        ops = []
        for n, dim in self.SIZES:
            path = self.work / f"gen{dim}d.json"
            ops += [self.generate_op(n, dim, seed, path), self.check_op(path)]
        ops.append(self.run_op(self.work / "run2d.json", self.work / "out", self.STEPS,
                               self.EVERY, None, source=self.work / "gen2d.json"))
        return ops


class IntegrateLarge(Workload):
    """One 3-D formation with n = 400 drawn from the seed, generated and
    checked in the warm-up cycle only; every cycle runs it for 300 steps
    sampled at every step, and generates and checks new small 3-D
    formations."""

    name = "integrate-large"
    N, DIM = 400, 3
    STEPS, EVERY = 300, 1
    SMALL_N = 40
    SMALL_PER_CYCLE = 3  # these commands take tens of milliseconds, so take several
    UNSCALED = frozenset({"run"})

    def setup_files(self):
        return [self.work / "large.json"]

    def cycle(self, index):
        large = self.work / "large.json"
        ops = []
        if index < 0:
            ops += [self.generate_op(self.N, self.DIM, self.variant, large),
                    self.check_op(large)]
        for j in range(self.SMALL_PER_CYCLE):
            seed = 1000 * self.variant + (self.SMALL_PER_CYCLE * index + j) % 1000
            small = self.work / f"small-{j}.json"
            ops += [self.generate_op(self.SMALL_N, self.DIM, seed, small), self.check_op(small)]
        ops.append(self.run_op(self.work / "large-run.json", self.work / "out", self.STEPS,
                               self.EVERY, "large", source=large))
        return ops


WORKLOADS = {w.name: w for w in (BuiltinReplicate, GenerateCertify, IntegrateLarge)}
