"""Scenario values: everything one run needs, with JSON persistence.

A scenario bundles the formation (edges with their estimating-agent
orientation, prescribed distances, initial and optional target
embeddings), the per-edge disturbance description, the controller
configuration, and the integration grid.  Construction traces and
assignment rules ride along optionally so generated formations stay
auditable.

Vertices are 1-based everywhere in files, matching the graph convention;
frequency indices inside disturbance entries are 0-based positions into
the shared frequency list.  Serialization is canonical (sorted keys,
two-space indent, trailing newline) so identical scenarios produce
identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .analysis import AssignmentRule, is_hurwitz, select_estimating_agents, stability_matrix
from .controller import MODES, ControllerConfig
from .disturbance import DisturbanceSpec, EdgeDisturbance, InternalModelBasis
from .rigidity import (
    ConstructionTrace,
    FormationGraph,
    Framework,
    InsertionStep,
    is_infinitesimally_rigid,
    random_trace,
    trace_distances,
    trace_graph,
)

BUILTIN_NAMES = ("epuck2d", "tetra3d")


class ScenarioError(ValueError):
    """A scenario file or value violates the format or its cross-references."""


@dataclass(frozen=True)
class Scenario:
    """One complete run description.  Plain tuples throughout, so two
    scenarios are == exactly when every field matches."""

    name: str
    dim: int
    edges: tuple[tuple[int, int], ...]
    distances: tuple[float, ...]
    initial_positions: tuple[tuple[float, ...], ...]
    target_positions: tuple[tuple[float, ...], ...] | None
    disturbance: DisturbanceSpec
    mode: str
    kappa: float
    b1: float
    b2: tuple[float, ...]
    xi0: tuple[tuple[float, ...], ...] | None
    dt: float
    t_end: float
    output_every: int
    construction: ConstructionTrace | None = None
    assignment: AssignmentRule | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ScenarioError("scenario needs a nonempty name")
        if self.dim not in (2, 3):
            raise ScenarioError("dim must be 2 or 3")
        try:
            object.__setattr__(self, "dim", int(self.dim))
            object.__setattr__(
                self, "edges", tuple((int(t), int(h)) for t, h in self.edges)
            )
            object.__setattr__(
                self, "distances", tuple(float(d) for d in self.distances)
            )
            object.__setattr__(
                self,
                "initial_positions",
                tuple(tuple(float(c) for c in row) for row in self.initial_positions),
            )
            if self.target_positions is not None:
                object.__setattr__(
                    self,
                    "target_positions",
                    tuple(tuple(float(c) for c in row) for row in self.target_positions),
                )
            object.__setattr__(self, "kappa", float(self.kappa))
            object.__setattr__(self, "b1", float(self.b1))
            object.__setattr__(self, "b2", tuple(float(v) for v in self.b2))
            if self.xi0 is not None:
                object.__setattr__(
                    self, "xi0", tuple(tuple(float(c) for c in row) for row in self.xi0)
                )
            object.__setattr__(self, "dt", float(self.dt))
            object.__setattr__(self, "t_end", float(self.t_end))
            object.__setattr__(self, "output_every", int(self.output_every))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"malformed scenario field: {exc}") from exc

        if len(self.distances) != len(self.edges):
            raise ScenarioError("need exactly one distance per edge")
        if not isinstance(self.disturbance, DisturbanceSpec):
            raise ScenarioError("disturbance must be a DisturbanceSpec")
        try:
            self.framework_initial()
            if self.target_positions is not None:
                self.framework_target()
            self.controller_config()
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if self.disturbance.edge_count != len(self.edges):
            raise ScenarioError(
                f"disturbance lists {self.disturbance.edge_count} edges, "
                f"the scenario has {len(self.edges)}"
            )
        if self.xi0 is not None:
            q = 2 * len(self.disturbance.frequencies) + 1
            if len(self.xi0) != len(self.edges) or any(len(r) != q for r in self.xi0):
                raise ScenarioError(f"xi0 must be {len(self.edges)} rows of {q} values")
            if not all(math.isfinite(v) for row in self.xi0 for v in row):
                raise ScenarioError("xi0 must be finite")
        if not math.isfinite(self.dt) or self.dt <= 0:
            raise ScenarioError("dt must be positive and finite")
        if not math.isfinite(self.t_end) or self.t_end <= self.dt:
            raise ScenarioError("t_end must be greater than dt")
        if self.output_every < 1:
            raise ScenarioError("output_every must be at least 1")

        if self.construction is not None:
            if not isinstance(self.construction, ConstructionTrace):
                raise ScenarioError("construction must be a ConstructionTrace")
            if self.construction.dim != self.dim:
                raise ScenarioError("construction trace dimension differs from the scenario's")
            if trace_graph(self.construction).edges != self.edges:
                raise ScenarioError("construction trace does not produce the scenario's edges")
            if trace_distances(self.construction) != self.distances:
                raise ScenarioError("construction trace distances differ from the scenario's")
        if self.assignment is not None:
            if not isinstance(self.assignment, AssignmentRule):
                raise ScenarioError("assignment must be an AssignmentRule")
            if self.assignment.kind in ("henneberg_2d", "growth_3d"):
                if self.construction is None:
                    raise ScenarioError(
                        f"assignment {self.assignment.kind} needs a construction trace"
                    )
                source = self.construction
            else:
                source = self.graph
            try:
                oriented = select_estimating_agents(source, self.assignment)
            except ValueError as exc:
                raise ScenarioError(str(exc)) from exc
            if oriented != self.edges:
                raise ScenarioError(
                    "assignment rule does not reproduce the scenario's edge orientation"
                )

    @cached_property
    def graph(self) -> FormationGraph:
        return FormationGraph(len(self.initial_positions), self.edges)

    def framework_initial(self) -> Framework:
        return Framework(
            self.graph, self.dim, np.array(self.initial_positions), np.array(self.distances)
        )

    def framework_target(self) -> Framework:
        if self.target_positions is None:
            raise ScenarioError(f"scenario '{self.name}' has no target_positions")
        return Framework(
            self.graph, self.dim, np.array(self.target_positions), np.array(self.distances)
        )

    def basis(self) -> InternalModelBasis:
        return InternalModelBasis(self.b1, self.b2, self.disturbance.frequencies)

    def controller_config(self) -> ControllerConfig:
        return ControllerConfig(self.mode, self.kappa, self.basis())

    def xi0_array(self) -> np.ndarray:
        if self.xi0 is None:
            return np.zeros((len(self.edges), self.basis().state_size))
        return np.array(self.xi0, dtype=float)


def _expect_dict(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(f"scenario field '{path}': expected an object")
    return value


def _expect_list(value, path):
    if not isinstance(value, list):
        raise ScenarioError(f"scenario field '{path}': expected a list")
    return value


def _require(mapping, key, path):
    if key not in mapping:
        raise ScenarioError(f"scenario field '{path}': missing key '{key}'")
    return mapping[key]


def _reject_unknown(mapping, allowed, path):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ScenarioError(f"scenario field '{path}': unknown key(s) {unknown}")


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"scenario field '{path}': expected a number")
    return float(value)


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"scenario field '{path}': expected an integer")
    return value


def _number_list(value, path):
    return tuple(
        _number(v, f"{path}[{i}]") for i, v in enumerate(_expect_list(value, path))
    )


def _matrix(value, path):
    return tuple(
        _number_list(row, f"{path}[{i}]") for i, row in enumerate(_expect_list(value, path))
    )


def _parse_disturbance(value, path="disturbance") -> DisturbanceSpec:
    value = _expect_dict(value, path)
    _reject_unknown(value, ("frequencies", "edges"), path)
    freqs = _number_list(_require(value, "frequencies", path), f"{path}.frequencies")
    entries = []
    for i, item in enumerate(_expect_list(_require(value, "edges", path), f"{path}.edges")):
        epath = f"{path}.edges[{i}]"
        item = _expect_dict(item, epath)
        _reject_unknown(item, ("alpha", "sinusoids"), epath)
        offset = _number(_require(item, "alpha", epath), f"{epath}.alpha")
        amplitudes = [0.0] * len(freqs)
        phases = [0.0] * len(freqs)
        seen = set()
        for j, sin in enumerate(_expect_list(item.get("sinusoids", []), f"{epath}.sinusoids")):
            spath = f"{epath}.sinusoids[{j}]"
            sin = _expect_dict(sin, spath)
            _reject_unknown(sin, ("freq_index", "amplitude", "phase"), spath)
            idx = _integer(_require(sin, "freq_index", spath), f"{spath}.freq_index")
            if not 0 <= idx < len(freqs):
                raise ScenarioError(
                    f"scenario field '{spath}.freq_index': out of range 0..{len(freqs) - 1}"
                )
            if idx in seen:
                raise ScenarioError(f"scenario field '{spath}': duplicate freq_index {idx}")
            seen.add(idx)
            amplitudes[idx] = _number(_require(sin, "amplitude", spath), f"{spath}.amplitude")
            phases[idx] = _number(sin.get("phase", 0.0), f"{spath}.phase")
        try:
            entries.append(EdgeDisturbance(offset, tuple(amplitudes), tuple(phases)))
        except ValueError as exc:
            raise ScenarioError(f"scenario field '{epath}': {exc}") from exc
    try:
        return DisturbanceSpec(freqs, tuple(entries))
    except ValueError as exc:
        raise ScenarioError(f"scenario field '{path}': {exc}") from exc


def _parse_construction(value, dim, path="construction") -> ConstructionTrace:
    value = _expect_dict(value, path)
    _reject_unknown(value, ("seed_distances", "steps"), path)
    seed = _number_list(_require(value, "seed_distances", path), f"{path}.seed_distances")
    steps = []
    for i, item in enumerate(_expect_list(value.get("steps", []), f"{path}.steps")):
        spath = f"{path}.steps[{i}]"
        item = _expect_dict(item, spath)
        _reject_unknown(item, ("anchors", "distances"), spath)
        anchors = tuple(
            _integer(a, f"{spath}.anchors[{j}]")
            for j, a in enumerate(_expect_list(_require(item, "anchors", spath), f"{spath}.anchors"))
        )
        dists = _number_list(_require(item, "distances", spath), f"{spath}.distances")
        try:
            steps.append(InsertionStep(anchors, dists))
        except ValueError as exc:
            raise ScenarioError(f"scenario field '{spath}': {exc}") from exc
    try:
        return ConstructionTrace(dim, seed, tuple(steps))
    except ValueError as exc:
        raise ScenarioError(f"scenario field '{path}': {exc}") from exc


def _parse_assignment(value, path="assignment") -> AssignmentRule:
    value = _expect_dict(value, path)
    _reject_unknown(value, ("kind", "root", "third"), path)
    kind = _require(value, "kind", path)
    if not isinstance(kind, str):
        raise ScenarioError(f"scenario field '{path}.kind': expected a string")
    root = value.get("root")
    third = value.get("third")
    if root is not None:
        root = _integer(root, f"{path}.root")
    if third is not None:
        third = _integer(third, f"{path}.third")
    try:
        return AssignmentRule(kind, root, third)
    except ValueError as exc:
        raise ScenarioError(f"scenario field '{path}': {exc}") from exc


def scenario_from_dict(data, fallback_name: str | None = None) -> Scenario:
    """Build and fully validate a Scenario from parsed JSON data."""
    data = _expect_dict(data, "scenario")
    _reject_unknown(
        data,
        ("name", "dim", "agents", "edges", "target_positions", "disturbance",
         "controller", "sim", "construction", "assignment"),
        "scenario",
    )
    if "name" in data:
        name = data["name"]
        if not isinstance(name, str) or not name:
            raise ScenarioError("scenario field 'name': expected a nonempty string")
    elif fallback_name:
        name = fallback_name
    else:
        raise ScenarioError("scenario field 'name': missing")
    dim = _integer(_require(data, "dim", "scenario"), "dim")
    agents = _matrix(_require(data, "agents", "scenario"), "agents")
    edges, distances = [], []
    for i, item in enumerate(_expect_list(_require(data, "edges", "scenario"), "edges")):
        path = f"edges[{i}]"
        item = _expect_dict(item, path)
        _reject_unknown(item, ("tail", "head", "distance"), path)
        edges.append((
            _integer(_require(item, "tail", path), f"{path}.tail"),
            _integer(_require(item, "head", path), f"{path}.head"),
        ))
        distances.append(_number(_require(item, "distance", path), f"{path}.distance"))
    target = data.get("target_positions")
    if target is not None:
        target = _matrix(target, "target_positions")
    disturbance = _parse_disturbance(_require(data, "disturbance", "scenario"))

    ctl = _expect_dict(_require(data, "controller", "scenario"), "controller")
    _reject_unknown(ctl, ("mode", "kappa", "b1", "b2", "xi0"), "controller")
    mode = _require(ctl, "mode", "controller")
    if mode not in MODES:
        raise ScenarioError(f"scenario field 'controller.mode': must be one of {MODES}")
    kappa = _number(_require(ctl, "kappa", "controller"), "controller.kappa")
    b1 = _number(_require(ctl, "b1", "controller"), "controller.b1")
    b2 = _number_list(_require(ctl, "b2", "controller"), "controller.b2")
    xi0 = ctl.get("xi0")
    if xi0 is not None:
        xi0 = _matrix(xi0, "controller.xi0")

    sim_d = _expect_dict(_require(data, "sim", "scenario"), "sim")
    _reject_unknown(sim_d, ("dt", "t_end", "output_every"), "sim")
    dt = _number(_require(sim_d, "dt", "sim"), "sim.dt")
    t_end = _number(_require(sim_d, "t_end", "sim"), "sim.t_end")
    output_every = _integer(_require(sim_d, "output_every", "sim"), "sim.output_every")

    construction = data.get("construction")
    if construction is not None:
        construction = _parse_construction(construction, dim)
    assignment = data.get("assignment")
    if assignment is not None:
        assignment = _parse_assignment(assignment)

    return Scenario(
        name=name, dim=dim, edges=tuple(edges), distances=tuple(distances),
        initial_positions=agents, target_positions=target, disturbance=disturbance,
        mode=mode, kappa=kappa, b1=b1, b2=b2, xi0=xi0,
        dt=dt, t_end=t_end, output_every=output_every,
        construction=construction, assignment=assignment,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of scenario_from_dict; omits absent optional sections and
    zero-amplitude sinusoids."""
    dist_edges = []
    for ed in scenario.disturbance.edges:
        entry = {"alpha": ed.offset}
        sins = [
            {"freq_index": i, "amplitude": a, "phase": p}
            for i, (a, p) in enumerate(zip(ed.amplitudes, ed.phases))
            if a != 0.0
        ]
        if sins:
            entry["sinusoids"] = sins
        dist_edges.append(entry)
    controller = {
        "mode": scenario.mode,
        "kappa": scenario.kappa,
        "b1": scenario.b1,
        "b2": list(scenario.b2),
    }
    if scenario.xi0 is not None:
        controller["xi0"] = [list(row) for row in scenario.xi0]
    out = {
        "name": scenario.name,
        "dim": scenario.dim,
        "agents": [list(row) for row in scenario.initial_positions],
        "edges": [
            {"tail": t, "head": h, "distance": d}
            for (t, h), d in zip(scenario.edges, scenario.distances)
        ],
        "disturbance": {
            "frequencies": list(scenario.disturbance.frequencies),
            "edges": dist_edges,
        },
        "controller": controller,
        "sim": {
            "dt": scenario.dt,
            "t_end": scenario.t_end,
            "output_every": scenario.output_every,
        },
    }
    if scenario.target_positions is not None:
        out["target_positions"] = [list(row) for row in scenario.target_positions]
    if scenario.construction is not None:
        out["construction"] = {
            "seed_distances": list(scenario.construction.seed_distances),
            "steps": [
                {"anchors": list(s.anchors), "distances": list(s.distances)}
                for s in scenario.construction.steps
            ],
        }
    if scenario.assignment is not None:
        rule = {"kind": scenario.assignment.kind}
        if scenario.assignment.root is not None:
            rule["root"] = scenario.assignment.root
        if scenario.assignment.third is not None:
            rule["third"] = scenario.assignment.third
        out["assignment"] = rule
    return out


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(data, fallback_name=path.stem)


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"
    )


def _epuck2d() -> Scenario:
    # square-with-diagonal formation; distances in pixels, disturbance
    # offsets in squared pixels
    side = 12.0
    offsets = (19.0, 16.0, 19.5, 10.0, 16.0)
    return Scenario(
        name="epuck2d",
        dim=2,
        edges=((1, 2), (2, 3), (1, 3), (4, 1), (3, 4)),
        distances=(side, side, side * math.sqrt(2.0), side, side),
        initial_positions=((0.9, -0.4), (12.5, 1.1), (11.3, 12.6), (0.3, 11.2)),
        target_positions=((0.0, 0.0), (side, 0.0), (side, side), (0.0, side)),
        disturbance=DisturbanceSpec(
            (1.0,),
            tuple(EdgeDisturbance(o, (0.0,), (0.0,)) for o in offsets),
        ),
        mode="estimator",
        kappa=1.0,
        b1=1.0,
        b2=(1.0, 0.0),
        xi0=None,
        dt=1e-3,
        t_end=200.0,
        output_every=100,
    )


def _tetra3d() -> Scenario:
    # two regular tetrahedra glued along a shared equilateral base
    side = 5.0
    base_y = side * math.sqrt(3.0) / 2.0
    center_y = side * math.sqrt(3.0) / 6.0
    apex_z = side * math.sqrt(2.0 / 3.0)
    offsets = (0.9, -0.6, 1.3, 0.7, -1.1, 0.5, 1.6, -0.8, 1.0)
    construction = ConstructionTrace(
        3, (side,) * 6, (InsertionStep((1, 2, 3), (side,) * 3),)
    )
    return Scenario(
        name="tetra3d",
        dim=3,
        edges=((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5)),
        distances=(side,) * 9,
        initial_positions=(
            (0.25019093320933394, 0.794427601939151, 0.551371380490387),
            (4.450414379981184, -0.39966743017754913, 0.7471068907925238),
            (1.5105306091311494, 4.972583855687725, 0.5941388575040925),
            (2.4358699056874418, 1.0494405266126914, 3.639334128840177),
            (2.0097391753082494, 1.3335282847393575, -4.073386386722724),
        ),
        target_positions=(
            (0.0, 0.0, 0.0),
            (side, 0.0, 0.0),
            (side / 2.0, base_y, 0.0),
            (side / 2.0, center_y, apex_z),
            (side / 2.0, center_y, -apex_z),
        ),
        disturbance=DisturbanceSpec(
            (1.0,),
            tuple(
                EdgeDisturbance(offsets[k], (1e-4 * (1.0 + 0.3 * k),), (0.6 * k,))
                for k in range(9)
            ),
        ),
        mode="estimator",
        kappa=1.0,
        b1=1.0,
        b2=(1.0, 0.0),
        xi0=None,
        dt=1e-3,
        t_end=180.0,
        output_every=100,
        construction=construction,
        assignment=AssignmentRule("growth_3d"),
    )


def builtin_scenario(name: str) -> Scenario:
    if name == "epuck2d":
        return _epuck2d()
    if name == "tetra3d":
        return _tetra3d()
    raise ScenarioError(f"unknown built-in scenario '{name}' (available: {', '.join(BUILTIN_NAMES)})")


def generate_scenario(n: int, dim: int, seed: int, assignment: str = "trace") -> Scenario:
    """Random minimally rigid scenario, certified before it is returned.

    Draws construction traces until the embedding passes the rank test and
    the oriented error dynamics are Hurwitz, then wraps the formation with
    a small random initial offset and a random offset-plus-sinusoid
    disturbance.  Deterministic per seed.  Raises ScenarioError when the
    trace sampler stalls or no draw certifies.

    assignment selects the estimating-agent rule: "trace" follows the
    construction order; the triangle rules apply only to n = 3, dim = 2
    and drop the trace from the emitted scenario (their orientation is not
    the construction one).
    """
    if dim not in (2, 3):
        raise ScenarioError("dim must be 2 or 3")
    if dim == 2 and n < 3:
        raise ScenarioError("2-D generation needs n >= 3")
    if dim == 3 and n < 4:
        raise ScenarioError("3-D generation needs n >= 4")
    if assignment not in ("trace", "triangle_cyclic", "triangle_acyclic"):
        raise ScenarioError(
            "assignment must be 'trace', 'triangle_cyclic', or 'triangle_acyclic'"
        )
    if assignment != "trace" and (dim, n) != (2, 3):
        raise ScenarioError(f"{assignment} assignment needs n = 3 and dim = 2")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed must be a nonnegative integer")

    rng = np.random.default_rng(seed)
    for _ in range(100):
        try:
            trace, pts = random_trace(n, dim, rng)
        except RuntimeError as exc:
            raise ScenarioError(f"cannot place {n} agents: {exc} (seed {seed})") from exc
        distances = trace_distances(trace)
        if assignment == "trace":
            rule = AssignmentRule("henneberg_2d" if dim == 2 else "growth_3d")
            construction = trace
            edges = select_estimating_agents(trace, rule)
        else:
            rule = AssignmentRule(assignment)
            construction = None
            edges = select_estimating_agents(trace_graph(trace), rule)
        fw = Framework(FormationGraph(n, edges), dim, pts, np.array(distances))
        rigid, _ = is_infinitesimally_rigid(fw)
        if not rigid:
            continue
        hurwitz, _ = is_hurwitz(stability_matrix(fw))
        if not hurwitz:
            continue
        initial = pts + rng.uniform(-0.3, 0.3, size=pts.shape)
        entries = tuple(
            EdgeDisturbance(
                float(rng.uniform(-2.0, 2.0)),
                (float(rng.uniform(0.0, 0.5)),),
                (float(rng.uniform(-math.pi, math.pi)),),
            )
            for _ in edges
        )
        return Scenario(
            name=f"generated_{dim}d_n{n}_seed{seed}",
            dim=dim,
            edges=edges,
            distances=distances,
            initial_positions=tuple(tuple(float(c) for c in row) for row in initial),
            target_positions=tuple(tuple(float(c) for c in row) for row in pts),
            disturbance=DisturbanceSpec((1.0,), entries),
            mode="estimator",
            kappa=1.0,
            b1=1.0,
            b2=(1.0, 0.0),
            xi0=None,
            dt=1e-3,
            t_end=60.0,
            output_every=100,
            construction=construction,
            assignment=rule,
        )
    raise ScenarioError(f"no certified formation found after 100 draws (seed {seed})")
