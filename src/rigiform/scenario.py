"""Scenario values: everything one run needs, with JSON persistence.

A scenario bundles the formation (edges with their estimating-agent
orientation, prescribed distances, initial and optional target
embeddings), the per-edge disturbance description, the controller
settings (mode, gain kappa, output vector, initial estimator states), and
the integration grid.  Construction traces and assignment rules ride along
optionally so generated formations stay auditable.  Building a Scenario
validates all of it; the closed loop starts from the scenario itself, at
its initial positions, estimator states and the generator state that
reproduces its disturbance.  `check` certifies the target embedding;
`run` never reads it.  Distances and embeddings too large for the
squared-distance errors to have a finite norm are rejected here, so the
loop and the certification never overflow on them.

Vertices are 1-based everywhere in files, matching the graph convention;
frequency indices inside disturbance entries are 0-based positions into
the shared frequency list.  Serialization is canonical (sorted keys,
two-space indent, trailing newline) so identical scenarios produce
identical bytes.  One writer, `canonical_json`, produces every canonical
JSON output of the package (scenario files, `check --json`, verdict.json
and summary.json): exactly the text of json.dumps(obj, indent=2,
sort_keys=True), without the pure-Python encoder that `indent` selects.

The file format is written down once, as the table `_SCENARIO`: each
object's keys in the order a load checks them, with the form and default
of each.  Two functions read it.  `_scan` takes a well-formed file one
list at a time, with whole-list type and key tests and C-level
conversions.  The edges, the disturbance entries and the construction
steps are `_Table`s: each is read column by column into arrays, which the
graph, the DisturbanceSpec and the ConstructionTrace check as whole
tables, so a load builds no object per edge, entry or step.  Only when a
test fails or a conversion or check raises does `_walk` visit the file
value by value, in file order, to name the first offender
(`edges[3].tail`); it checks each table row as it passes, so a row's
value error precedes any later type error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, compress, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import _TRACE_DIMS, AssignmentRule, certificate, select_estimating_agents
# unused here, these stay importable: perfbench/tracing.py wraps them by name
from .analysis import is_hurwitz, is_infinitesimally_rigid, stability_matrix  # noqa: F401
from .disturbance import DisturbanceSpec, InternalModelBasis, _blind_channels, _edge_tables
from .rigidity import (
    ConstructionTrace,
    FormationGraph,
    Framework,
    _check_steps,
    _equal,
    _integers,
    _same,
    edge_function,
    random_trace,
    trace_distances,
    trace_graph,
)

BUILTIN_NAMES = ("epuck2d", "tetra3d")
MODES = ("gradient_only", "estimator")
# the largest n generate_scenario draws: the README measures generate up to it in 2-D and 3-D
MAX_AGENTS = 10_000


def _float_rows(rows):
    """Rows of numbers as a tuple of float tuples, converted by C-level maps."""
    return tuple(map(tuple, map(map, repeat(float), rows)))


def _floats(values):
    return tuple(map(float, values))


def _optional_rows(rows):
    return None if rows is None else _float_rows(rows)


def _output_every(value) -> int:
    """An int or numpy integer as int; int() would truncate a float and read a string."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError("output_every must be an integer")
    return int(value)


# the fields a Scenario converts, in order, with their conversions
_CONVERSIONS = (("dim", int), ("distances", _floats), ("initial_positions", _float_rows),
                ("target_positions", _optional_rows), ("kappa", float), ("b1", float),
                ("b2", _floats), ("xi0", _optional_rows), ("dt", float), ("t_end", float),
                ("output_every", _output_every))


class ScenarioError(ValueError):
    """A scenario file or value violates the format or its cross-references."""


@dataclass(frozen=True)
class Scenario:
    """One complete run description: plain tuples but for `edges`, which
    holds the graph's read-only (|E|, 2) endpoints table.  Two scenarios are
    == exactly when every field matches."""

    name: str
    dim: int
    edges: np.ndarray
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
            for field, convert in _CONVERSIONS:
                object.__setattr__(self, field, convert(getattr(self, field)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"malformed scenario field: {exc}") from exc
        for field in ("initial_positions", "target_positions"):
            rows = getattr(self, field)
            if rows is not None and not {self.dim}.issuperset(map(len, rows)):
                raise ScenarioError(f"every row of {field} needs {self.dim} coordinates")
        target = self.target_positions
        if target is not None and len(target) != len(self.initial_positions):
            raise ScenarioError("target_positions needs one row per agent")

        if len(self.distances) != len(self.edges):
            raise ScenarioError("need exactly one distance per edge")
        if not isinstance(self.disturbance, DisturbanceSpec):
            raise ScenarioError("disturbance must be a DisturbanceSpec")
        try:
            frameworks = self._frameworks
            object.__setattr__(self, "edges", self.graph.endpoints)
            _reject_overflowing_squares(self.distances, frameworks)
            basis = self.basis()
            if self.mode not in MODES:
                raise ScenarioError(f"mode must be one of {MODES}")
            if not math.isfinite(self.kappa) or self.kappa <= 0:
                raise ScenarioError("kappa must be positive and finite")
            blind = [why for _, why in _blind_channels(basis, "unobservable")]
            if self.mode == "estimator" and blind:  # the gradient law never inverts the model
                raise ScenarioError("estimator mode needs an observable internal-model basis: "
                                    + blind[0])
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
            if len(self.xi0) != len(self.edges) or not {q}.issuperset(map(len, self.xi0)):
                raise ScenarioError(f"xi0 must be {len(self.edges)} rows of {q} values")
            if not all(map(math.isfinite, chain.from_iterable(self.xi0))):
                raise ScenarioError("xi0 must be finite")
        if not math.isfinite(self.dt) or self.dt <= 0:
            raise ScenarioError("dt must be positive and finite")
        if not math.isfinite(self.t_end):
            raise ScenarioError("t_end must be finite")
        if self.t_end <= self.dt:
            raise ScenarioError("t_end must be greater than dt")
        if self.output_every < 1:
            raise ScenarioError("output_every must be at least 1")

        if self.construction is not None:
            if not isinstance(self.construction, ConstructionTrace):
                raise ScenarioError("construction must be a ConstructionTrace")
            if self.construction.dim != self.dim:
                raise ScenarioError("construction trace dimension differs from the scenario's")
            if not _equal(self.construction.endpoints, self.edges):
                raise ScenarioError("construction trace does not produce the scenario's edges")
            distances = frameworks["initial_positions"].target_distances
            if not _equal(trace_distances(self.construction), distances):
                raise ScenarioError("construction trace distances differ from the scenario's")
        if self.assignment is not None:
            if not isinstance(self.assignment, AssignmentRule):
                raise ScenarioError("assignment must be an AssignmentRule")
            want = _TRACE_DIMS.get(self.assignment.kind)
            if want:
                if self.construction is None:
                    raise ScenarioError(
                        f"assignment {self.assignment.kind} needs a construction trace"
                    )
                # the rule would return the construction's endpoints, equal to edges above
                if self.construction.dim != want:
                    raise ScenarioError(f"{self.assignment.kind} needs a {want}-D trace")
            else:
                try:
                    oriented = select_estimating_agents(self.graph, self.assignment)
                except ValueError as exc:
                    raise ScenarioError(str(exc)) from exc
                if oriented != self.graph.edges:
                    raise ScenarioError(
                        "assignment rule does not reproduce the scenario's edge orientation"
                    )

    def __eq__(self, other):
        if type(other) is not Scenario:
            return NotImplemented
        return _same(map(getattr, repeat(self), _FIELDS), map(getattr, repeat(other), _FIELDS))

    @cached_property
    def graph(self) -> FormationGraph:
        return FormationGraph(len(self.initial_positions), self.edges)

    @cached_property
    def _frameworks(self) -> dict[str, Framework]:
        """The initial and, when given, the target framework, built once:
        by the validation, for every later caller."""
        distances = np.array(self.distances)
        return {field: Framework(self.graph, self.dim, np.array(rows), distances)
                for field, rows in (("initial_positions", self.initial_positions),
                                    ("target_positions", self.target_positions))
                if rows is not None}

    def framework_initial(self) -> Framework:
        return self._frameworks["initial_positions"]

    def framework_target(self) -> Framework:
        if self.target_positions is None:
            raise ScenarioError(f"scenario '{self.name}' has no target_positions")
        return self._frameworks["target_positions"]

    def basis(self) -> InternalModelBasis:
        return InternalModelBasis(self.b1, self.b2, self.disturbance.frequencies)

    def xi0_array(self) -> np.ndarray:
        if self.xi0 is None:
            return np.zeros((len(self.edges), self.basis().state_size))
        return np.array(self.xi0, dtype=float)


_FIELDS = [field.name for field in fields(Scenario)]


def _reject_overflowing_squares(distances, frameworks):
    # runs report the error norm sqrt(e . e) of squared lengths: each field's
    # sum of squared squares below half the float range keeps it finite
    with np.errstate(over="ignore"):
        squares = {"distances": np.square(distances)}
        squares.update((field, edge_function(fw)) for field, fw in frameworks.items())
        for field, sq in squares.items():
            if not math.isfinite(2.0 * float(sq @ sq)):
                k = int(np.argmax(sq))
                raise ScenarioError(f"{field} too large: the squared length of edge {k + 1} "
                                    f"({sq[k]:.3g}) overflows the error norm")


# The format's table.  An object form maps its keys, in the order a load
# checks them, to (form, default); the default is _REQUIRED, None (absent or
# null loads as None) or the value an absent key stands for.  [form] is a
# list of that form, and a leaf form is a (scan, walk) pair.  An object
# form's hook (ctx, *columns) builds the records of a list of such objects
# from their values key by key (by default, one tuple per object); a
# ValueError from it names the object.  `ctx` holds the values loaded so far
# by key, for the hooks that need the scenario's dim or the disturbance's
# frequencies.
_REQUIRED = object()
_LISTS = frozenset((list,))
_STRS = frozenset((str,))
_DICTS = frozenset((dict,))


class _Leaf(NamedTuple):
    scan: Callable  # values -> converted values, or None
    walk: Callable  # (value, path, ctx) -> converted value


class _Object:
    def __init__(self, keys: dict, hook: Callable = lambda ctx, *columns: list(zip(*columns))):
        self.keys, self.hook, self.allowed = keys, hook, frozenset(keys)
        # per key, what _scan reads: its form, default and the getter of a required value
        self.columns = [(key, sub, default, itemgetter(key))
                        for key, (sub, default) in keys.items()]


class _Table(list):
    """[row]: a list of row objects, in an object that a file holds once,
    read as one table.  The hook takes the whole list's columns (a list's
    column as its lengths and its items) and returns the table's arrays,
    which the record taking them checks; `check` raises as that record
    would on one row's columns."""

    def __init__(self, keys: dict, hook: Callable, check: Callable = lambda ctx, *columns: None):
        super().__init__([_Object(keys)])
        self.hook, self.check = hook, check


def _error(path, problem) -> ScenarioError:
    """("disturbance", "edges", 3, "alpha") -> field 'disturbance.edges[3].alpha';
    the empty path is the scenario itself."""
    field = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return ScenarioError(f"scenario field '{field[1:] or 'scenario'}': {problem}")


def _leaf(types, problem, test, convert) -> _Leaf:
    """A leaf that passes values of `types` (bool is none of them) for which
    `test`, if given, holds, converted by `convert` to its exact type; its
    scan wants the types exactly."""
    exact = frozenset(types)

    def scan(values):
        kinds = set(map(type, values))
        if exact.issuperset(kinds) and (test is None or all(map(test, values))):
            return values if kinds <= {convert} else list(map(convert, values))

    def walk(value, path, ctx):
        if isinstance(value, bool) or not isinstance(value, types) or test and not test(value):
            raise _error(path, problem)
        try:
            return convert(value)
        except OverflowError:  # an integer beyond the float range
            raise _error(path, "number out of float range") from None
    return _Leaf(scan, walk)


_NUMBER = _leaf((int, float), "expected a number", None, float)
_INTEGER = _leaf((int,), "expected an integer", None, int)
_STRING = _leaf((str,), "expected a string", None, str)
_NAME = _leaf((str,), "expected a nonempty string", len, str)
_MODE = _leaf((str,), f"must be one of {MODES}", MODES.__contains__, str)
_MATRIX = [[_NUMBER]]


def _freq_index(value, path, ctx) -> int:
    """A sinusoid's position in the disturbance's frequencies, once per entry."""
    index = _INTEGER.walk(value, path, ctx)
    p = len(ctx["frequencies"])
    if not 0 <= index < p:
        raise _error(path, f"out of range 0..{p - 1}")
    seen = ctx.setdefault(path[:-2], set())  # keyed by the entry's sinusoids list
    if index in seen:
        raise _error(path[:-1], f"duplicate freq_index {index}")
    seen.add(index)
    return index


def _edge_table(ctx, tails, heads, distances):
    return np.array((tails, heads)).T, distances


def _entry_table(ctx, alphas, sinusoids):
    """The entries' offsets and their sinusoids' amplitudes and phases,
    placed by freq_index into (entries, p) tables."""
    lengths, (index, amplitudes, phases) = sinusoids
    p = len(ctx["frequencies"])
    if index and (min(index) < 0 or max(index) >= p):
        raise ValueError("freq_index out of range")  # the walk names which
    at = np.repeat(np.arange(len(alphas)), lengths) * p + np.array(index, dtype=np.intp)
    if max(lengths, default=0) > 1 and np.count_nonzero(np.bincount(at) > 1):
        raise ValueError("freq_index repeated")  # needs two sinusoids in one entry
    tables = np.zeros((2, len(alphas) * p))
    tables[:, at] = amplitudes, phases
    return np.array(alphas), *tables.reshape(2, len(alphas), p)


def _step_table(ctx, anchors, distances):
    """The steps' anchor counts, anchors and distances; a step with more or
    fewer distances than anchors is left to the walk's check."""
    (counts, anchors), (lengths, distances) = anchors, distances
    if counts != lengths:
        raise ValueError("one distance per anchor")
    return np.array(counts, dtype=np.intp), _integers(anchors), np.array(distances, dtype=float)


_SCENARIO = _Object({
    "name": (_NAME, _REQUIRED),
    "dim": (_INTEGER, _REQUIRED),
    "agents": (_MATRIX, _REQUIRED),
    "edges": (_Table({
        "tail": (_INTEGER, _REQUIRED),
        "head": (_INTEGER, _REQUIRED),
        "distance": (_NUMBER, _REQUIRED),
    }, _edge_table), _REQUIRED),
    "target_positions": (_MATRIX, None),
    "disturbance": (_Object({
        "frequencies": ([_NUMBER], _REQUIRED),
        "edges": (_Table({
            "alpha": (_NUMBER, _REQUIRED),
            "sinusoids": ([_Object({
                "freq_index": (_Leaf(_INTEGER.scan, _freq_index), _REQUIRED),
                "amplitude": (_NUMBER, _REQUIRED),
                "phase": (_NUMBER, 0.0),
            })], []),
        }, _entry_table, lambda ctx, *columns: _edge_tables(*_entry_table(ctx, *columns))),
            _REQUIRED),
    }, lambda ctx, freqs, tables: [DisturbanceSpec.from_tables(freqs[0], *tables[0])]), _REQUIRED),
    "controller": (_Object({
        "mode": (_MODE, _REQUIRED),
        "kappa": (_NUMBER, _REQUIRED),
        "b1": (_NUMBER, _REQUIRED),
        "b2": ([_NUMBER], _REQUIRED),
        "xi0": (_MATRIX, None),
    }), _REQUIRED),
    "sim": (_Object({
        "dt": (_NUMBER, _REQUIRED),
        "t_end": (_NUMBER, _REQUIRED),
        "output_every": (_INTEGER, _REQUIRED),
    }), _REQUIRED),
    "construction": (_Object({
        "seed_distances": ([_NUMBER], _REQUIRED),
        "steps": (_Table({
            "anchors": ([_INTEGER], _REQUIRED),
            "distances": ([_NUMBER], _REQUIRED),
        }, _step_table, lambda ctx, anchors, distances: _check_steps(
            _integers([anchors[1]]), np.array([distances[1]], dtype=float))), []),
    }, lambda ctx, seeds, steps: [ConstructionTrace(ctx["dim"], seeds[0], *steps[0])]),
        None),
    "assignment": (_Object({
        "kind": (_STRING, _REQUIRED),
        "root": (_INTEGER, None),
        "third": (_INTEGER, None),
    }, lambda ctx, *columns: list(map(AssignmentRule, *columns))), None),
})


def _open(form: _Object, value, path):
    """Raise unless value is an object with none but form's keys."""
    if not isinstance(value, dict):
        raise _error(path, "expected an object")
    if not form.allowed.issuperset(value):
        raise _error(path, f"unknown key(s) {sorted(set(value) - form.allowed)}")


def _scan(form, values: list, ctx: dict, flat=False):
    """All of `values` (one form's values across the file) converted by
    C-level maps, or None when one is not exactly of the form's types and
    keys.  A list's items are scanned as one flat list, an object's keys
    column by column; a record hook runs once per object, a table's hook
    once per table.  Flat (inside a table), a list gives its lengths and
    items and an object its columns."""
    kind = type(form)
    if kind is _Leaf:
        return form.scan(values)
    if kind is _Table:
        if len(values) != 1 or type(values[0]) is not list:
            return None
        columns = _scan(form[0], values[0], ctx, True)
        return None if columns is None else [form.hook(ctx, *columns)]
    if kind is list:  # [item]: a list of items of one form
        if not _LISTS.issuperset(map(type, values)):
            return None
        items = _scan(form[0], list(chain.from_iterable(values)), ctx, flat)
        if items is None:
            return None
        lengths = list(map(len, values))
        if flat:
            return lengths, items
        items = iter(items)
        if len(set(lengths)) == 1 and lengths[0]:  # one length: zip regroups them all
            return list(zip(*[items] * lengths[0]))
        return list(map(tuple, map(islice, repeat(items), lengths)))
    if not (_DICTS.issuperset(map(type, values)) and all(map(form.allowed.issuperset, values))):
        return None
    columns = []
    for key, sub, default, get in form.columns:
        try:
            column = (list(map(get, values)) if default is _REQUIRED
                      else list(map(dict.get, values, repeat(key), repeat(default))))
        except KeyError:
            return None
        # a nullable key's column passes when all null; a mix is left to the walk
        if default is not None or column.count(None) < len(column):
            column = sub.scan(column) if type(sub) is _Leaf else _scan(sub, column, ctx, flat)
            if column is None:
                return None
        if len(column) == 1 and not flat:
            ctx[key] = column[0]
        columns.append(column)
    return columns if flat else form.hook(ctx, *columns)


def _walk(form, value, path, ctx: dict):
    """A copy of `value` in the exact types a scan takes, made one value at
    a time in file order, raising at the first offender.  Each object's
    records, and each table row, are checked as the walk passes them, so
    their value errors precede any later type error."""
    if isinstance(form, _Leaf):
        return form.walk(value, path, ctx)
    if isinstance(form, list):
        if not isinstance(value, list):
            raise _error(path, "expected a list")
        items = []
        for i, item in enumerate(value):
            items.append(_walk(form[0], item, path + (i,), ctx))
            if isinstance(form, _Table):
                _checked(path + (i,), form.check, ctx, *_scan(form[0], items[-1:], ctx, True))
        return items
    _open(form, value, path)
    copy = {}
    for key, (sub, default) in form.keys.items():
        item = value.get(key, default)
        if item is _REQUIRED:
            raise _error(path, f"missing key '{key}'")
        if item is not None or default is not None:
            item = _walk(sub, item, path + (key,), ctx)
        copy[key] = ctx[key] = item
    _checked(path, _scan, form, [copy], ctx)  # builds the object's records
    return copy


def _checked(path, check, *args):
    """check(*args), its ValueError naming the value at path."""
    try:
        return check(*args)
    except ValueError as exc:
        raise _error(path, exc) from exc


def scenario_from_dict(data, fallback_name: str | None = None) -> Scenario:
    """Build and fully validate a Scenario from parsed JSON data."""
    _open(_SCENARIO, data, ())
    if "name" not in data:
        if not fallback_name:
            raise ScenarioError("scenario field 'name': missing")
        data = {**data, "name": fallback_name}
    try:
        values = _scan(_SCENARIO, [data], {})
    except (OverflowError, ValueError):
        values = None
    if values is None:  # the walk names the first offender, or copies data in exact types
        values = _scan(_SCENARIO, [_walk(_SCENARIO, data, (), {})], {})
    name, dim, agents, edges, target, disturbance, controller, sim, construction, assignment = (
        values[0])
    # the controller's and the sim's keys come in the order of Scenario's fields
    return Scenario(name, dim, *edges, agents, target, disturbance, *controller, *sim,
                    construction, assignment)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of scenario_from_dict; omits absent optional sections and
    zero-amplitude sinusoids."""
    spec, trace, rule = scenario.disturbance, scenario.construction, scenario.assignment
    present = spec.amplitude_table != 0.0
    entry, index = np.nonzero(present)  # entry by entry, each in frequency order
    sinusoids = iter(_records(("freq_index", "amplitude", "phase"), index.tolist(),
                              spec.amplitude_table[present].tolist(),
                              spec.phase_table[present].tolist()))
    counts = np.bincount(entry, minlength=spec.edge_count).tolist()
    # an entry without sinusoids lists no "sinusoids": zip stops at its offset
    lists = map(list, map(islice, repeat(sinusoids), counts))
    entries = map(compress, zip(spec.offsets.tolist(), lists), zip(repeat(True), counts))
    return _present({
        "name": scenario.name,
        "dim": scenario.dim,
        "agents": _lists(scenario.initial_positions),
        "edges": _records(("tail", "head", "distance"), *scenario.edges.T.tolist(),
                          scenario.distances),
        "target_positions": _lists(scenario.target_positions),
        "disturbance": {
            "frequencies": list(spec.frequencies),
            "edges": list(map(dict, map(zip, repeat(("alpha", "sinusoids")), entries))),
        },
        "controller": _present({"mode": scenario.mode, "kappa": scenario.kappa, "b1": scenario.b1,
                                "b2": list(scenario.b2), "xi0": _lists(scenario.xi0)}),
        "sim": {"dt": scenario.dt, "t_end": scenario.t_end, "output_every": scenario.output_every},
        "construction": trace and {
            "seed_distances": list(trace.seed_distances),
            "steps": _records(("anchors", "distances"), trace.anchors.tolist(),
                              trace.distances.tolist()),
        },
        "assignment": rule and _present({"kind": rule.kind, "root": rule.root,
                                         "third": rule.third}),
    })


def _lists(rows):
    return None if rows is None else list(map(list, rows))


def _present(fields: dict) -> dict:
    """The fields that are not None."""
    return {key: value for key, value in fields.items() if value is not None}


def _records(keys, *columns) -> list[dict]:
    """One dict per row of the columns, with these keys, built by C-level maps."""
    return list(map(dict, map(zip, repeat(keys), zip(*columns))))


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ScenarioError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data, fallback_name=path.stem)


def _json_scalar(value, pad: str) -> str:
    if type(value) is float and not math.isfinite(value):
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    # tuples, subclasses such as np.float64, objects with non-str keys
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _json_texts(values: list, pad: str) -> list[str]:
    """Each of values as json.dumps(value, indent=2, sort_keys=True) spells
    it, with `pad` (a newline and the values' shared indentation) after
    each newline.  Values of one exact type are written together: numbers
    and strings by one C-level map, the items of lists and the fields of
    objects with the same keys as one flat list each, so the cost per
    value is a few joins, whatever the nesting."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    inner = pad + "  "
    sep = "," + inner
    if kind is float and all(map(math.isfinite, values)):
        return list(map(float.__repr__, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if kind is str:
        return list(map(encode_basestring_ascii, values))
    if kind is list:
        lengths = list(map(len, values))
        items = iter(_json_texts(list(chain.from_iterable(values)), inner))
        start, end = "[" + inner, pad + "]"
        return [start + sep.join(islice(items, k)) + end if k else "[]" for k in lengths]
    if kind is dict:
        keys = values[0].keys()
        if _STRS.issuperset(map(type, keys)) and all(map(keys.__eq__, map(dict.keys, values))):
            if not keys:
                return ["{}"] * len(values)
            fields = [
                map((encode_basestring_ascii(key) + ": ").__add__,
                    _json_texts(list(map(itemgetter(key), values)), inner))
                for key in sorted(keys)
            ]
            start, end = "{" + inner, pad + "}"
            return [start + text + end for text in map(sep.join, zip(*fields))]
    if len(values) != 1:
        return [_json_texts([v], pad)[0] for v in values]
    return [_json_scalar(values[0], pad)]


def canonical_json(obj) -> str:
    """Exactly json.dumps(obj, indent=2, sort_keys=True), written without
    its pure-Python encoder's cost per item (see _json_texts)."""
    return _json_texts([obj], "\n")[0]


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(canonical_json(scenario_to_dict(scenario)) + "\n")


# the controller and grid settings the built-in and generated scenarios share
_DEFAULTS = {"mode": "estimator", "kappa": 1.0, "b1": 1.0, "b2": (1.0, 0.0), "xi0": None,
             "dt": 1e-3, "output_every": 100}


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
        disturbance=DisturbanceSpec.from_tables((1.0,), offsets, [[0.0]] * 5, [[0.0]] * 5),
        t_end=200.0,
        **_DEFAULTS,
    )


def _tetra3d() -> Scenario:
    # two regular tetrahedra glued along a shared equilateral base
    side = 5.0
    base_y = side * math.sqrt(3.0) / 2.0
    center_y = side * math.sqrt(3.0) / 6.0
    apex_z = side * math.sqrt(2.0 / 3.0)
    offsets = (0.9, -0.6, 1.3, 0.7, -1.1, 0.5, 1.6, -0.8, 1.0)
    construction = ConstructionTrace(3, (side,) * 6, (3,), (1, 2, 3), (side,) * 3)
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
        disturbance=DisturbanceSpec.from_tables(
            (1.0,), offsets, [[1e-4 * (1.0 + 0.3 * k)] for k in range(9)],
            [[0.6 * k] for k in range(9)]),
        t_end=180.0,
        **_DEFAULTS,
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

    Each draw is a construction trace, a small random initial offset and a
    random offset-plus-sinusoid disturbance, built into a Scenario; the
    first whose target certifies (rank test and Hurwitz error dynamics) is
    returned.  Deterministic per seed.  Raises ScenarioError for n above
    MAX_AGENTS, when the trace sampler stalls or when 100 draws fail to
    certify.

    assignment selects the estimating-agent rule: "trace" follows the
    construction order; the triangle rules apply only to n = 3, dim = 2
    and drop the trace from the emitted scenario (their orientation is not
    the construction one).
    """
    if not isinstance(dim, int) or isinstance(dim, bool) or dim not in (2, 3):
        raise ScenarioError("dim must be 2 or 3")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ScenarioError("n must be an integer")
    if dim == 2 and n < 3:
        raise ScenarioError("2-D generation needs n >= 3")
    if dim == 3 and n < 4:
        raise ScenarioError("3-D generation needs n >= 4")
    if n > MAX_AGENTS:
        raise ScenarioError(f"generation needs n <= {MAX_AGENTS} (MAX_AGENTS)")
    if assignment not in ("trace", "triangle_cyclic", "triangle_acyclic"):
        raise ScenarioError(
            "assignment must be 'trace', 'triangle_cyclic', or 'triangle_acyclic'"
        )
    if assignment != "trace" and (dim, n) != (2, 3):
        raise ScenarioError(f"{assignment} assignment needs n = 3 and dim = 2")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ScenarioError("seed must be a nonnegative integer")

    rng = np.random.default_rng(seed)
    # the construction-order rule orients each edge as the trace does
    rule = AssignmentRule(next(kind for kind, d in _TRACE_DIMS.items() if d == dim)
                          if assignment == "trace" else assignment)
    for _ in range(100):
        try:
            trace, pts = random_trace(n, dim, rng)
        except RuntimeError as exc:
            raise ScenarioError(f"cannot place {n} agents: {exc} (seed {seed})") from exc
        if assignment == "trace":
            construction, edges = trace, trace.endpoints
        else:
            construction, edges = None, select_estimating_agents(trace_graph(trace), rule)
        initial = pts + rng.uniform(-0.3, 0.3, size=pts.shape)
        # per edge: offset, amplitude, phase, drawn in that order
        draws = rng.uniform([-2.0, 0.0, -math.pi], [2.0, 0.5, math.pi], size=(len(edges), 3))
        scenario = Scenario(
            name=f"generated_{dim}d_n{n}_seed{seed}",
            dim=dim,
            edges=edges,
            distances=trace_distances(trace),
            initial_positions=tuple(map(tuple, initial.tolist())),
            target_positions=tuple(map(tuple, pts.tolist())),
            disturbance=DisturbanceSpec.from_tables((1.0,), draws[:, 0], draws[:, 1:2],
                                                    draws[:, 2:]),
            t_end=60.0,
            **_DEFAULTS,
            construction=construction,
            assignment=rule,
        )
        if certificate(scenario.framework_target()).certified:
            return scenario
    raise ScenarioError(f"no certified formation found after 100 draws (seed {seed})")
