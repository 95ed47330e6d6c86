"""Loading scenario files: the exact one-line error of every parse branch,
how many records one load builds, and the same outcome as the
hand-written loader it replaced on randomly mutated files."""

import copy
import dataclasses
import functools
import json
import random
import re
import sys
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from rigiform import (
    AssignmentRule,
    ConstructionTrace,
    DisturbanceSpec,
    EdgeDisturbance,
    FormationGraph,
    Framework,
    ScenarioError,
    builtin_scenario,
    generate_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from rigiform.cli import main
from rigiform.scenario import _SCENARIO, MAX_AGENTS, _Object, canonical_json


def _tetra():
    """tetra3d's file contents with a zero xi0, so every section is present."""
    data = scenario_to_dict(builtin_scenario("tetra3d"))
    data["controller"]["xi0"] = [[0.0, 0.0, 0.0] for _ in data["edges"]]
    return data


def _set(path, value):
    """An edit that sets data[path[0]][path[1]]... to value."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


def _drop(path):
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        del data[path[-1]]
    return edit


def _both(*edits):
    def edit(data):
        for e in edits:
            e(data)
    return edit


@functools.cache
def _generated_7_3d():
    return json.dumps(scenario_to_dict(generate_scenario(7, 3, 0)))


def _on_generated(*edits):
    """An edit that replaces the document by generate_scenario(7, 3, 0)'s,
    whose steps insert vertices 5, 6 and 7 with anchors (1, 3, 4), (1, 3, 5)
    and (1, 4, 5), and applies `edits` to it."""
    def edit(_data):
        data = json.loads(_generated_7_3d())
        for e in edits:
            e(data)
        return data
    return edit


def _second_sinusoid(index):
    def edit(data):
        entry = data["disturbance"]["edges"][4]
        entry["sinusoids"].append({"freq_index": index, "amplitude": 0.5, "phase": 0.0})
    return edit


# One malformed edit per parse branch and the stderr line `check` prints.
# The messages are the format's contract: a faster loader must keep each one.
GOLDEN = {
    "agents-string": (_set(("agents", 1, 0), "x"),
                      "scenario field 'agents[1][0]': expected a number"),
    "agents-bool": (_set(("agents", 3, 2), True),
                    "scenario field 'agents[3][2]': expected a number"),
    "agents-first-of-two": (_both(_set(("agents", 2, 0), None), _set(("agents", 0, 1), "y")),
                            "scenario field 'agents[0][1]': expected a number"),
    "agents-row-not-list": (_set(("agents", 2), 5),
                            "scenario field 'agents[2]': expected a list"),
    "agents-not-list": (_set(("agents",), {"a": 1}),
                        "scenario field 'agents': expected a list"),
    "agents-huge": (_set(("agents", 4, 1), 10 ** 400),
                    "scenario field 'agents[4][1]': number out of float range"),
    "target-null": (_set(("target_positions", 2, 1), None),
                    "scenario field 'target_positions[2][1]': expected a number"),
    "target-row-not-list": (_set(("target_positions", 0), "row"),
                            "scenario field 'target_positions[0]': expected a list"),
    "xi0-bool": (_set(("controller", "xi0", 3, 2), False),
                 "scenario field 'controller.xi0[3][2]': expected a number"),
    "xi0-list": (_set(("controller", "xi0", 8, 0), [1.0]),
                 "scenario field 'controller.xi0[8][0]': expected a number"),
    "b2-string": (_set(("controller", "b2", 1), "0"),
                  "scenario field 'controller.b2[1]': expected a number"),
    "tail-bool": (_set(("edges", 2, "tail"), True),
                  "scenario field 'edges[2].tail': expected an integer"),
    "tail-float": (_set(("edges", 1, "tail"), 1.0),
                   "scenario field 'edges[1].tail': expected an integer"),
    "head-string": (_set(("edges", 5, "head"), "4"),
                    "scenario field 'edges[5].head': expected an integer"),
    "distance-bool": (_set(("edges", 0, "distance"), False),
                      "scenario field 'edges[0].distance': expected a number"),
    "distance-huge": (_set(("edges", 6, "distance"), -10 ** 400),
                      "scenario field 'edges[6].distance': number out of float range"),
    "edge-not-object": (_set(("edges", 3), [1, 2, 5.0]),
                        "scenario field 'edges[3]': expected an object"),
    "edge-first-of-two": (_both(_set(("edges", 7, "head"), 2.5), _drop(("edges", 4, "tail"))),
                          "scenario field 'edges[4]': missing key 'tail'"),
    "edges-not-list": (_set(("edges",), "none"), "scenario field 'edges': expected a list"),
    "unknown-top": (_set(("mystery",), 1), "scenario field 'scenario': unknown key(s) ['mystery']"),
    "unknown-edge": (_set(("edges", 3, "weight"), 1.0),
                     "scenario field 'edges[3]': unknown key(s) ['weight']"),
    "unknown-disturbance-edge": (_both(_set(("disturbance", "edges", 1, "beta"), 0),
                                       _set(("disturbance", "edges", 1, "a"), 0)),
                                 "scenario field 'disturbance.edges[1]': unknown key(s) ['a', 'beta']"),
    "unknown-sinusoid": (_set(("disturbance", "edges", 2, "sinusoids", 0, "freq"), 1.0),
                         "scenario field 'disturbance.edges[2].sinusoids[0]': unknown key(s) ['freq']"),
    "unknown-step": (_set(("construction", "steps", 0, "vertex"), 5),
                     "scenario field 'construction.steps[0]': unknown key(s) ['vertex']"),
    "missing-top": (_drop(("dim",)), "scenario field 'scenario': missing key 'dim'"),
    "missing-edge": (_drop(("edges", 8, "distance")),
                     "scenario field 'edges[8]': missing key 'distance'"),
    "missing-disturbance-edge": (_drop(("disturbance", "edges", 7, "alpha")),
                                 "scenario field 'disturbance.edges[7]': missing key 'alpha'"),
    "missing-sinusoid": (_drop(("disturbance", "edges", 3, "sinusoids", 0, "amplitude")),
                         "scenario field 'disturbance.edges[3].sinusoids[0]': "
                         "missing key 'amplitude'"),
    "missing-freq-index": (_drop(("disturbance", "edges", 0, "sinusoids", 0, "freq_index")),
                           "scenario field 'disturbance.edges[0].sinusoids[0]': "
                           "missing key 'freq_index'"),
    "missing-step": (_drop(("construction", "steps", 0, "anchors")),
                     "scenario field 'construction.steps[0]': missing key 'anchors'"),
    "alpha-huge": (_set(("disturbance", "edges", 5, "alpha"), 10 ** 400),
                   "scenario field 'disturbance.edges[5].alpha': number out of float range"),
    "alpha-string": (_set(("disturbance", "edges", 5, "alpha"), "1"),
                     "scenario field 'disturbance.edges[5].alpha': expected a number"),
    "amplitude-bool": (_set(("disturbance", "edges", 6, "sinusoids", 0, "amplitude"), True),
                       "scenario field 'disturbance.edges[6].sinusoids[0].amplitude': "
                       "expected a number"),
    "phase-huge": (_set(("disturbance", "edges", 6, "sinusoids", 0, "phase"), 10 ** 400),
                   "scenario field 'disturbance.edges[6].sinusoids[0].phase': "
                   "number out of float range"),
    "freq-index-float": (_set(("disturbance", "edges", 1, "sinusoids", 0, "freq_index"), 0.0),
                         "scenario field 'disturbance.edges[1].sinusoids[0].freq_index': "
                         "expected an integer"),
    "freq-index-range": (_set(("disturbance", "edges", 4, "sinusoids", 0, "freq_index"), 1),
                         "scenario field 'disturbance.edges[4].sinusoids[0].freq_index': "
                         "out of range 0..0"),
    "freq-index-negative": (_set(("disturbance", "edges", 4, "sinusoids", 0, "freq_index"), -1),
                            "scenario field 'disturbance.edges[4].sinusoids[0].freq_index': "
                            "out of range 0..0"),
    "freq-index-duplicate": (_second_sinusoid(0),
                             "scenario field 'disturbance.edges[4].sinusoids[1]': "
                             "duplicate freq_index 0"),
    "sinusoids-not-list": (_set(("disturbance", "edges", 2, "sinusoids"), {}),
                           "scenario field 'disturbance.edges[2].sinusoids': expected a list"),
    "sinusoid-not-object": (_set(("disturbance", "edges", 2, "sinusoids", 0), 0),
                            "scenario field 'disturbance.edges[2].sinusoids[0]': "
                            "expected an object"),
    "disturbance-edge-not-object": (_set(("disturbance", "edges", 0), None),
                                    "scenario field 'disturbance.edges[0]': expected an object"),
    "frequency-string": (_set(("disturbance", "frequencies", 0), "1"),
                         "scenario field 'disturbance.frequencies[0]': expected a number"),
    "anchors-float": (_set(("construction", "steps", 0, "anchors", 1), 2.0),
                      "scenario field 'construction.steps[0].anchors[1]': expected an integer"),
    "anchors-bool": (_set(("construction", "steps", 0, "anchors", 0), True),
                     "scenario field 'construction.steps[0].anchors[0]': expected an integer"),
    "anchors-not-list": (_set(("construction", "steps", 0, "anchors"), 3),
                         "scenario field 'construction.steps[0].anchors': expected a list"),
    "step-not-object": (_set(("construction", "steps", 0), []),
                        "scenario field 'construction.steps[0]': expected an object"),
    "seed-distance-huge": (_set(("construction", "seed_distances", 2), 10 ** 400),
                           "scenario field 'construction.seed_distances[2]': "
                           "number out of float range"),
    "step-distance-huge": (_set(("construction", "steps", 0, "distances", 1), 10 ** 400),
                           "scenario field 'construction.steps[0].distances[1]': "
                           "number out of float range"),
    "step-distance-null": (_set(("construction", "steps", 0, "distances", 0), None),
                           "scenario field 'construction.steps[0].distances[0]': "
                           "expected a number"),
    "unknown-before-missing": (_both(_drop(("edges", 2, "head")), _set(("edges", 2, "w"), 0)),
                               "scenario field 'edges[2]': unknown key(s) ['w']"),
    # value checks of the built records, in file order with the parse checks
    "alpha-nan": (_set(("disturbance", "edges", 3, "alpha"), float("nan")),
                  "scenario field 'disturbance.edges[3]': offset must be finite"),
    "alpha-nan-before-bad-type": (_both(_set(("disturbance", "edges", 3, "alpha"), float("inf")),
                                        _set(("disturbance", "edges", 5, "alpha"), "1")),
                                  "scenario field 'disturbance.edges[3]': offset must be finite"),
    "phase-inf": (_set(("disturbance", "edges", 2, "sinusoids", 0, "phase"), float("-inf")),
                  "scenario field 'disturbance.edges[2]': amplitudes and phases must be finite"),
    "frequency-negative": (_set(("disturbance", "frequencies", 0), -1.0),
                           "scenario field 'disturbance': frequencies must be positive and finite"),
    "anchors-repeated": (_set(("construction", "steps", 0, "anchors"), [1, 1, 2]),
                         "scenario field 'construction.steps[0]': step anchors must be distinct"),
    "anchor-not-yet-placed": (_set(("construction", "steps", 0, "anchors"), [1, 2, 5]),
                              "scenario field 'construction': "
                              "step inserting vertex 5: anchors must already exist"),
    "step-two-anchors-in-3d": (_on_generated(_set(("construction", "steps", 1, "anchors"), [1, 3]),
                                             _set(("construction", "steps", 1, "distances"), [2.0, 2.5])),
                               "scenario field 'construction': step inserting vertex 6: needs 3 anchors"),
    "step-distance-missing": (_on_generated(_set(("construction", "steps", 1, "distances"), [2.0, 2.5])),
                              "scenario field 'construction.steps[1]': one distance per anchor"),
    "step-one-anchor": (_on_generated(_set(("construction", "steps", 1, "anchors"), [1]),
                                      _set(("construction", "steps", 1, "distances"), [2.0])),
                        "scenario field 'construction.steps[1]': "
                        "a step anchors to 2 (2-D) or 3 (3-D) existing vertices"),
    # vertex 5 was anchored to 1, 3 and 4, so it is not adjacent to 2
    "anchors-not-adjacent": (_on_generated(_set(("construction", "steps", 1, "anchors"), [2, 4, 5])),
                             "scenario field 'construction': "
                             "step inserting vertex 6: anchors (2, 5) are not adjacent"),
    "top-not-object": (lambda data: [data], "scenario field 'scenario': expected an object"),
    "dim-bool": (_set(("dim",), True), "scenario field 'dim': expected an integer"),
    "controller-not-object": (_set(("controller",), [1.0]),
                              "scenario field 'controller': expected an object"),
    "mode-invalid": (_set(("controller", "mode"), "pid"),
                     "scenario field 'controller.mode': "
                     "must be one of ('gradient_only', 'estimator')"),
    "kappa-string": (_set(("controller", "kappa"), "1"),
                     "scenario field 'controller.kappa': expected a number"),
    "b1-missing": (_drop(("controller", "b1")), "scenario field 'controller': missing key 'b1'"),
    "unknown-controller": (_set(("controller", "gain"), 1.0),
                           "scenario field 'controller': unknown key(s) ['gain']"),
    "xi0-row-not-list": (_set(("controller", "xi0", 2), 0.0),
                         "scenario field 'controller.xi0[2]': expected a list"),
    "sim-missing": (_drop(("sim",)), "scenario field 'scenario': missing key 'sim'"),
    "output-every-float": (_set(("sim", "output_every"), 100.0),
                           "scenario field 'sim.output_every': expected an integer"),
    "dt-bool": (_set(("sim", "dt"), True), "scenario field 'sim.dt': expected a number"),
    "disturbance-not-object": (_set(("disturbance",), "none"),
                               "scenario field 'disturbance': expected an object"),
    "frequencies-missing": (_drop(("disturbance", "frequencies")),
                            "scenario field 'disturbance': missing key 'frequencies'"),
    "disturbance-edges-empty": (_set(("disturbance", "edges"), []),
                                "scenario field 'disturbance': need at least one edge entry"),
    "phase-null": (_set(("disturbance", "edges", 0, "sinusoids", 0, "phase"), None),
                   "scenario field 'disturbance.edges[0].sinusoids[0].phase': expected a number"),
    "seed-distances-missing": (_drop(("construction", "seed_distances")),
                               "scenario field 'construction': missing key 'seed_distances'"),
    "steps-null": (_set(("construction", "steps"), None),
                   "scenario field 'construction.steps': expected a list"),
    "kind-int": (_set(("assignment", "kind"), 3), "scenario field 'assignment.kind': expected a string"),
    "root-float": (_set(("assignment", "root"), 1.0),
                   "scenario field 'assignment.root': expected an integer"),
    "kind-unknown": (_set(("assignment", "kind"), "spiral"),
                     "scenario field 'assignment': kind must be one of ('triangle_cyclic', "
                     "'triangle_acyclic', 'henneberg_2d', 'tetrahedron', 'growth_3d')"),
    # a null target loads; `check` then finds nothing to certify
    "target-null-loads": (_set(("target_positions",), None),
                          "scenario 'tetra3d' has no target_positions"),
    # `check` names a file without a name after its stem: these load the data directly
    "name-null": (_set(("name",), None), "scenario field 'name': expected a nonempty string"),
    "name-empty": (_set(("name",), ""), "scenario field 'name': expected a nonempty string"),
    "name-missing": (_drop(("name",)), "scenario field 'name': missing"),
}
_DIRECT = {"name-null", "name-empty", "name-missing"}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_each_parse_branch_names_its_offender(tmp_path, capsys, case):
    edit, message = GOLDEN[case]
    data = _tetra()
    replaced = edit(data)  # an edit may return a whole new document instead
    data = data if replaced is None else replaced
    if case in _DIRECT:
        with pytest.raises(ScenarioError) as caught:
            scenario_from_dict(data)
        assert str(caught.value) == message
        return
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_golden_base_file_loads(tmp_path, capsys):
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(_tetra()))
    assert main(["check", str(path)]) == 0
    capsys.readouterr()


def test_one_load_builds_one_record_per_section_and_none_per_edge(tmp_path, monkeypatch):
    # the edges, disturbance entries and steps are read as tables: a load
    # constructs one graph, one spec and one trace, and no per-row record
    path = tmp_path / "gen.json"
    save_scenario(generate_scenario(250, 3, 0), path)
    # the method every construction of each class runs once
    builds = {FormationGraph: "__init__", DisturbanceSpec: "_fill", ConstructionTrace: "__init__",
              EdgeDisturbance: "__post_init__"}
    calls = dict.fromkeys(builds, 0)
    for cls, name in builds.items():
        def counted(self, *args, cls=cls, original=getattr(cls, name)):
            calls[cls] += 1
            original(self, *args)
        monkeypatch.setattr(cls, name, counted)
    sc = load_scenario(path)
    sc.framework_initial()
    sc.framework_target()
    assert calls == {FormationGraph: 1, DisturbanceSpec: 1, ConstructionTrace: 1,
                     EdgeDisturbance: 0}


@pytest.mark.parametrize("n, dim, assignment, graphs", [
    (4, 2, "trace", 1), (5, 3, "trace", 1), (250, 3, "trace", 1), (3, 2, "triangle_cyclic", 2),
])
def test_generate_builds_one_graph_and_two_frameworks_per_draw(monkeypatch, n, dim, assignment,
                                                               graphs):
    # generate certifies the target of the Scenario it builds: the Scenario's
    # graph and its initial and target frameworks, and with a triangle rule
    # the trace's graph that the rule orients
    import rigiform.scenario as scenario

    builds = {FormationGraph: "__init__", Framework: "__post_init__"}
    calls = dict.fromkeys(builds, 0)
    for cls, name in builds.items():
        def counted(self, *args, cls=cls, original=getattr(cls, name)):
            calls[cls] += 1
            original(self, *args)
        monkeypatch.setattr(cls, name, counted)
    draws, random_trace = [], scenario.random_trace

    def draw(*args):
        draws.append(1)
        return random_trace(*args)
    monkeypatch.setattr(scenario, "random_trace", draw)
    generate_scenario(n, dim, 0, assignment)
    assert calls == {FormationGraph: graphs * len(draws), Framework: 2 * len(draws)}


class _Int(int):
    pass


class _Rows(list):
    pass


def test_subclassed_json_values_load_like_plain_ones():
    # the fast scans test exact types; subclasses of dict, list, int and
    # float are still accepted as they always were
    data = _tetra()
    plain = scenario_from_dict(data)
    assert scenario_from_dict(json.loads(json.dumps(data), object_pairs_hook=OrderedDict)) == plain
    data["agents"] = _Rows(_Rows(np.float64(c) for c in row) for row in data["agents"])
    for edge in data["edges"]:
        edge["tail"], edge["distance"] = _Int(edge["tail"]), np.float64(edge["distance"])
    for entry in data["disturbance"]["edges"]:
        entry["alpha"] = np.float64(entry["alpha"])
        for sin in entry["sinusoids"]:
            sin["freq_index"], sin["phase"] = _Int(sin["freq_index"]), np.float64(sin["phase"])
    data["construction"]["steps"][0]["anchors"] = _Rows(map(_Int, [1, 2, 3]))
    assert scenario_from_dict(data) == plain


@pytest.mark.parametrize("n, dim, message", [
    (5, 2.0, "dim must be 2 or 3"),
    (5, True, "dim must be 2 or 3"),
    (5.0, 2, "n must be an integer"),
    ("7", 3, "n must be an integer"),
    (True, 2, "n must be an integer"),
])
def test_generate_scenario_takes_only_integer_sizes(n, dim, message):
    with pytest.raises(ScenarioError, match=message):
        generate_scenario(n, dim, 0)


_EPUCK, _TETRA = builtin_scenario("epuck2d"), builtin_scenario("tetra3d")


@pytest.mark.parametrize("base, changes, message", [
    (_EPUCK, {"name": ""}, "scenario needs a nonempty name"),
    (_EPUCK, {"dim": 4}, "dim must be 2 or 3"),
    (_EPUCK, {"distances": (1.0,) * 4}, "need exactly one distance per edge"),
    (_EPUCK, {"disturbance": None}, "disturbance must be a DisturbanceSpec"),
    (_EPUCK, {"output_every": 0}, "output_every must be at least 1"),
    (_TETRA, {"construction": "trace"}, "construction must be a ConstructionTrace"),
    (_TETRA, {"construction": generate_scenario(3, 2, 0).construction},
     "construction trace dimension differs from the scenario's"),
    (_TETRA, {"assignment": "growth_3d"}, "assignment must be an AssignmentRule"),
    (_TETRA, {"assignment": AssignmentRule("henneberg_2d")}, "henneberg_2d needs a 2-D trace"),
    (generate_scenario(3, 2, 0, "triangle_cyclic"),
     {"assignment": AssignmentRule("triangle_acyclic")}, "assignment rule does not reproduce the scenario's edge orientation"),
])
def test_scenario_names_each_field_it_rejects(base, changes, message):
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(base, **changes)


def test_a_scenario_equals_no_other_type():
    assert _EPUCK != scenario_to_dict(_EPUCK) and _EPUCK.__eq__(_EPUCK.name) is NotImplemented


_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.parametrize("text, message", [
    (None, "Is a directory"),
    ('{"version": ' + "1" * (_DIGITS + 1) + "}",
     f"invalid JSON: Exceeds the limit ({_DIGITS} digits) for integer string conversion: "
     f"value has {_DIGITS + 1} digits; use sys.set_int_max_str_digits() to increase the limit"),
], ids=["directory", "integer-past-the-digit-limit"])
def test_load_scenario_names_what_it_cannot_read(tmp_path, text, message):
    path = tmp_path
    if text is not None:
        path = tmp_path / "big.json"
        path.write_text(text)
    with pytest.raises(ScenarioError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_scenario(path)


@pytest.mark.parametrize("n, dim, seed, assignment, message", [
    (2, 2, 0, "trace", "2-D generation needs n >= 3"),
    (3, 2, 0, "cyclic", "assignment must be 'trace', 'triangle_cyclic', or 'triangle_acyclic'"),
    (3, 2, -1, "trace", "seed must be a nonnegative integer"),
    (10_001, 2, 0, "trace", "generation needs n <= 10000 (MAX_AGENTS)"),
    (10_001, 3, 0, "trace", "generation needs n <= 10000 (MAX_AGENTS)"),
    # the cap itself passes every argument check and reaches the sampler
    (10_000, 3, 0, "trace", "cannot place 10000 agents: sampler reached (seed 0)"),
])
def test_generate_scenario_names_each_argument_it_rejects(monkeypatch, n, dim, seed, assignment,
                                                          message):
    def reached(*args):
        raise RuntimeError("sampler reached")

    monkeypatch.setattr("rigiform.scenario.random_trace", reached)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        generate_scenario(n, dim, seed, assignment)


def test_generate_past_the_agent_cap_exits_1_before_sampling(tmp_path, capsys, monkeypatch):
    def reached(*args):
        raise AssertionError("random_trace was called")

    monkeypatch.setattr("rigiform.scenario.random_trace", reached)
    out = tmp_path / "big.json"
    assert MAX_AGENTS == 10_000
    argv = ["generate", "--n", "10001", "--dim", "2", "--seed", "0", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: generation needs n <= 10000 (MAX_AGENTS)\n")
    assert not out.exists()


def _with_xi0(data):
    q = 2 * len(data["disturbance"]["frequencies"]) + 1
    data["controller"]["xi0"] = [[0.01 * k] * q for k in range(len(data["edges"]))]
    return data


def _differential_bases():
    """Valid documents that between them hold every key of the format."""
    two_frequencies = _tetra()
    two_frequencies["disturbance"]["frequencies"].append(2.5)
    two_frequencies["controller"]["b2"] = [1.0, 0.5, 0.0, 0.0]
    for k, entry in enumerate(two_frequencies["disturbance"]["edges"]):
        if k % 2:
            entry["sinusoids"].insert(0, {"freq_index": 1, "amplitude": 0.1 * k, "phase": -0.5})
    _with_xi0(two_frequencies)
    triangle = scenario_to_dict(generate_scenario(3, 2, 0, "triangle_acyclic"))
    triangle["assignment"].update(root=1, third=2)
    return {
        "epuck2d": _with_xi0(scenario_to_dict(builtin_scenario("epuck2d"))),
        "tetra3d": _tetra(),
        "generated-2d": _with_xi0(scenario_to_dict(generate_scenario(7, 2, 1))),
        "generated-3d": _with_xi0(scenario_to_dict(generate_scenario(7, 3, 1))),
        "tetra3d-two-frequencies": two_frequencies,
        "triangle-root-third": triangle,
    }


_POOL = (float("nan"), float("inf"), float("-inf"), 10 ** 400, True, False, None, "x", "",
         [], [1.0], [[0.0, 1.0]], {}, {"alpha": 1.0}, 0, 1, 2, -1, 0.5)
_KEYS = ("extra", "name", "tail", "alpha", "sinusoids", "phase", "xi0", "steps", "root", "third")


def _places(value, path=()):
    """The path of value and of everything inside it, in file order."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield from _places(item, path + (key,))


def _mutated(data, rng):
    """data after one to three deletions, added keys (unknown, or known in
    another object), appended items or values replaced from _POOL."""
    for _ in range(rng.randint(1, 3)):
        places = list(_places(data))
        kind = rng.choice(("delete", "add", "append", "replace"))
        if kind == "add":
            places = [p for p in places if isinstance(p[1], dict)]
        elif kind == "append":
            places = [p for p in places if isinstance(p[1], list)]
        elif kind == "delete":
            places = places[1:]
        if not places:
            continue
        path, value = rng.choice(places)
        if kind == "add":
            value[rng.choice(_KEYS)] = copy.deepcopy(rng.choice(_POOL))
        elif kind == "append":
            value.append(copy.deepcopy(rng.choice(value if value and rng.random() < 0.5 else _POOL)))
        elif not path:
            data = copy.deepcopy(rng.choice(_POOL))
        else:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            if kind == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = copy.deepcopy(rng.choice(_POOL))
    return data


def _outcome(load, data, fallback):
    try:
        return "loads", repr(load(data, fallback))
    except Exception as exc:  # the type and text of any failure are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("base", sorted(_differential_bases()))
def test_loader_matches_the_hand_written_one_on_mutated_files(base):
    text = json.dumps(_differential_bases()[base])
    rng = random.Random(base)
    loaded = 0
    for _ in range(600):
        data = _mutated(json.loads(text), rng)
        fallback = rng.choice((None, "stem"))
        expected = _outcome(oracles.scenario_from_dict, data, fallback)
        assert _outcome(scenario_from_dict, data, fallback) == expected, data
        loaded += expected[0] == "loads"
    assert loaded  # some mutations (an unused xi0 row value, say) still load


def _schema_paths(form, path=()):
    """Every key path of the format, list positions left out."""
    if isinstance(form, list):
        yield from _schema_paths(form[0], path)
    elif isinstance(form, _Object):
        for key, (sub, _) in form.keys.items():
            yield path + (key,)
            yield from _schema_paths(sub, path + (key,))


def test_every_key_of_the_format_is_covered():
    # a key added to the format needs a GOLDEN case or a differential base that holds it
    def keys_only(path):
        return tuple(p for p in path if not isinstance(p, int))
    covered = {keys_only(path) for base in _differential_bases().values()
               for path, _ in _places(base)}
    for _, message in GOLDEN.values():
        field = message.split("'")[1] if message.startswith("scenario field") else ""
        covered.add(tuple(re.sub(r"\[\d+\]", "", field).split(".")))
    assert set(_schema_paths(_SCENARIO)) <= covered


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.just(10**400), st.just(-0.0), _FLOATS,
    st.text(), st.sampled_from(["\x00\x1f\x7f", "é\u2028\U0001f600", '"\\/']),
    _FLOATS.map(np.float64), st.lists(_FLOATS), st.lists(st.integers()),
    st.lists(st.lists(_FLOATS)),
)


def _json_containers(children):
    keys = st.text(max_size=4)
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        # objects sharing their keys, as scenario files list edges
        st.lists(st.fixed_dictionaries({"a": children, "b": children}), max_size=4),
        st.lists(st.dictionaries(st.sampled_from("xy"), children), max_size=4),
    )


@settings(max_examples=300, deadline=None)
@given(value=st.recursive(_JSON_LEAVES, _json_containers, max_leaves=25))
def test_canonical_json_is_json_dumps(value):
    assert canonical_json(value) == json.dumps(value, indent=2, sort_keys=True)
