"""Whole-table checks against the record-by-record ones they replaced
(tests/oracles.py): the same normalized tables and, for a table with
several faulty records, the ValueError of the first."""

import math
from itertools import chain

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from rigiform import (ConstructionTrace, DisturbanceSpec, EdgeDisturbance, FormationGraph, random_trace,
                      trace_graph)
from rigiform.rigidity import _check_steps

# phases at and next to +-pi, at multiples of tau, huge, subnormal, signed zeros
_EDGY = (math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0),
         math.nextafter(math.pi, 4.0), 3.0 * math.pi, math.tau, -math.tau, 2.0 * math.tau,
         -3.0 * math.tau, 1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0, 1.0, -2.5)
_FINITE = st.one_of(st.sampled_from(_EDGY), st.sampled_from(_EDGY),
                    st.floats(allow_nan=False, allow_infinity=False))
# mostly finite, so that most tables pass their checks and get normalized
_ANY = st.one_of(*[_FINITE] * 9, st.sampled_from((math.nan, math.inf, -math.inf)))


def _outcome(build, *args):
    try:
        return "built", build(*args)
    except ValueError as exc:
        return "raised", str(exc)


def _bits(*tables):
    """The tables' float bits, so -0.0 and 0.0 differ."""
    return [np.asarray(t, dtype=float).tobytes() for t in tables]


@st.composite
def _entries(draw):
    p, count = draw(st.integers(0, 3)), draw(st.integers(1, 5))
    width = p + draw(st.sampled_from((0,) * 9 + (1,)))  # now and then one phase too many
    rows = st.lists(_ANY, min_size=p, max_size=p)
    return (p, draw(st.lists(_ANY, min_size=count, max_size=count)),
            draw(st.lists(rows, min_size=count, max_size=count)),
            draw(st.lists(st.lists(_ANY, min_size=width, max_size=width),
                          min_size=count, max_size=count)))


def _per_entry(p, offsets, amplitudes, phases):
    rows = list(map(oracles.edge_disturbance, offsets, amplitudes, phases))
    return _bits([r[0] for r in rows], np.array([r[1] for r in rows]).reshape(len(rows), p),
                 np.array([r[2] for r in rows]).reshape(len(rows), p))


@settings(max_examples=500, deadline=None)
@given(_entries())
@example((1, [0.0], [[1.0]], [[-math.pi]]))  # wraps to +pi
@example((2, [0.0, 1.0], [[-0.0, -1.0], [2.0, 0.0]], [[3.0, math.pi], [1e300, 4.0]]))
def test_entry_tables_match_the_per_entry_normalization(entries):
    p, offsets, amplitudes, phases = entries
    frequencies = (1.0, 2.0, 3.0)[:p]

    def tables(*args):
        spec = DisturbanceSpec.from_tables(frequencies, *args)
        return _bits(spec.offsets, spec.amplitude_table, spec.phase_table)

    want = _outcome(_per_entry, p, offsets, amplitudes, phases)
    assert _outcome(tables, offsets, amplitudes, phases) == want
    records = _outcome(lambda: [EdgeDisturbance(*row) for row in zip(offsets, amplitudes, phases)])
    if want[0] == "raised":
        assert records == want
        return
    rows = list(map(oracles.edge_disturbance, offsets, amplitudes, phases))
    assert [repr((ed.offset, ed.amplitudes, ed.phases)) for ed in records[1]] == list(map(repr, rows))
    spec = DisturbanceSpec(frequencies, records[1])
    assert spec == DisturbanceSpec.from_tables(frequencies, offsets, amplitudes, phases)


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(2, 7))
    inside = st.integers(1, n)
    anywhere = st.one_of(st.integers(-1, n + 2), st.sampled_from((0, 10 ** 30, -(2 ** 70))))
    pairs = st.one_of(st.tuples(inside, inside), st.tuples(inside, inside),
                      st.tuples(anywhere, anywhere))
    return n, draw(st.lists(pairs, max_size=12))


@settings(max_examples=500, deadline=None)
@given(_edge_lists())
def test_endpoint_table_raises_at_the_first_bad_edge(graph):
    # out of range, self-loops and repeats, several at once in any order
    n, edges = graph
    assert _outcome(lambda: FormationGraph(n, edges).edges) == _outcome(oracles.graph_edges, n, edges)


def test_endpoints_read_other_numbers_as_int_does():
    assert FormationGraph(3, [(1, 2.0), (2.9, 3)]).edges == ((1, 2), (2, 3))
    for bad, problem in ((math.nan, "cannot convert float NaN to integer"),
                         (math.inf, "edge 1: endpoints must lie in 1..3")):
        assert _outcome(FormationGraph, 3, [(1, bad)]) == ("raised", problem)


@st.composite
def _steps(draw):
    count, k = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    anchors = st.lists(st.integers(-1, 6), min_size=k, max_size=k)
    width = k + draw(st.sampled_from((0,) * 9 + (-1, 1)))
    distances = st.lists(st.one_of(st.floats(0.1, 9.0), _ANY), min_size=max(width, 0),
                         max_size=max(width, 0))
    return (draw(st.lists(anchors, min_size=count, max_size=count)),
            draw(st.lists(distances, min_size=count, max_size=count)))


@settings(max_examples=500, deadline=None)
@given(_steps())
def test_step_table_raises_at_the_first_bad_step(steps):
    anchors, distances = steps

    def per_step():
        return list(map(oracles.insertion_step, anchors, distances))

    want = _outcome(per_step)
    table = _outcome(_check_steps,
                     np.array(anchors, dtype=np.intp).reshape(len(anchors), len(anchors[0])),
                     np.array(distances, dtype=float).reshape(len(distances), len(distances[0])))
    assert table == (("built", None) if want[0] == "built" else want)


@st.composite
def _traces(draw):
    """Traces that mostly anchor to a triangle of the graph so far; now and
    then a step takes another vertex, one that is missing or not adjacent,
    or a wrong number of anchors."""
    dim = draw(st.sampled_from((2, 3, 3)))
    first = 3 if dim == 2 else 5
    triangles = [(1, 2)] if dim == 2 else [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    steps = []
    for _ in range(draw(st.integers(0, 9))):
        vertex = first + len(steps)
        anchors = list(draw(st.sampled_from(triangles)))
        if draw(st.integers(0, 4)) == 0:  # mostly a vertex that exists, adjacent or not
            anchors[draw(st.integers(0, dim - 1))] = draw(
                st.one_of(st.integers(1, vertex - 1), st.integers(1, vertex - 1),
                          st.integers(-1, vertex + 1)))
        if draw(st.integers(0, 11)) == 0:
            anchors = anchors[:2] if dim == 3 else anchors + [vertex - 1]
        if len(set(anchors)) < len(anchors):
            continue  # a step's own check refuses repeated anchors before any trace sees them
        steps.append((tuple(anchors), (1.0,) * len(anchors)))
        triangles += [(a, vertex) for a in anchors] if dim == 2 else [
            (a, b, vertex) for a, b in ((anchors[0], anchors[1]), (anchors[0], anchors[-1]),
                                        (anchors[1], anchors[-1]))]
    return dim, (1.0,) * (1 if dim == 2 else 6), steps


@settings(max_examples=500, deadline=None)
@given(_traces())
def test_growth_check_raises_at_the_first_bad_step(trace):
    # 3-D anchors that are missing or not pairwise adjacent, at random steps
    dim, seed, steps = trace
    want = _outcome(oracles.trace_edges, dim, seed, steps)
    counts = [len(anchors) for anchors, _ in steps]
    flat = [list(chain.from_iterable(column)) for column in zip(*steps)] or [[], []]
    assert _outcome(lambda: trace_graph(ConstructionTrace(dim, seed, counts, *flat)).edges) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(4, 40), st.integers(0, 2 ** 32 - 1))
def test_a_trace_rebuilds_from_its_own_tables(dim, n, seed):
    t, _ = random_trace(n, dim, np.random.default_rng(seed))
    rebuilt = ConstructionTrace(t.dim, t.seed_distances, [t.dim] * len(t.anchors), t.anchors.ravel(),
                                t.distances.ravel())
    assert rebuilt == t


def test_tables_are_copies_of_the_arrays_they_were_built_from():
    anchors, distances = np.array([1, 2, 3]), np.ones(3)
    offsets, amplitudes, phases = np.zeros(2), np.ones((2, 1)), np.zeros((2, 1))
    trace = ConstructionTrace(3, (1.0,) * 6, [3], anchors, distances)
    spec = DisturbanceSpec.from_tables((1.0,), offsets, amplitudes, phases)
    graph = FormationGraph(3, np.array([[1, 2], [2, 3]]))
    for table in (anchors, distances, offsets, amplitudes, phases):
        table += 1
    assert (trace.anchors.tolist(), trace.distances.tolist()) == ([[1, 2, 3]], [[1.0, 1.0, 1.0]])
    assert spec == DisturbanceSpec.from_tables((1.0,), np.zeros(2), np.ones((2, 1)), np.zeros((2, 1)))
    assert not any(t.flags.writeable for t in (trace.anchors, trace.distances, spec.offsets,
                                                  spec.amplitude_table, graph.endpoints))
