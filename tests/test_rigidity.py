"""Graph, framework, and construction-trace behavior.

The rigidity matrix is checked against a finite-difference oracle of the
edge map before anything downstream relies on it.
"""

import math

import numpy as np
import pytest

from rigiform import (
    ConstructionTrace,
    FormationGraph,
    Framework,
    InsertionStep,
    build_from_trace,
    edge_function,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    numeric_rank,
    random_trace,
    rigid_rank_target,
    rigidity_matrix,
    s1_matrix,
    s2_matrix,
    trace_distances,
    trace_graph,
)


def _random_framework(rng, dim):
    n = int(rng.integers(3 if dim == 2 else 4, 9))
    trace, pts = random_trace(n, dim, rng)
    graph = trace_graph(trace)
    positions = pts + rng.uniform(-0.2, 0.2, size=pts.shape)
    return Framework(graph, dim, positions, np.ones(graph.edge_count))


def _fd_jacobian(fw, h=1e-6):
    """Central-difference Jacobian of the edge map, the oracle for R."""
    base = fw.positions
    cols = []
    for i in range(fw.graph.n):
        for j in range(fw.dim):
            shift = np.zeros_like(base)
            shift[i, j] = h
            plus = edge_function(fw.at_positions(base + shift))
            minus = edge_function(fw.at_positions(base - shift))
            cols.append((plus - minus) / (2.0 * h))
    return np.column_stack(cols)


def test_rigidity_matrix_matches_fd_jacobian():
    rng = np.random.default_rng(101)
    for trial in range(100):
        fw = _random_framework(rng, 2 if trial % 2 == 0 else 3)
        jac = 2.0 * rigidity_matrix(fw)
        fd = _fd_jacobian(fw)
        scale = max(1.0, np.abs(jac).max())
        assert np.abs(fd - jac).max() / scale < 1e-6


def _triangle(positions=((0.0, 0.0), (1.0, 0.0), (0.5, 0.9))):
    graph = FormationGraph(3, ((1, 2), (2, 3), (1, 3)))
    pts = np.asarray(positions, dtype=float)
    d = [np.linalg.norm(pts[t - 1] - pts[h - 1]) for t, h in graph.edges]
    return Framework(graph, 2, pts, d)


def _square_cycle():
    graph = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return Framework(graph, 2, pts, np.ones(4))


def test_triangle_rank_three_minimally_rigid():
    fw = _triangle()
    rigid, rank = is_infinitesimally_rigid(fw)
    assert rank == 3
    assert rigid
    assert is_minimally_rigid(fw)


def test_square_cycle_rank_four_not_rigid():
    fw = _square_cycle()
    rigid, rank = is_infinitesimally_rigid(fw)
    assert rank == 4
    assert not rigid
    assert not is_minimally_rigid(fw)


def test_triangular_bipyramid_rank_nine():
    # two apexes on opposite sides of an equilateral base
    base_y = 5.0 * math.sqrt(3.0) / 2.0
    center_y = 5.0 * math.sqrt(3.0) / 6.0
    apex_z = 5.0 * math.sqrt(2.0 / 3.0)
    pts = np.array([
        [0.0, 0.0, 0.0],
        [5.0, 0.0, 0.0],
        [2.5, base_y, 0.0],
        [2.5, center_y, apex_z],
        [2.5, center_y, -apex_z],
    ])
    edges = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5), (2, 5), (3, 5))
    graph = FormationGraph(5, edges)
    fw = Framework(graph, 3, pts, [5.0] * 9)
    rigid, rank = is_infinitesimally_rigid(fw)
    assert rank == 9 == rigid_rank_target(5, 3)
    assert rigid and is_minimally_rigid(fw)


def test_rigidity_matrix_splits_into_tail_and_head_parts():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        fw = _random_framework(rng, dim)
        s1 = s1_matrix(fw)
        s2 = s2_matrix(fw)
        assert np.array_equal(s1 + s2, rigidity_matrix(fw))
        # supports are disjoint: no coordinate is both a tail and a head slot
        assert not np.logical_and(s1 != 0.0, s2 != 0.0).any()


def _incidence_rows(graph, head_value):
    """|E| x n incidence rows: +1 at the tail, head_value at the head."""
    out = np.zeros((graph.edge_count, graph.n))
    rows = np.arange(graph.edge_count)
    out[rows, graph.tails] = 1.0
    out[rows, graph.heads] = head_value
    return out


def test_incidence_and_selector_identities():
    # the paper's stacked forms: z = (H (x) I) x and tail positions = (J (x) I) x
    rng = np.random.default_rng(8)
    fw = _random_framework(rng, 2)
    graph, m = fw.graph, fw.dim
    x = fw.positions.ravel()
    z = fw.relative_vectors

    picked = (np.kron(_incidence_rows(graph, -1.0), np.eye(m)) @ x).reshape(-1, m)
    assert np.array_equal(picked, z)

    tails = (np.kron(_incidence_rows(graph, 0.0), np.eye(m)) @ x).reshape(-1, m)
    assert np.array_equal(tails, fw.positions[graph.tails])


def test_translations_lie_in_the_kernel():
    rng = np.random.default_rng(9)
    for dim in (2, 3):
        fw = _random_framework(rng, dim)
        r = rigidity_matrix(fw)
        shift = np.tile(rng.standard_normal(dim), fw.graph.n)
        assert np.abs(r @ shift).max() < 1e-12 * max(1.0, np.abs(r).max())


def test_edge_function_is_rotation_invariant():
    rng = np.random.default_rng(10)
    fw = _random_framework(rng, 2)
    theta = 0.83
    q = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rotated = fw.at_positions(fw.positions @ q.T)
    assert np.abs(edge_function(rotated) - edge_function(fw)).max() < 1e-12 * max(
        1.0, np.abs(edge_function(fw)).max()
    )


def test_rank_never_exceeds_target_even_with_spare_edges():
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        for _ in range(10):
            n = int(rng.integers(4, 8))
            trace, pts = random_trace(n, dim, rng)
            graph = trace_graph(trace)
            edges = list(graph.edges)
            present = {frozenset(e) for e in edges}
            candidates = [
                (a, b)
                for a in range(1, n + 1)
                for b in range(a + 1, n + 1)
                if frozenset((a, b)) not in present
            ]
            if candidates:
                extra = rng.choice(len(candidates), size=min(2, len(candidates)), replace=False)
                edges.extend(candidates[int(k)] for k in extra)
            fat = Framework(FormationGraph(n, tuple(edges)), dim, pts, np.ones(len(edges)))
            target = rigid_rank_target(n, dim)
            assert numeric_rank(rigidity_matrix(fat)) == target


def test_numeric_rank_basics():
    assert numeric_rank(np.zeros((3, 4))) == 0
    assert numeric_rank(np.eye(5)) == 5
    v = np.arange(1.0, 5.0)
    assert numeric_rank(np.outer(v, v)) == 1


# --- construction traces ---------------------------------------------------


def test_triangle_trace_builds_equilateral():
    trace = ConstructionTrace(2, (1.0,), (InsertionStep((1, 2), (1.0, 1.0)),))
    fw = build_from_trace(trace)
    assert fw.graph.edges == ((1, 2), (1, 3), (2, 3))
    lengths = np.sqrt(edge_function(fw))
    assert np.abs(lengths - 1.0).max() < 1e-12
    assert is_minimally_rigid(fw)
    # positive placement always picks the upper intersection
    assert fw.positions[2, 1] > 0


def test_3d_seed_tail_pattern():
    trace = ConstructionTrace(3, (1.0,) * 6)
    graph = trace_graph(trace)
    assert graph.edges == ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
    assert tuple(int(t) + 1 for t in graph.tails) == (1, 1, 2, 1, 2, 3)


def test_trace_edge_count_matches_minimal_rigidity():
    rng = np.random.default_rng(12)
    trace, pts = random_trace(8, 2, rng)
    graph = trace_graph(trace)
    assert graph.edge_count == 13 == rigid_rank_target(8, 2)
    fw = Framework(graph, 2, pts, trace_distances(trace))
    assert is_minimally_rigid(fw)
    assert numeric_rank(rigidity_matrix(fw)) == 13


def test_build_from_trace_is_deterministic():
    trace = ConstructionTrace(
        2,
        (1.3,),
        (InsertionStep((1, 2), (1.1, 0.9)), InsertionStep((2, 3), (1.0, 1.2))),
    )
    a = build_from_trace(trace)
    b = build_from_trace(trace)
    assert np.array_equal(a.positions, b.positions)


def test_random_placement_realizes_distances():
    trace = ConstructionTrace(
        2,
        (1.3,),
        (InsertionStep((1, 2), (1.1, 0.9)), InsertionStep((2, 3), (1.0, 1.2))),
    )
    fw = build_from_trace(trace, placement="random", rng=np.random.default_rng(3))
    lengths = np.sqrt(edge_function(fw))
    assert np.abs(lengths - np.asarray(trace_distances(trace))).max() < 1e-9
    assert is_minimally_rigid(fw)


def _bipyramid_trace():
    return ConstructionTrace(
        3, (5.0,) * 6, (InsertionStep((1, 2, 3), (5.0, 5.0, 5.0)),)
    )


def test_positive_placement_doubles_the_tetrahedron():
    # the all-positive embedding puts both apexes on the same spot; with no
    # edge between them that is still a rank-9 (rigid) realization
    fw = build_from_trace(_bipyramid_trace())
    assert np.array_equal(fw.positions[3], fw.positions[4])
    assert is_minimally_rigid(fw)


def test_random_placement_realizes_the_bipyramid_distances():
    fw = build_from_trace(_bipyramid_trace(), placement="random", rng=np.random.default_rng(0))
    assert is_minimally_rigid(fw)
    lengths = np.sqrt(edge_function(fw))
    assert np.abs(lengths - 5.0).max() < 1e-9


def test_explicit_placement_checked_against_distances():
    trace = ConstructionTrace(2, (1.0,), (InsertionStep((1, 2), (1.0, 1.0)),))
    good = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    fw = build_from_trace(trace, placement=good)
    assert np.array_equal(fw.positions, good)
    with pytest.raises(ValueError, match="does not realize"):
        build_from_trace(trace, placement=2.0 * good)


def test_unreachable_circles_rejected():
    trace = ConstructionTrace(2, (3.0,), (InsertionStep((1, 2), (1.0, 1.0)),))
    with pytest.raises(ValueError, match="could not realize"):
        build_from_trace(trace)


def test_tangent_circles_rejected():
    # circles touch in a single point on the anchor line: collinear, rank drops
    trace = ConstructionTrace(2, (2.0,), (InsertionStep((1, 2), (1.0, 1.0)),))
    with pytest.raises(ValueError, match="could not realize"):
        build_from_trace(trace)


def test_collinear_3d_seed_rejected():
    trace = ConstructionTrace(3, (2.0, 1.0, 3.0, 2.0, 2.0, 2.0))
    with pytest.raises(ValueError, match="could not realize"):
        build_from_trace(trace)


def test_trace_validation_errors():
    with pytest.raises(ValueError, match="seed needs exactly 1"):
        ConstructionTrace(2, (1.0, 2.0))
    with pytest.raises(ValueError, match="seed needs exactly 6"):
        ConstructionTrace(3, (1.0,))
    with pytest.raises(ValueError, match="anchors must already exist"):
        ConstructionTrace(2, (1.0,), (InsertionStep((1, 5), (1.0, 1.0)),))
    with pytest.raises(ValueError, match="needs 3 anchors"):
        ConstructionTrace(3, (1.0,) * 6, (InsertionStep((1, 2), (1.0, 1.0)),))
    # vertices 4 and 5 are never joined, so they cannot anchor vertex 6 together
    with pytest.raises(ValueError, match="not adjacent"):
        ConstructionTrace(
            3,
            (1.0,) * 6,
            (
                InsertionStep((1, 2, 3), (1.0, 1.0, 1.0)),
                InsertionStep((1, 4, 5), (1.0, 1.0, 1.0)),
            ),
        )
    with pytest.raises(ValueError, match="positive"):
        ConstructionTrace(2, (-1.0,))


def test_insertion_step_validation():
    with pytest.raises(ValueError, match="distinct"):
        InsertionStep((1, 1), (1.0, 1.0))
    with pytest.raises(ValueError, match="one distance per anchor"):
        InsertionStep((1, 2), (1.0,))
    with pytest.raises(ValueError, match="2 .*or 3"):
        InsertionStep((1,), (1.0,))


def test_graph_validation():
    with pytest.raises(ValueError):
        FormationGraph(1, ())
    with pytest.raises(ValueError, match="endpoint"):
        FormationGraph(3, ((1, 4),))
    with pytest.raises(ValueError, match="loop"):
        FormationGraph(3, ((2, 2),))
    with pytest.raises(ValueError, match="duplicate"):
        FormationGraph(3, ((1, 2), (2, 1)))


def test_framework_validation():
    graph = FormationGraph(3, ((1, 2), (2, 3), (1, 3)))
    pts3 = np.zeros((3, 3))
    with pytest.raises(ValueError):
        Framework(graph, 2, pts3, np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        Framework(graph, 3, pts3, [1.0, -1.0, 1.0])
    bad = np.zeros((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Framework(graph, 2, bad, np.ones(3))
