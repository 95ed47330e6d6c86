"""Graph, framework, and construction-trace behavior.

The rigidity matrix is checked against a finite-difference oracle of the
edge map before anything downstream relies on it.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import s1_matrix
from rigiform import (
    RANK_TOL,
    ConstructionTrace,
    FormationGraph,
    Framework,
    edge_function,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    numeric_rank,
    random_trace,
    rigid_rank_target,
    rigidity_matrix,
    s2_matrix,
    trace_distances,
    trace_graph,
)
from rigiform.analysis import certificate
from rigiform.rigidity import _check_steps


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


def test_rank_is_computed_once_per_framework(monkeypatch):
    import rigiform.rigidity as rigidity

    builds, dense = [], []
    monkeypatch.setattr(rigidity, "_diagonal_blocks",
                        lambda fw, f=rigidity._diagonal_blocks: builds.append(fw) or f(fw))
    monkeypatch.setattr(rigidity, "numeric_rank", lambda m: dense.append(m) or numeric_rank(m))
    fw = _random_framework(np.random.default_rng(4), 3)
    rigid, rank = is_infinitesimally_rigid(fw)
    assert rigid and rank == numeric_rank(rigidity_matrix(fw))
    assert is_minimally_rigid(fw) == (rigid and fw.graph.edge_count == rank)
    assert fw.rigidity_rank == rank
    assert builds == [fw]
    assert dense == []  # the blocks reached the target: no dense SVD
    twin = fw.at_positions(fw.positions)
    assert is_infinitesimally_rigid(twin)[1] == rank
    assert builds == [fw, twin]


def test_non_rigid_dag_falls_back_to_the_dense_rank(monkeypatch):
    import rigiform.rigidity as rigidity

    dense = []
    monkeypatch.setattr(rigidity, "numeric_rank", lambda m: dense.append(m.shape) or numeric_rank(m))
    rng = np.random.default_rng(6)
    for dim in (2, 3):
        trace, pts = random_trace(12, dim, rng)
        graph = trace_graph(trace)
        # acyclic: every tail precedes its head; the last inserted vertex
        # loses an edge, so its block has dim - 1 rows; every block keeps
        # full rank, so the blocks reach |E|, the upper bound, on their own
        lean = FormationGraph(graph.n, graph.edges[:-1])
        fw = Framework(lean, dim, pts, trace_distances(trace)[:-1])
        assert all(t < h for t, h in lean.edges)
        expected = numeric_rank(rigidity_matrix(fw))
        assert expected == rigid_rank_target(12, dim) - 1 == lean.edge_count
        dense.clear()
        assert fw.rigidity_rank == expected
        assert dense == []
    # a vertex placed on the line through its two anchors: a singular block,
    # so the blocks fall short of the bound and the dense rank decides
    flat = _triangle(((0.0, 0.0), (2.0, 0.0), (1.0, 0.0)))
    dense.clear()
    assert is_infinitesimally_rigid(flat) == (False, 2)
    assert dense == [(3, 6)]


def _no_dense(monkeypatch):
    """Fail the test if rigidity builds R or takes a dense rank."""
    import rigiform.rigidity as rigidity

    def refuse(*_):
        raise AssertionError("dense rigidity matrix")
    monkeypatch.setattr(rigidity, "rigidity_matrix", refuse)
    monkeypatch.setattr(rigidity, "numeric_rank", refuse)


def _strip(n, thin=None, back=False):
    """A 2-D zigzag strip, minimally rigid: vertex v at (v / 2, v % 2)
    (zero-based), joined to v - 2 and v - 1, which estimate its edges; the
    orientation is acyclic, so each block is one vertex's in-edges.  With
    `thin`, the last vertex sits that far off the midpoint of its anchors:
    its block's sigma_min / sigma_max is about 1.8 thin, 0 for thin = 0.
    With `back`, v estimates its edge to v - 2 instead: the chain
    v - 1 -> v and the back edges v -> v - 2 make one strongly connected
    component, so R and -R S2^T are each one diagonal block."""
    v = np.arange(n)
    pts = np.column_stack((0.5 * v, v % 2)).astype(float)
    if thin is not None:
        a, b = pts[n - 3], pts[n - 2]
        d = (b - a) / np.hypot(*(b - a))
        pts[n - 1] = 0.5 * (a + b) + thin * np.array([-d[1], d[0]])
    heads = np.repeat(np.arange(3, n + 1), 2)
    edges = np.concatenate(([[1, 2]], np.column_stack((heads - np.tile((2, 1), n - 2), heads))))
    if back:
        edges[1::2] = edges[1::2, ::-1]
    z = pts[edges[:, 0] - 1] - pts[edges[:, 1] - 1]
    return Framework(FormationGraph(n, edges), 2, pts, np.sqrt((z * z).sum(axis=1)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(4, 60), st.integers(0, 2 ** 32 - 1), st.data())
def test_removing_k_edges_from_a_draw_lowers_its_rank_by_k_without_a_dense_svd(dim, n, seed, data):
    trace, pts = random_trace(n, dim, np.random.default_rng(seed))
    graph = trace_graph(trace)
    removed = data.draw(st.sets(st.integers(0, graph.edge_count - 1)))
    keep = [k for k in range(graph.edge_count) if k not in removed]
    fw = Framework(FormationGraph(n, graph.endpoints[keep]), dim, pts,
                   trace_distances(trace)[keep])
    with pytest.MonkeyPatch.context() as mp:
        _no_dense(mp)
        assert fw.rigidity_rank == graph.edge_count - len(removed)


def test_a_thin_triangle_in_a_long_strip_is_ranked_by_its_blocks(monkeypatch):
    # Keep n = 2e4: a tolerance scaled by ||R||_F max(|E|, 2n) would call the
    # thin block deficient here (1.2e-3 against its sigma_min of 1.4e-5),
    # though not at n = 100, and R would be a 39997 x 40000 dense matrix.
    fw = _strip(20_000, thin=1e-5)
    _no_dense(monkeypatch)
    tracemalloc.start()
    try:
        rank = fw.rigidity_rank
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == fw.graph.edge_count == rigid_rank_target(20_000, 2) == 39997
    assert peak < 32e6  # R alone would take 12.8 GB
    s = fw.diagonal_blocks[-1].singular_values
    assert 1e-5 < (s[:, -1] / s[:, 0]).min() < 1e-4


def test_a_singular_block_just_below_the_dense_cap_gets_its_dense_rank(monkeypatch):
    import rigiform.rigidity as rigidity

    dense = []
    monkeypatch.setattr(rigidity, "numeric_rank", lambda m: dense.append(m.shape) or numeric_rank(m))
    fw = _strip(1000, thin=0.0)  # a 1997 x 2000 R; test_cli checks 1001 agents, over the cap
    assert 1997 * 2000 <= rigidity._DENSE_RANK_CAP < 1999 * 2002
    assert fw.rigidity_rank == 1996
    assert dense == [(1997, 2000)]


def test_a_vertex_with_more_than_dim_in_edges_is_ranked_without_a_dense_svd(monkeypatch):
    # the reversed edge gives its anchor a third in-edge: the file's own blocks
    # count 1998, and the lower-to-higher orientation's blocks the full 1999
    trace, pts = random_trace(1001, 2, np.random.default_rng(0))
    ends = trace_graph(trace).endpoints.copy()
    ends[-2] = ends[-2, ::-1]
    fw = Framework(FormationGraph(1001, ends), 2, pts, trace_distances(trace))
    _no_dense(monkeypatch)
    assert sum(stack.rank for stack in fw.diagonal_blocks) == 1998
    assert fw.rigidity_rank == rigid_rank_target(1001, 2) == 1999


def test_a_block_over_the_cap_leaves_the_rank_to_the_upward_blocks(monkeypatch):
    # one strongly connected component: its 1999 x 2002 block is over the cap,
    # while the lower-to-higher orientation's one-vertex blocks rank it at once
    fw = _strip(1001, back=True)
    _no_dense(monkeypatch)
    assert fw.rigidity_rank == rigid_rank_target(1001, 2) == 1999
    with pytest.raises(ValueError, match="^spectrum not decided: a 1999 x 2002 SVD is over the cap"):
        certificate(fw)  # the spectrum still needs that block


@pytest.mark.parametrize("dim, n", [(2, 10), (2, 100), (2, 500), (3, 10), (3, 100), (3, 300)])
def test_block_rank_equals_the_dense_rank_where_that_is_clear(dim, n, monkeypatch):
    # three draws each, with up to three edges removed: the blocks decide
    import rigiform.rigidity as rigidity

    dense = []
    monkeypatch.setattr(rigidity, "numeric_rank", lambda m: dense.append(m.shape) or numeric_rank(m))
    rng = np.random.default_rng(10 * n + dim)
    for _ in range(3):
        trace, pts = random_trace(n, dim, rng)
        graph = trace_graph(trace)
        keep = np.sort(rng.permutation(graph.edge_count)[int(rng.integers(4)):])
        fw = Framework(FormationGraph(n, graph.endpoints[keep]), dim, pts,
                       trace_distances(trace)[keep])
        r = rigidity_matrix(fw)
        s = np.linalg.svd(r, compute_uv=False)
        rank = numeric_rank(r)
        assert s[rank - 1] > 100 * RANK_TOL * s[0] * max(r.shape)  # far from the tolerance
        assert fw.rigidity_rank == rank
    assert dense == []


def _scc_partition(labels):
    groups = {}
    for v, c in enumerate(np.asarray(labels).tolist()):
        groups.setdefault(c, set()).add(v)
    return sorted(sorted(g) for g in groups.values())


@pytest.mark.parametrize("acyclic", [True, False])
def test_strongly_connected_components_match_scipy(acyclic):
    from oracles import strong_components
    from rigiform.rigidity import strongly_connected_components

    rng = np.random.default_rng(7 + acyclic)
    for n in [1, 2, 3, 5, 8, 13, 40, 100, 300]:
        for _ in range(8):
            arcs = int(rng.integers(0, 3 * n + 1))
            tails = rng.integers(0, n, size=arcs)
            heads = rng.integers(0, n, size=arcs)
            if acyclic:  # arcs run forward in a random vertex order
                rank = rng.permutation(n)
                keep = rank[tails] != rank[heads]
                forward = rank[tails[keep]] < rank[heads[keep]]
                tails, heads = (np.where(forward, tails[keep], heads[keep]),
                                np.where(forward, heads[keep], tails[keep]))
            components = strongly_connected_components(n, tails.tolist(), heads.tolist())
            assert all(c == sorted(c) for c in components)
            assert sorted(components) == _scc_partition(strong_components(n, tails, heads))
            if acyclic:
                assert all(len(c) == 1 for c in components)
            # reverse topological: no arc reaches a component closed earlier
            order = np.empty(n, dtype=int)
            for i, c in enumerate(components):
                order[c] = i
            assert (order[tails] >= order[heads]).all()


def test_strongly_connected_components_run_past_the_recursion_limit():
    from rigiform.rigidity import strongly_connected_components

    n = 5000  # one directed cycle, deeper than any recursive search could go
    ring = list(range(n))
    assert strongly_connected_components(n, ring, ring[1:] + ring[:1]) == [ring]
    assert strongly_connected_components(n, ring[:-1], ring[1:]) == [[v] for v in reversed(ring)]


def _min_gap_oracle(pts, cand):
    return min(float(np.linalg.norm(cand - p)) for p in pts)


@pytest.mark.parametrize("dim", [2, 3])
def test_min_gap_equals_the_per_point_norm_loop(dim):
    from rigiform.rigidity import _min_gap

    rng = np.random.default_rng(dim)
    for m in [1, 2, 3, 4, 7, 31, 32, 33, 64, 100, 199, 255, 300]:
        for _ in range(20):
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            pts = rng.normal(size=(m, dim)) * scale
            cand = rng.normal(size=dim) * scale
            assert _min_gap(pts, cand) == _min_gap_oracle(pts, cand)
    # a candidate on top of a placed point
    pts = rng.uniform(-2.0, 2.0, size=(9, dim))
    assert _min_gap(pts, pts[4].copy()) == 0.0


def test_numeric_rank_basics():
    assert numeric_rank(np.zeros((3, 4))) == 0
    assert numeric_rank(np.eye(5)) == 5
    v = np.arange(1.0, 5.0)
    assert numeric_rank(np.outer(v, v)) == 1


# --- construction traces ---------------------------------------------------


def test_3d_seed_tail_pattern():
    # and the 2-D seed with one insertion: the anchors estimate the new edges
    for trace, edges in [
        (ConstructionTrace(3, (1.0,) * 6), ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))),
        (ConstructionTrace(2, (1.0,), [2], (1, 2), (1.0, 1.0)), ((1, 2), (1, 3), (2, 3))),
    ]:
        graph = trace_graph(trace)
        assert graph.edges == edges
        assert tuple(int(t) + 1 for t in graph.tails) == tuple(t for t, _ in edges)


def test_trace_edge_count_matches_minimal_rigidity():
    rng = np.random.default_rng(12)
    for dim, count in ((2, 13), (3, 18)):
        trace, pts = random_trace(8, dim, rng)
        graph = trace_graph(trace)
        assert graph.edge_count == count == rigid_rank_target(8, dim)
        distances = np.array(trace_distances(trace))
        fw = Framework(graph, dim, pts, distances)
        # the returned embedding realizes the trace's own distances
        assert (np.abs(np.sqrt(edge_function(fw)) - distances) <= 1e-12 * distances).all()
        assert is_minimally_rigid(fw)
        assert numeric_rank(rigidity_matrix(fw)) == count


def test_trace_validation_errors():
    with pytest.raises(ValueError, match="seed needs exactly 1"):
        ConstructionTrace(2, (1.0, 2.0))
    with pytest.raises(ValueError, match="seed needs exactly 6"):
        ConstructionTrace(3, (1.0,))
    with pytest.raises(ValueError, match="anchors must already exist"):
        ConstructionTrace(2, (1.0,), [2], (1, 5), (1.0, 1.0))
    with pytest.raises(ValueError, match="needs 3 anchors"):
        ConstructionTrace(3, (1.0,) * 6, [2], (1, 2), (1.0, 1.0))
    # vertices 4 and 5 are never joined, so they cannot anchor vertex 6 together
    with pytest.raises(ValueError, match="not adjacent"):
        ConstructionTrace(3, (1.0,) * 6, [3, 3], (1, 2, 3, 1, 4, 5), (1.0,) * 6)
    with pytest.raises(ValueError, match="positive"):
        ConstructionTrace(2, (-1.0,))
    # the tables hold as many values as the counts add up to
    with pytest.raises(ValueError, match="^anchors: 3 values, counts need 2$"):
        ConstructionTrace(2, (1.0,), [2], (1, 2, 3), (1.0,) * 3)
    with pytest.raises(ValueError, match="^anchors: 1 values, counts need 2$"):
        ConstructionTrace(2, (1.0,), [2], (1,), (1.0,) * 2)
    with pytest.raises(ValueError, match="^distances: 3 values, counts need 2$"):
        ConstructionTrace(2, (1.0,), [2], (1, 2), (1.0,) * 3)


def test_insertion_step_validation():
    with pytest.raises(ValueError, match="distinct"):
        ConstructionTrace(2, (1.0,), [2], (1, 1), (1.0, 1.0))
    # a trace's table has dim columns; the loader checks each row's own widths
    with pytest.raises(ValueError, match="one distance per anchor"):
        _check_steps(np.array([[1, 2]]), np.array([[1.0]]))
    with pytest.raises(ValueError, match="2 .*or 3"):
        _check_steps(np.array([[1]]), np.array([[1.0]]))


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


def test_graph_equality_and_repr_read_its_vertex_count_and_table():
    graph = FormationGraph(3, ((1, 2), (2, 3)))
    assert graph == FormationGraph(3, [[1, 2], [2, 3]])
    assert graph != FormationGraph(4, ((1, 2), (2, 3)))
    assert graph != FormationGraph(3, ((2, 1), (2, 3)))
    assert repr(graph) == "FormationGraph(3, array([[1, 2],\n       [2, 3]]))"


def test_rigid_rank_target_counts_every_pair_up_to_dim_agents():
    # a simplex's edges for n <= dim, so two agents need rank 1 in either dimension
    assert [rigid_rank_target(n, 2) for n in range(2, 6)] == [1, 3, 5, 7]
    assert [rigid_rank_target(n, 3) for n in range(2, 7)] == [1, 3, 6, 9, 12]


_TRIANGLE = FormationGraph(3, ((1, 2), (2, 3), (1, 3)))


@pytest.mark.parametrize("build, message", [
    (lambda: Framework(_TRIANGLE, 4, np.zeros((3, 4)), np.ones(3)), "dim must be 2 or 3"),
    (lambda: Framework(_TRIANGLE, 2, np.zeros((3, 2)), np.ones(2)),
     "need one target distance per edge (3)"),
    (lambda: numeric_rank(np.ones(3)), "rank is defined for 2-D matrices"),
    (lambda: rigid_rank_target(1, 2), "2-D rigidity test needs n >= 2"),
    (lambda: rigid_rank_target(1, 3), "3-D rigidity test needs n >= 2"),
    (lambda: rigid_rank_target(4, 4), "dim must be 2 or 3"),
    (lambda: ConstructionTrace(4, (1.0,) * 6), "dim must be 2 or 3"),
    (lambda: random_trace(1, 2, np.random.default_rng(0)), "2-D trace needs n >= 2"),
    (lambda: random_trace(5, 4, np.random.default_rng(0)), "dim must be 2 or 3"),
    (lambda: random_trace(3, 3, np.random.default_rng(0)), "3-D trace needs n >= 4"),
    (lambda: rigid_rank_target(1, 4), "dim must be 2 or 3"),
])
def test_rigidity_records_name_what_they_reject(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_outward_proposal_clears_every_placed_vertex():
    # however crowded the placed vertices, the fallback's candidate keeps
    # the sampler's 0.35 separation from all of them
    from rigiform.rigidity import _Draws, _min_gap, _outward_proposal

    rng = np.random.default_rng(7)
    for m in (2, 3, 50, 400):
        placed = rng.uniform(-3.0, 3.0, size=(m, 2))
        draws = _Draws(rng)
        for _ in range(50):
            a, b, cand = _outward_proposal(placed, draws)
            assert 0 <= a < b < m
            assert _min_gap(placed, cand) >= 0.35
        draws.restore()


def _assert_same_draw(n, dim, seed, buffered=False):
    old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:  # each generator holds the high half of a word on entry
        assert old_rng.integers(7) == new_rng.integers(7)
        assert new_rng.bit_generator.state["has_uint32"] == 1
    old_trace, old_pts = oracles.random_trace(n, dim, old_rng)
    trace, pts = random_trace(n, dim, new_rng)
    assert trace == old_trace
    assert np.array_equal(pts, old_pts)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [4, 5, 40, 200, 250])
def test_random_trace_draws_what_the_array_sampler_drew(n, dim):
    for seed in range(20):
        _assert_same_draw(n, dim, seed)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [4, 5, 40, 200, 250])
def test_random_trace_draws_what_the_array_sampler_drew_after_a_buffered_half_word(n, dim):
    for seed in range(20):
        _assert_same_draw(n, dim, seed, buffered=True)


def test_random_trace_steps_outward_as_the_array_sampler_did():
    # seed 0's n=900 draw runs out of pair proposals and places by the fallback
    _assert_same_draw(900, 2, 0)


def test_anchor_pair_consumes_the_stream_rng_choice_does():
    # a numpy that changes Floyd's algorithm or the shuffle in Generator.choice fails here
    from rigiform.rigidity import _anchor_pair, _Draws

    for m in [*range(2, 61), 200, 10_000]:
        for seed in range(200):
            old, new = np.random.default_rng(seed), np.random.default_rng(seed)
            draws = _Draws(new)
            assert list(_anchor_pair(m, draws)) == sorted(old.choice(m, 2, replace=False).tolist())
            draws.restore()
            assert new.random(2).tolist() == old.random(2).tolist()
            assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("buffered", [0, 1])
def test_draws_serve_what_the_generators_own_calls_serve(buffered):
    # Lemire's rejection takes a second half-word for about half the draws
    # at 2**31 + 1; 150 rounds cross several block refills
    from rigiform.rigidity import _Draws

    for seed in range(4):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:
            assert rng.integers(3) == twin.integers(3)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert rng.bit_generator.state["has_uint32"] == buffered
        draws, got, want = _Draws(rng), [], []
        for high in (1, 2, 3, 7, 200, 10**4, 2**31 + 1, 2**32 - 1):
            for _ in range(150):
                got += [draws.integers(high), draws.uniform(0.0, 1.0), draws.integers(high),
                        draws.uniform(-1.4, 1.4), draws.integers(high)]
                want += [int(twin.integers(high)), float(twin.random()), int(twin.integers(high)),
                         float(twin.uniform(-1.4, 1.4)), int(twin.integers(high))]
        draws.restore()
        assert got == want
        assert rng.bit_generator.state == twin.bit_generator.state


def test_a_volume_at_the_threshold_is_decided_by_the_determinant(monkeypatch):
    # a triple product within 1e-9 of the Hadamard bound of 1.8 goes to
    # np.linalg.det; rotating the 1.8 x 1 x 1 frame lands on both sides
    from rigiform.rigidity import _too_flat

    det, calls = np.linalg.det, []
    monkeypatch.setattr(np.linalg, "det", lambda a: calls.append(a) or det(a))
    rng = np.random.default_rng(5)
    frames = [np.diag(d) for d in ([1.8, 1.0, 1.0], [1.0, -1.0, 1.8], [0.9, 2.0, 1.0])]
    frames += [frames[0] @ np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(200)]
    decided = []
    for legs in frames:
        decided.append(_too_flat(legs.tolist()))
        assert decided[-1] == (abs(det(legs)) / 6.0 < 0.3)
    assert len(calls) == len(frames)
    assert 10 < sum(decided) < len(frames) - 10


def test_random_trace_draws_through_the_bit_generator_alone():
    # every draw is read off the PCG64 words; another bit generator is refused
    class Silent(np.random.Generator):
        def integers(self, *args, **kwargs):
            raise AssertionError("Generator.integers called")

        random = uniform = integers

    for n, dim in [(200, 2), (900, 2), (250, 3)]:
        old_rng, new_rng = np.random.default_rng(0), Silent(np.random.PCG64(0))
        old_trace, _ = oracles.random_trace(n, dim, old_rng)
        assert random_trace(n, dim, new_rng)[0] == old_trace
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
    rng, twin = (np.random.Generator(np.random.MT19937(0)) for _ in range(2))
    with pytest.raises(ValueError, match=r"^random_trace needs a numpy Generator over PCG64, as "
                                         r"np\.random\.default_rng makes$"):
        random_trace(10, 2, rng)
    assert rng.random(4).tolist() == twin.random(4).tolist()  # nothing drawn


@pytest.mark.parametrize("n, dim, bound", [(200, 2, 240), (250, 3, 550)])
def test_a_generated_draw_holds_no_large_word_block(n, dim, bound):
    # the reader's word blocks are Python lists while they last; at up to
    # 4096 words the second call peaked at 287 and 569 KiB, at up to 1024 at 195 and 526
    from rigiform import generate_scenario

    generate_scenario(n, dim, 0)  # lookup tables built on a first call stay out of the peak
    tracemalloc.start()
    try:
        generate_scenario(n, dim, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 1024


@pytest.mark.parametrize("dim, gap", [(2, 0.35), (3, 0.4)])
def test_gap_grid_decides_as_min_gap_does_at_the_boundary(monkeypatch, dim, gap):
    import rigiform.rigidity as rigidity

    min_gap = rigidity._min_gap
    fallbacks = []

    def counted(placed, cand):
        fallbacks.append(cand)
        return min_gap(placed, cand)

    monkeypatch.setattr(rigidity, "_min_gap", counted)
    cell = 1.0 / rigidity._GapGrid(gap, []).scale
    rng = np.random.default_rng(dim)
    # on cell edges and half-cell edges, both sides of zero (where floor matters), and just off them
    edges = [np.full(dim, k * cell / 2.0) for k in (-7, -4, -1, 0, 1, 3, 6)]
    sites = edges + [np.nextafter(s, np.inf) for s in edges] + [np.nextafter(s, -np.inf) for s in edges]
    sites += [rng.uniform(-5.0, 5.0, size=dim) for _ in range(4)]
    directions = [np.eye(dim)[i] * sign for i in range(dim) for sign in (1.0, -1.0)]
    directions += [np.ones(dim) / math.sqrt(dim), -rng.uniform(0.1, 1.0, size=dim)]
    directions[-1] /= np.linalg.norm(directions[-1])
    verdicts = set()
    for site in sites:
        far = [site + rng.uniform(1.5, 3.0, size=dim) * rng.choice((-1.0, 1.0), size=dim)
               for _ in range(3)]  # out of reach: more than 1.5 from the site on every axis
        for u in directions:
            for k in range(-4, 5):
                off = gap * (1.0 + k * 2.0 ** -52) * u
                # a candidate off a placed site, and a candidate on the site off a placed point
                for placed, cand in (([site] + far, site + off), ([site - off] + far, site)):
                    placed = np.array(placed)
                    grid = rigidity._GapGrid(gap, placed.tolist())
                    before = len(fallbacks)
                    verdict = grid.crowds(cand.tolist(), placed)
                    assert verdict == (min_gap(placed, cand) < gap)
                    assert len(fallbacks) == before + 1  # within the margin: numpy decides
                    verdicts.add(verdict)
            # outside the margin the cells decide alone
            for scale, want in ((1.0 - 2.0 ** -30, True), (1.0 + 2.0 ** -30, False)):
                placed = np.array([site] + far)
                grid = rigidity._GapGrid(gap, placed.tolist())
                before = len(fallbacks)
                assert grid.crowds((site + gap * scale * u).tolist(), placed) is want
                assert len(fallbacks) == before
    assert verdicts == {True, False}
