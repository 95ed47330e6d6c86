"""Stability matrix, estimation-assignment rules, and certification.

Spectra of the small closed-form cases are verified against quadratic and
Cardano root formulas computed from characteristic-polynomial coefficients,
independently of the eigensolver.
"""

import cmath
import re
import warnings

import numpy as np
import pytest

from oracles import block_spectrum, s1_matrix, transformed_coords
from rigiform import (
    HURWITZ_TOL,
    AssignmentRule,
    ConstructionTrace,
    FormationGraph,
    Framework,
    builtin_scenario,
    certificate,
    certify,
    default_basis,
    exosystem_initial_state,
    generate_scenario,
    is_hurwitz,
    is_infinitesimally_rigid,
    numeric_rank,
    random_trace,
    rigid_rank_target,
    rigidity_matrix,
    s2_matrix,
    select_estimating_agents,
    stability_matrix,
    trace_distances,
    trace_graph,
)


def _framework_on(edges, pts, dim=2):
    pts = np.asarray(pts, dtype=float)
    graph = FormationGraph(len(pts), tuple(edges))
    d = [np.linalg.norm(pts[t - 1] - pts[h - 1]) for t, h in graph.edges]
    return Framework(graph, dim, pts, d)


def _random_triangle(rng, edges=((1, 2), (2, 3), (3, 1))):
    while True:
        pts = rng.uniform(-2.0, 2.0, (3, 2))
        a, b, c = pts
        area = 0.5 * abs((b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0])
        if area > 0.3:
            return _framework_on(edges, pts)


def test_one_strongly_connected_strip_certifies_with_the_dense_spectrum():
    # one diagonal block as large as R (397 x 400), under the dense cap
    from test_rigidity import _strip

    fw = _strip(200, back=True)
    cert = certificate(fw)
    assert cert.certified and cert.rank == 397
    dense = np.linalg.eigvals(stability_matrix(fw))
    dense = dense[np.lexsort((dense.imag, dense.real))]
    assert np.abs(cert.spectrum - dense).max() <= 1e-9 * np.abs(dense).max()


def test_is_hurwitz_literals():
    ok, margin = is_hurwitz(np.diag([-1.0, -2.0]))
    assert ok and margin == -1.0
    # pure rotation: eigenvalues on the axis, margin exactly zero
    ok, margin = is_hurwitz(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert not ok and margin == 0.0


def test_is_hurwitz_on_shifted_gram_matrices():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = rng.standard_normal((5, 5))
        ok, margin = is_hurwitz(-(m @ m.T) - np.eye(5))
        assert ok and margin <= -1.0 + 1e-9


def test_is_hurwitz_input_validation():
    with pytest.raises(ValueError, match="square"):
        is_hurwitz(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        is_hurwitz(np.array([[np.nan]]))


def test_stability_matrix_requires_consistent_distances():
    fw = _framework_on(((1, 2), (2, 3), (3, 1)), [[0.0, 0.0], [1.0, 0.0], [0.4, 1.1]])
    off = fw.at_positions(fw.positions * 1.5)
    with pytest.raises(ValueError, match="does not satisfy"):
        stability_matrix(off)


def test_stability_matrix_warns_when_not_rigid():
    square = _framework_on(
        ((1, 2), (2, 3), (3, 4), (4, 1)),
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    )
    with pytest.warns(RuntimeWarning, match="not infinitesimally rigid"):
        stability_matrix(square)


def test_stability_matrix_tail_head_decomposition():
    rng = np.random.default_rng(32)
    for _ in range(10):
        fw = _random_triangle(rng)
        z = stability_matrix(fw)
        r = rigidity_matrix(fw)
        alt = -r @ r.T + r @ s1_matrix(fw).T
        assert np.abs(z - alt).max() < 1e-12 * max(1.0, np.abs(z).max())
        assert np.array_equal(z, -r @ s2_matrix(fw).T)


def test_stability_matrix_diagonal_is_squared_lengths():
    rng = np.random.default_rng(33)
    fw = _random_triangle(rng)
    z = stability_matrix(fw)
    lengths_sq = (fw.relative_vectors ** 2).sum(axis=1)
    assert np.abs(np.diag(z) + lengths_sq).max() < 1e-12 * lengths_sq.max()


def test_cyclic_triangle_symmetrization_identity():
    # with the cyclic orientation, S2 R' + R S2' equals the edge Gram matrix
    rng = np.random.default_rng(34)
    for _ in range(10):
        fw = _random_triangle(rng)
        r = rigidity_matrix(fw)
        s2 = s2_matrix(fw)
        lhs = r @ s2.T + s2 @ r.T
        rhs = r @ r.T
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())
        ok, _ = is_hurwitz(stability_matrix(fw))
        assert ok


def test_acyclic_triangle_zero_pattern():
    # root 2 owns {2,3} and {1,2}; vertex 3 owns {1,3}; the matrix then has
    # zeros exactly where an edge's head is neither shared nor the other tail
    rng = np.random.default_rng(35)
    rule = AssignmentRule("triangle_acyclic", root=2, third=3)
    for _ in range(10):
        fw = _random_triangle(rng, edges=((2, 3), (3, 1), (1, 2)))
        oriented, report = certify(fw, rule)
        assert oriented.graph.edges == ((2, 3), (3, 1), (2, 1))
        z = stability_matrix(oriented)
        for row, col in ((0, 1), (0, 2), (2, 0)):
            assert z[row, col] == 0.0
        for row, col in ((1, 0), (1, 2), (2, 1)):
            assert z[row, col] != 0.0
        assert report.hurwitz


def _regular_tetra_framework(rng):
    trace, pts = random_trace(4, 3, rng)
    graph = trace_graph(trace)
    return Framework(graph, 3, pts, trace_distances(trace))


def test_tetrahedron_block_structure():
    rng = np.random.default_rng(36)
    for _ in range(10):
        fw = _regular_tetra_framework(rng)
        assert tuple(int(t) + 1 for t in fw.graph.tails) == (1, 1, 2, 1, 2, 3)
        z = stability_matrix(fw)
        # edges into the apex vertex 4 decouple from the base triangle rows
        assert np.array_equal(z[:3, 3:], np.zeros((3, 3)))
        apex = fw.relative_vectors[3:]
        gram = apex @ apex.T
        assert np.abs(z[3:, 3:] + gram).max() < 1e-12 * gram.max()
        assert np.linalg.eigvalsh(-(z[3:, 3:] + z[3:, 3:].T) / 2.0).min() > 0.0
        ok, _ = is_hurwitz(z)
        assert ok


def test_select_estimating_agents_cyclic():
    graph = FormationGraph(3, ((1, 2), (2, 3), (1, 3)))
    oriented = select_estimating_agents(graph, AssignmentRule("triangle_cyclic"))
    assert oriented == ((1, 2), (2, 3), (3, 1))


def test_select_estimating_agents_acyclic_defaults():
    graph = FormationGraph(3, ((1, 2), (2, 3), (1, 3)))
    oriented = select_estimating_agents(graph, AssignmentRule("triangle_acyclic"))
    # root 1 takes both incident edges; lowest non-root vertex takes the rest
    assert oriented == ((1, 2), (2, 3), (1, 3))


def test_select_estimating_agents_tetrahedron():
    graph = FormationGraph(4, ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)))
    oriented = select_estimating_agents(graph, AssignmentRule("tetrahedron"))
    assert tuple(e[0] for e in oriented) == (1, 1, 2, 1, 2, 3)
    # however its edges point, the rule orients the complete graph as a 3-D construction's seed
    flipped = FormationGraph(4, tuple((b, a) for a, b in graph.edges))
    assert select_estimating_agents(flipped, AssignmentRule("tetrahedron")) == \
        trace_graph(ConstructionTrace(3, (1.0,) * 6)).edges


def test_select_estimating_agents_trace_rules():
    trace = ConstructionTrace(2, (1.0,), [2, 2], (1, 2, 2, 3), (1.0,) * 4)
    oriented = select_estimating_agents(trace, AssignmentRule("henneberg_2d"))
    assert oriented == ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    # the rules return the trace's own edges: each seed edge estimated by its
    # lower endpoint, each inserted edge by its anchor
    for dim, kind in ((2, "henneberg_2d"), (3, "growth_3d")):
        for n in (4, 5, 40, 200):
            for seed in range(10):
                trace, _ = random_trace(n, dim, np.random.default_rng(seed))
                owners = [1] if dim == 2 else [1, 1, 2, 1, 2, 3]
                owners.extend(trace.anchors.ravel().tolist())
                oriented = select_estimating_agents(trace, AssignmentRule(kind))
                assert oriented == trace_graph(trace).edges
                assert [t for t, _ in oriented] == owners


def test_select_estimating_agents_errors():
    graph = FormationGraph(3, ((1, 2), (2, 3), (1, 3)))
    square = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    with pytest.raises(ValueError, match="needs a triangle"):
        select_estimating_agents(square, AssignmentRule("triangle_cyclic"))
    with pytest.raises(ValueError, match="4 vertices and all 6 edges"):
        select_estimating_agents(square, AssignmentRule("tetrahedron"))
    with pytest.raises(ValueError, match="needs a ConstructionTrace"):
        select_estimating_agents(graph, AssignmentRule("henneberg_2d"))
    trace = ConstructionTrace(2, (1.0,), [2], (1, 2), (1.0, 1.0))
    with pytest.raises(ValueError, match="needs a FormationGraph"):
        select_estimating_agents(trace, AssignmentRule("triangle_cyclic"))
    with pytest.raises(ValueError, match="3-D trace"):
        select_estimating_agents(trace, AssignmentRule("growth_3d"))
    with pytest.raises(ValueError, match="root must be a triangle vertex"):
        select_estimating_agents(graph, AssignmentRule("triangle_acyclic", root=7))
    with pytest.raises(ValueError, match="other than the root"):
        select_estimating_agents(graph, AssignmentRule("triangle_acyclic", root=1, third=1))


def test_assignment_rule_validation():
    with pytest.raises(ValueError, match="kind must be one of"):
        AssignmentRule("star")
    with pytest.raises(ValueError, match="apply only to triangle_acyclic"):
        AssignmentRule("triangle_cyclic", root=1)


@pytest.mark.parametrize("root, third, name", [(1.0, None, "root"), (True, None, "root"),
                                               (1, "2", "third")])
def test_assignment_rule_takes_only_int_vertex_labels(root, third, name):
    with pytest.raises(ValueError, match=f"^{name} must be an int vertex label$"):
        AssignmentRule("triangle_acyclic", root=root, third=third)


@pytest.mark.parametrize("edges, message", [
    (((1, 2), (2, 3)), "assignment edge (1, 3) is not in the framework"),
    (((1, 2), (1, 3), (2, 3), (1, 4)), "assignment does not cover every framework edge"),
])
def test_certify_needs_a_trace_with_the_frameworks_edges(edges, message):
    # the trace builds the triangle (1, 2), (1, 3), (2, 3)
    trace = ConstructionTrace(2, (1.0,), [2], (1, 2), (1.0, 1.0))
    n = max(map(max, edges))
    fw = Framework(FormationGraph(n, edges), 2, np.eye(n, 2), np.ones(len(edges)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        certify(fw, AssignmentRule("henneberg_2d"), trace=trace)


def test_certify_reorients_and_remaps_distances():
    # scrambled orientations with distinct lengths: the remap must follow pairs
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.6]])
    fw = _framework_on(((3, 2), (2, 1), (1, 3)), pts)
    oriented, report = certify(fw, AssignmentRule("triangle_cyclic"))
    assert oriented.graph.edges == ((2, 3), (1, 2), (3, 1))
    for (t, h), d in zip(oriented.graph.edges, oriented.target_distances):
        assert d == pytest.approx(np.linalg.norm(pts[t - 1] - pts[h - 1]))
    assert report.hurwitz
    assert report.margin < -HURWITZ_TOL


def test_certify_trace_rule_requires_trace():
    rng = np.random.default_rng(37)
    trace, pts = random_trace(5, 2, rng)
    fw = Framework(trace_graph(trace), 2, pts, trace_distances(trace))
    with pytest.raises(ValueError, match="needs the construction trace"):
        certify(fw, AssignmentRule("henneberg_2d"))
    _, report = certify(fw, AssignmentRule("henneberg_2d"), trace=trace)
    assert report.hurwitz


def test_certify_warns_on_degenerate_triangle():
    # collinear triangle: hand-computed matrix is singular, margin is zero
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    graph = FormationGraph(3, ((1, 2), (2, 3), (3, 1)))
    fw = Framework(graph, 2, pts, [1.0, 1.0, 2.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        oriented, report = certify(fw, AssignmentRule("triangle_cyclic"))
    messages = [str(w.message) for w in caught]
    assert any("not infinitesimally rigid" in m for m in messages)
    assert any("not certified" in m for m in messages)
    expected = np.array([
        [-1.0, 0.0, -2.0],
        [1.0, -1.0, 0.0],
        [0.0, -2.0, -4.0],
    ])
    with pytest.warns(RuntimeWarning, match="not infinitesimally rigid"):
        assert np.array_equal(stability_matrix(oriented), expected)
    assert not report.hurwitz
    assert report.margin > -HURWITZ_TOL


def _char_poly_3x3(m):
    """Characteristic polynomial coefficients via cofactor arithmetic."""
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    return -tr, minors, -det


def _cardano(b, c, d):
    """Roots of x^3 + b x^2 + c x + d."""
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    if p == 0.0 and q == 0.0:
        return [-b / 3.0] * 3
    s = cmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    u3 = -q / 2.0 + s
    if u3 == 0.0:
        u3 = -q / 2.0 - s
    u = u3 ** (1.0 / 3.0)
    omega = cmath.exp(2j * cmath.pi / 3.0)
    roots = []
    for k in range(3):
        uk = u * omega ** k
        roots.append(uk - p / (3.0 * uk) - b / 3.0)
    return roots


def _sorted_c(values):
    return sorted(values, key=lambda v: (round(v.real, 6), round(v.imag, 6)))


def test_two_edge_spectrum_matches_quadratic_formula():
    pts = np.array([[0.0, 0.0], [1.1, 0.2], [0.4, 1.3]])
    graph = FormationGraph(3, ((1, 2), (2, 3)))
    d = [np.linalg.norm(pts[t - 1] - pts[h - 1]) for t, h in graph.edges]
    fw = Framework(graph, 2, pts, d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        z = stability_matrix(fw)
    tr = z[0, 0] + z[1, 1]
    det = z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    roots = [(tr + disc) / 2.0, (tr - disc) / 2.0]
    eigs = np.linalg.eigvals(z)
    for got, want in zip(_sorted_c(eigs), _sorted_c(roots)):
        assert abs(got - want) < 1e-8


def test_triangle_spectrum_matches_cardano():
    rng = np.random.default_rng(38)
    for _ in range(10):
        fw = _random_triangle(rng)
        z = stability_matrix(fw)
        roots = _cardano(*_char_poly_3x3(z))
        eigs = np.linalg.eigvals(z)
        scale = max(1.0, np.abs(eigs).max())
        for got, want in zip(_sorted_c(eigs), _sorted_c(roots)):
            assert abs(got - want) < 1e-8 * scale


def test_certify_reports_spectrum_of_its_matrix():
    rng = np.random.default_rng(39)
    fw = _random_triangle(rng)
    oriented, report = certify(fw, AssignmentRule("triangle_cyclic"))
    assert np.allclose(
        sorted(report.spectrum, key=lambda v: (v.real, v.imag)),
        sorted(np.linalg.eigvals(stability_matrix(oriented)), key=lambda v: (v.real, v.imag)),
    )
    assert report.margin == max(v.real for v in report.spectrum)


def test_epuck_margin_closed_form():
    sc = builtin_scenario("epuck2d")
    fw = sc.framework_target()
    ok, margin = is_hurwitz(stability_matrix(fw))
    assert ok
    # square with side 12 and one diagonal: slowest mode (3 - sqrt 5)/2 * 144
    want = -(3.0 - np.sqrt(5.0)) / 2.0 * 144.0
    assert margin == pytest.approx(want, rel=1e-12)
    assert margin == pytest.approx(-55.003105620015134, rel=1e-12)


def test_transformed_coords_vanish_on_the_invariant_set():
    sc = builtin_scenario("epuck2d")
    fw = sc.framework_target()
    basis = sc.basis()
    w0 = exosystem_initial_state(sc.disturbance, basis).w
    e, alpha, theta = transformed_coords(fw, basis, fw.positions, w0, w0)
    assert np.abs(e).max() < 1e-10
    assert np.abs(alpha).max() < 1e-10
    assert np.array_equal(theta, np.zeros_like(w0))


def test_transformed_coords_match_measured_errors():
    import dataclasses

    from rigiform import integrate

    sc = dataclasses.replace(builtin_scenario("epuck2d"), t_end=0.5)
    fw = sc.framework_initial()
    w0 = exosystem_initial_state(sc.disturbance, sc.basis()).w
    e, alpha, _ = transformed_coords(fw, sc.basis(), fw.positions, sc.xi0_array(), w0)
    traj = integrate(sc)
    assert np.array_equal(e, traj.errors[0])
    assert np.array_equal(alpha, traj.alpha[0])


def _mixed_formation(dim, seed):
    """A strongly connected seed (a directed 4-cycle with its diagonals:
    one in 2-D, both in 3-D) grown by four vertex insertions whose edges
    run from the anchors to the new vertex."""
    rng = np.random.default_rng(seed)
    edges = [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)] + ([(2, 4)] if dim == 3 else [])
    triangles = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    for v in range(5, 9):
        if dim == 2:
            anchors = sorted(int(a) + 1 for a in rng.choice(v - 1, size=2, replace=False))
        else:
            anchors = triangles[int(rng.integers(len(triangles)))]
            triangles += [(anchors[0], anchors[1], v), (anchors[0], anchors[2], v),
                          (anchors[1], anchors[2], v)]
        edges += [(a, v) for a in anchors]
    return _framework_on(edges, rng.uniform(-2.0, 2.0, (8, dim)), dim)


_CERTIFICATE_CASES = {
    **{
        name: lambda name=name: builtin_scenario(name).framework_target()
        for name in ("epuck2d", "tetra3d")
    },
    **{
        f"generated-{dim}d-n{n}-seed{seed}": (
            lambda n=n, dim=dim, seed=seed: generate_scenario(n, dim, seed).framework_target()
        )
        for n, dim, seed in ((3, 2, 0), (12, 2, 1), (30, 2, 2), (4, 3, 0), (15, 3, 1), (30, 3, 2))
    },
    "floppy-square": lambda: _framework_on(
        ((1, 2), (2, 3), (3, 4), (4, 1)), [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    ),
    "collinear-triangle": lambda: _framework_on(
        ((1, 2), (2, 3), (3, 1)), [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
    ),
    # the cycle's own block sets the margin in 2-D: negative, then positive
    "mixed-2d": lambda: _mixed_formation(2, 7),
    "mixed-2d-unstable": lambda: _mixed_formation(2, 1),
    "mixed-3d": lambda: _mixed_formation(3, 2),
}
_NOT_CERTIFIED = ("floppy-square", "collinear-triangle", "mixed-2d-unstable")

# one strongly connected component spans the graph: the one block is the
# whole matrix, so the certificate repeats the dense computation bit for bit
_SINGLE_BLOCK = ("epuck2d", "floppy-square", "collinear-triangle")


def test_certificate_counts_a_zero_per_in_edge_past_dim():
    # vertex 4 takes three in-edges in the plane: -Z Z^T is 3x3 of rank 2
    fw = _framework_on(((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)),
                       [[0.0, 0.0], [2.0, 0.0], [1.0, 1.5], [1.2, 0.5]])
    cert = certificate(fw)
    hurwitz, margin = is_hurwitz(stability_matrix(fw))
    assert (cert.rank, cert.infinitesimally_rigid, cert.minimally_rigid) == (5, True, False)
    assert len(cert.spectrum) == fw.graph.edge_count
    assert np.count_nonzero(cert.spectrum == 0.0) == 1 and cert.margin == 0.0
    assert cert.hurwitz is hurwitz is False and abs(margin) < 1e-12
    oracle = block_spectrum(fw)
    oracle = oracle[np.lexsort((oracle.imag, oracle.real))]
    assert np.abs(cert.spectrum - oracle).max() <= 1e-12 * np.abs(oracle).max()


@pytest.mark.parametrize("case", sorted(_CERTIFICATE_CASES))
def test_certificate_agrees_with_its_parts(case):
    fw = _CERTIFICATE_CASES[case]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # certificate keeps the rigidity warning to itself
        cert = certificate(fw)
    rank = numeric_rank(rigidity_matrix(fw))  # dense, as the certificate did before blocks
    needed = rigid_rank_target(fw.graph.n, fw.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        matrix = stability_matrix(fw)
    hurwitz, margin = is_hurwitz(matrix)
    assert cert.rank == rank
    assert cert.rank_needed == needed
    assert cert.infinitesimally_rigid is (rank == needed)
    assert cert.minimally_rigid is (rank == needed == fw.graph.edge_count)
    assert cert.hurwitz is hurwitz
    assert cert.certified is (rank == needed and hurwitz)
    assert cert.certified is (case not in _NOT_CERTIFIED)
    assert not cert.spectrum.flags.writeable
    if case in _SINGLE_BLOCK:
        spectrum = np.linalg.eigvals(matrix)
        spectrum = spectrum[np.lexsort((spectrum.imag, spectrum.real))]
        assert cert.margin == margin
        assert np.array_equal(cert.spectrum, spectrum)
    else:
        # every entry outside the pattern the blocks rely on is exactly zero
        g = fw.graph
        coupled = (g.heads[None, :] == g.tails[:, None]) | (g.heads[None, :] == g.heads[:, None])
        assert not matrix[~coupled].any()
        oracle = block_spectrum(fw)
        oracle = oracle[np.lexsort((oracle.imag, oracle.real))]
        assert np.all(np.abs(cert.spectrum - oracle) <= 1e-12 * np.abs(oracle))
        assert abs(cert.margin - margin) <= 1e-10 * abs(margin)
    record = cert.to_dict()
    assert record["spectrum"] == [[float(v.real), float(v.imag)] for v in cert.spectrum]
    assert {k: v for k, v in record.items() if k != "spectrum"} == {
        "rank": rank,
        "rank_needed": needed,
        "infinitesimally_rigid": cert.infinitesimally_rigid,
        "minimally_rigid": cert.minimally_rigid,
        "hurwitz": hurwitz,
        "margin": cert.margin,
        "certified": cert.certified,
    }
