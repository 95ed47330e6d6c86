"""Control-law behavior: gradient shape control and the estimator variant.

Both laws are probed through the closed-loop kernel at hand-built states
and checked against their stacked matrix form, which is computed here from
S1 and S2 rather than reusing the library's kernel.  A disturbance mu is
set through the generator state's constant channel, w[k] = (mu_k, 0, ...),
which the output vector reads back exactly because b1 = 1.
"""

import numpy as np
import pytest

from oracles import closed_loop_rates, s1_matrix
from rigiform import (
    DisturbanceSpec,
    EdgeDisturbance,
    FormationGraph,
    Framework,
    InternalModelBasis,
    Scenario,
    ScenarioError,
    consistent_errors,
    default_basis,
    exosystem_initial_state,
    random_trace,
    s2_matrix,
    trace_distances,
    trace_graph,
)


def _pair():
    graph = FormationGraph(2, ((1, 2),))
    return Framework(graph, 2, np.array([[0.0, 0.0], [2.0, 0.0]]), [1.0])


def _right_triangle():
    graph = FormationGraph(3, ((1, 2), (2, 3), (3, 1)))
    pts = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    return Framework(graph, 2, pts, [3.0, 5.0, 4.0])


def _random_framework(rng, dim=2):
    n = int(rng.integers(3 if dim == 2 else 4, 8))
    trace, pts = random_trace(n, dim, rng)
    graph = trace_graph(trace)
    return Framework(graph, dim, pts + rng.uniform(-0.3, 0.3, pts.shape),
                     trace_distances(trace))


def _probe(fw, mode="gradient_only", basis=None, kappa=1.0):
    """A scenario on the framework's graph with no disturbance."""
    basis = basis if basis is not None else default_basis(())
    p = basis.p
    quiet = DisturbanceSpec(
        basis.frequencies,
        tuple(EdgeDisturbance(0.0, (0.0,) * p, (0.0,) * p) for _ in range(fw.graph.edge_count)),
    )
    return Scenario(
        name="probe", dim=fw.dim, edges=fw.graph.edges,
        distances=tuple(fw.target_distances),
        initial_positions=tuple(map(tuple, fw.positions)), target_positions=None,
        disturbance=quiet, mode=mode, kappa=kappa, b1=basis.b1, b2=basis.b2, xi0=None,
        dt=1e-3, t_end=1.0, output_every=1,
    )


def _rates(fw, mode="gradient_only", basis=None, kappa=1.0, mu=None, xi=None, w=None):
    """(x_dot, xi_dot, w_dot) of the closed loop at the framework's positions."""
    sc = _probe(fw, mode, basis, kappa)
    shape = (fw.graph.edge_count, sc.basis().state_size)
    if w is None:
        w = np.zeros(shape)
        if mu is not None:
            w[:, 0] = mu
    if xi is None:
        xi = np.zeros(shape)
    return closed_loop_rates(fw.positions, xi, w, sc)


def test_consistent_errors_at_target_are_zero():
    fw = _right_triangle()
    assert np.array_equal(consistent_errors(fw), np.zeros(3))


def test_single_edge_error_literal():
    # separation 2, target 1: e = 4 - 1 = 3
    fw = _pair()
    assert np.array_equal(consistent_errors(fw), np.array([3.0]))


def test_disturbance_offsets_only_the_tail():
    # e = 3 at both ends; the tail acts on 3 + 19, the head on 3
    fw = _pair()
    x_dot, _, _ = _rates(fw, mu=[19.0])
    assert np.array_equal(x_dot, np.array([[44.0, 0.0], [-6.0, 0.0]]))


def test_two_agent_gradient_literal():
    # too far apart: both agents move toward each other along the edge
    fw = _pair()
    x_dot, _, _ = _rates(fw)
    assert np.array_equal(x_dot, np.array([[6.0, 0.0], [-6.0, 0.0]]))


def test_gradient_is_zero_at_equilibrium():
    fw = _right_triangle()
    x_dot, _, _ = _rates(fw)
    assert np.array_equal(x_dot, np.zeros((3, 2)))


def test_gradient_matches_stacked_form():
    rng = np.random.default_rng(21)
    for _ in range(5):
        fw = _random_framework(rng)
        mu = rng.uniform(-3.0, 3.0, fw.graph.edge_count)
        x_dot, xi_dot, _ = _rates(fw, mu=mu)
        e = consistent_errors(fw)
        stacked = -s1_matrix(fw).T @ (e + mu) - s2_matrix(fw).T @ e
        assert np.abs(x_dot.ravel() - stacked).max() < 1e-12 * max(1.0, np.abs(stacked).max())
        assert np.array_equal(xi_dot, np.zeros_like(xi_dot))


def test_estimator_control_matches_stacked_form():
    rng = np.random.default_rng(22)
    basis = default_basis((1.0, 2.0))
    lam = basis.dynamics_matrix
    for dim in (2, 3):
        for _ in range(3):
            fw = _random_framework(rng, dim)
            E = fw.graph.edge_count
            mu = rng.uniform(-3.0, 3.0, E)
            xi = rng.standard_normal((E, basis.state_size))
            x_dot, xi_dot, w_dot = _rates(fw, "estimator", basis, kappa=2.5, mu=mu, xi=xi)
            e = consistent_errors(fw)
            residual = e + mu - xi @ basis.vector
            stacked = -s1_matrix(fw).T @ residual - s2_matrix(fw).T @ e
            assert np.abs(x_dot.ravel() - stacked).max() < 1e-12 * max(1.0, np.abs(stacked).max())
            for k in range(E):
                want = lam @ xi[k] + 2.5 * residual[k] * basis.vector
                assert np.abs(xi_dot[k] - want).max() < 1e-14 * max(1.0, np.abs(want).max())
            # mu sits in the constant channel, which the generator leaves alone
            assert np.array_equal(w_dot, np.zeros_like(w_dot))


def test_offset_only_estimator_is_scalar_integrator():
    # tail reads e + mu = 3 + 4, the unit holds 2: xi_dot = 7 - 2
    fw = _pair()
    x_dot, xi_dot, _ = _rates(fw, "estimator", mu=[4.0], xi=np.array([[2.0]]))
    assert np.array_equal(xi_dot, np.array([[5.0]]))
    assert np.array_equal(x_dot, np.array([[10.0, 0.0], [-6.0, 0.0]]))


def test_exact_equilibrium_on_the_invariant_set():
    # at target with estimator state matching the exosystem: x must stand
    # still and the estimator must move exactly like the generator
    fw = _right_triangle()
    spec = DisturbanceSpec(
        (2.0,),
        (
            EdgeDisturbance(0.5, (0.2, ), (0.3,)),
            EdgeDisturbance(-0.4, (0.1,), (-1.0,)),
            EdgeDisturbance(0.8, (0.15,), (2.0,)),
        ),
    )
    basis = InternalModelBasis(1.0, (1.0, 0.0), (2.0,))
    w = exosystem_initial_state(spec, basis).w
    x_dot, xi_dot, w_dot = _rates(fw, "estimator", basis, xi=w, w=w)
    assert np.array_equal(x_dot, np.zeros((3, 2)))
    assert np.array_equal(xi_dot, w_dot)


def test_control_is_local():
    # agent 2 never touches agent 4, so moving agent 4 cannot change u_2
    graph = FormationGraph(4, ((1, 2), (2, 3), (3, 4), (4, 1)))
    pts = np.array([[0.1, 0.0], [1.2, 0.1], [1.0, 1.3], [-0.2, 0.9]])
    mu = np.array([0.3, -0.2, 0.5, 0.1])
    before, _, _ = _rates(Framework(graph, 2, pts, np.ones(4)), mu=mu)
    moved = pts.copy()
    moved[3] += (0.7, -0.4)
    after, _, _ = _rates(Framework(graph, 2, moved, np.ones(4)), mu=mu)
    assert np.array_equal(before[1], after[1])
    assert not np.array_equal(before[3], after[3])


def test_mu_hat_is_linear_in_the_estimator_state():
    # mu_hat = xi b is linear in xi, so both rates are affine in xi
    basis = default_basis((1.0, 3.0))
    rng = np.random.default_rng(23)
    fw = _random_framework(rng)
    xi1 = rng.standard_normal((fw.graph.edge_count, basis.state_size))
    xi2 = rng.standard_normal((fw.graph.edge_count, basis.state_size))
    combo = _rates(fw, "estimator", basis, xi=2.5 * xi1 - 1.5 * xi2)
    parts = [
        2.5 * a - 1.5 * b
        for a, b in zip(_rates(fw, "estimator", basis, xi=xi1), _rates(fw, "estimator", basis, xi=xi2))
    ]
    for got, want in zip(combo, parts):
        assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())


def test_controller_config_validation():
    # the scenario validates its controller settings: mode, kappa, and an
    # observable internal model in estimator mode
    fw = _right_triangle()
    basis = default_basis((1.0,))
    with pytest.raises(ScenarioError, match="mode"):
        _probe(fw, "pid", basis)
    with pytest.raises(ScenarioError, match="positive"):
        _probe(fw, "estimator", basis, kappa=0.0)
    with pytest.raises(ScenarioError, match="positive"):
        _probe(fw, "gradient_only", basis, kappa=-2.0)
    blind = InternalModelBasis(0.0, (1.0, 0.0), (1.0,))
    with pytest.raises(ScenarioError, match="observab"):
        _probe(fw, "estimator", blind)
    # the gradient law never inverts the internal model, so it tolerates this
    _probe(fw, "gradient_only", blind)
