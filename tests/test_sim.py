"""Closed-loop integration, trajectory bookkeeping, and the run verdict."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigiform import (
    DisturbanceSpec,
    EdgeDisturbance,
    Scenario,
    ScenarioError,
    SimState,
    Trajectory,
    builtin_scenario,
    closed_loop_derivative,
    exosystem_initial_state,
    initial_state,
    integrate,
    mu_closed_form,
    rigidity_matrix,
    run_verdict,
    s1_matrix,
    write_csv,
)
from rigiform.sim import MAX_RECORDED_VALUES, MAX_STEPS

_TRI_TARGET = ((0.0, 0.0), (2.0, 0.0), (1.0, 1.7))
_TRI_EDGES = ((1, 2), (2, 3), (1, 3))


def _tri_distances():
    pts = np.asarray(_TRI_TARGET)
    return tuple(
        float(np.linalg.norm(pts[t - 1] - pts[h - 1])) for t, h in _TRI_EDGES
    )


def _zero_disturbance(edge_count):
    return DisturbanceSpec(
        (1.0,), tuple(EdgeDisturbance(0.0, (0.0,), (0.0,)) for _ in range(edge_count))
    )


def _triangle_scenario(**overrides):
    fields = dict(
        name="tri",
        dim=2,
        edges=_TRI_EDGES,
        distances=_tri_distances(),
        initial_positions=((0.1, -0.2), (2.3, 0.3), (1.0, 1.9)),
        target_positions=_TRI_TARGET,
        disturbance=DisturbanceSpec(
            (1.0,),
            (
                EdgeDisturbance(0.5, (0.2,), (0.3,)),
                EdgeDisturbance(-0.4, (0.1,), (-1.0,)),
                EdgeDisturbance(0.8, (0.15,), (2.0,)),
            ),
        ),
        mode="estimator",
        kappa=1.0,
        b1=1.0,
        b2=(1.0, 0.0),
        xi0=None,
        dt=1e-3,
        t_end=5.0,
        output_every=10,
    )
    fields.update(overrides)
    return Scenario(**fields)


def _gradient_clean(**overrides):
    base = dict(
        disturbance=_zero_disturbance(3),
        mode="gradient_only",
    )
    base.update(overrides)
    return _triangle_scenario(**base)


def test_gradient_flow_reaches_the_shape():
    traj = integrate(_gradient_clean(t_end=50.0, output_every=100))
    assert not traj.diverged
    assert np.abs(traj.errors[-1]).max() < 1e-8
    assert traj.speeds[-1].max() < 1e-8


def test_step_halving_agrees():
    coarse = integrate(_triangle_scenario())
    fine = integrate(_triangle_scenario(dt=5e-4, output_every=20))
    assert np.abs(coarse.positions[-1] - fine.positions[-1]).max() < 1e-6


def test_integration_is_deterministic():
    a = integrate(_triangle_scenario())
    b = integrate(_triangle_scenario())
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.mu_hat, b.mu_hat)


def test_dynamics_are_translation_equivariant():
    shift = np.array([10.0, -7.0])
    base = _triangle_scenario()
    moved = _triangle_scenario(
        initial_positions=tuple(tuple(np.add(p, shift)) for p in base.initial_positions),
        target_positions=None,
    )
    a = integrate(dataclasses.replace(base, target_positions=None))
    b = integrate(moved)
    assert np.abs(b.positions - a.positions - shift).max() < 1e-9
    assert np.abs(b.errors - a.errors).max() < 1e-9


def test_gradient_potential_never_increases():
    traj = integrate(_gradient_clean(t_end=10.0))
    phi = 0.25 * (traj.errors ** 2).sum(axis=1)
    assert (np.diff(phi) <= 1e-12).all()


def test_potential_slope_identity():
    # d(phi)/dt along the flow equals -|R' e|^2 when mu is absent
    sc = _gradient_clean()
    rng = np.random.default_rng(41)
    state = initial_state(sc)
    for _ in range(5):
        x = np.asarray(state.x) + rng.uniform(-0.5, 0.5, (3, 2))
        probe = dataclasses.replace(sc)  # same scenario, fresh state below
        st = type(state)(t=0.0, x=x, xi=np.asarray(state.xi), w=np.asarray(state.w))
        x_dot, _, _ = closed_loop_derivative(st, probe)
        fw = sc.framework_target().at_positions(x)
        from rigiform import consistent_errors

        e = consistent_errors(fw)
        r = rigidity_matrix(fw)
        lhs = e @ (r @ x_dot.ravel())
        rhs = -np.linalg.norm(r.T @ e) ** 2
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def _chain_rule_residual(traj, k, stride):
    dt = (traj.times[1] - traj.times[0]) * stride
    e_dot = (traj.errors[k + stride] - traj.errors[k - stride]) / (2.0 * dt)
    x_dot = (traj.positions[k + stride] - traj.positions[k - stride]) / (2.0 * dt)
    fw = _triangle_scenario().framework_initial().at_positions(traj.positions[k])
    return np.abs(e_dot - 2.0 * rigidity_matrix(fw) @ x_dot.ravel()).max()


def test_error_rate_matches_chain_rule():
    # central differences of e and x along a recorded run: de/dt = 2 R dx/dt
    traj = integrate(_triangle_scenario(t_end=0.5, output_every=1))
    # past the sharp initial transient the FD residual sits at the O(dt^2) floor
    worst = max(
        _chain_rule_residual(traj, k, 1) for k in range(200, traj.sample_count - 1, 25)
    )
    assert worst < 1e-5
    # and it scales like a second-order term: doubling the stride ~quadruples it
    r1 = _chain_rule_residual(traj, 200, 1)
    r2 = _chain_rule_residual(traj, 200, 2)
    assert 2.5 < r2 / r1 < 6.0


def test_invariant_set_is_stationary():
    sc = _triangle_scenario(initial_positions=_TRI_TARGET, t_end=5.0)
    w0 = exosystem_initial_state(sc.disturbance, sc.basis()).w
    sc = dataclasses.replace(sc, xi0=tuple(tuple(row) for row in w0))
    traj = integrate(sc)
    assert traj.speeds.max() < 1e-10
    assert np.abs(traj.errors).max() < 1e-9


def test_divergence_guard_cuts_the_run_short():
    sc = _triangle_scenario(
        initial_positions=((0.0, 0.0), (2000.0, 0.0), (1000.0, 1700.0)),
        distances=(1.0, 1.0, 1.0),
        target_positions=None,
        mode="gradient_only",
    )
    traj = integrate(sc)
    assert traj.diverged
    assert traj.sample_count < 20
    assert (np.diff(traj.times) > 0).all() or traj.sample_count == 1
    assert traj.times[-1] < traj.divergence_step * sc.dt
    with pytest.raises(ValueError, match="window"):
        run_verdict(traj)


def test_divergence_step_is_the_step_the_guard_tripped():
    # dt = 5e-3 puts epuck2d's fastest mode outside RK4's stability region;
    # the guard trips long before the first recorded sample after t = 0
    sc = dataclasses.replace(builtin_scenario("epuck2d"), dt=5e-3)
    traj = integrate(sc)
    assert traj.diverged
    assert traj.divergence_step == 8
    assert traj.sample_count == 1
    # the last state that passed the guard is step 7's, not the t = 0 sample
    last_good = integrate(dataclasses.replace(sc, t_end=7 * sc.dt, output_every=7))
    assert not last_good.diverged
    assert np.array_equal(traj.final_errors, last_good.errors[-1])


@pytest.mark.parametrize(
    "t_end, every, reason",
    [
        (0.5, 1000, "multiple of output_every"),  # would record only t = 0
        (0.0105, 1, "whole number"),  # 10.5 steps would move t_end
    ],
)
def test_grid_must_end_on_a_recorded_sample_at_t_end(t_end, every, reason):
    with pytest.raises(ScenarioError, match=reason):
        integrate(_triangle_scenario(t_end=t_end, output_every=every))


def test_caps_reject_a_run_before_it_allocates():
    with pytest.raises(ScenarioError, match="steps, over the cap"):
        integrate(_triangle_scenario(t_end=(MAX_STEPS + 10) * 1e-3, output_every=10))
    with pytest.raises(ScenarioError, match="inf steps, over the cap"):
        integrate(_triangle_scenario(dt=1e-300, t_end=1e300))
    assert (MAX_STEPS + 1) * 28 > MAX_RECORDED_VALUES  # 28 values per triangle sample
    with pytest.raises(ScenarioError, match="values, over the cap"):
        integrate(_triangle_scenario(t_end=MAX_STEPS * 1e-3, output_every=1))


@settings(max_examples=40, deadline=None)
@given(
    dt=st.sampled_from([1e-3, 4e-3, 0.05, 0.3]),
    steps=st.integers(2, 300),
    every=st.integers(1, 40),
    fraction=st.sampled_from([0.0, 1e-12, 1e-6, 0.37]),
    scale=st.sampled_from([1.0, 1e3]),
    mode=st.sampled_from(["gradient_only", "estimator"]),
)
def test_accepted_runs_end_at_t_end_or_the_divergence_step(dt, steps, every, fraction, scale, mode):
    sc = _triangle_scenario(
        dt=dt, t_end=(steps + fraction) * dt, output_every=every, mode=mode,
        initial_positions=((0.1 * scale, -0.2), (2.3 * scale, 0.3), (1.0, 1.9 * scale)),
    )
    try:
        traj = integrate(sc)
    except ScenarioError:
        assert fraction >= 1e-6 or steps % every
        return
    assert fraction < 1e-6 and steps % every == 0
    if traj.diverged:
        assert 1 <= traj.divergence_step <= steps
        assert traj.sample_count == (traj.divergence_step - 1) // every + 1
    else:
        assert traj.sample_count == steps // every + 1
        assert abs(traj.times[-1] - sc.t_end) <= 1e-9 * sc.t_end


def test_recorded_mu_tracks_closed_form():
    traj = integrate(_triangle_scenario())
    sc = _triangle_scenario()
    want = mu_closed_form(sc.disturbance, traj.times)
    assert np.abs(traj.mu - want).max() < 1e-8


def test_alpha_column_is_consistent():
    traj = integrate(_triangle_scenario())
    assert np.array_equal(traj.alpha, traj.errors + traj.mu - traj.mu_hat)
    state = initial_state(_triangle_scenario())
    assert np.array_equal(traj.estimator_gap[0], np.asarray(state.w) - np.asarray(state.xi))


def _law_by_edge(sc, x, xi, w):
    """The control law one edge at a time: the head moves along +e z, the
    tail along -r z, xi' = Lambda xi + kappa r b (estimator mode only) and
    w' = Lambda w."""
    basis = sc.basis()
    b, lam = basis.vector, basis.dynamics_matrix
    estimator = sc.mode == "estimator"
    x_dot = np.zeros_like(x)
    xi_dot = np.zeros_like(xi)
    for k, (tail, head) in enumerate(sc.edges):
        z = x[tail - 1] - x[head - 1]
        e = z @ z - sc.distances[k] ** 2
        r = e + b @ w[k]
        if estimator:
            r -= b @ xi[k]
            xi_dot[k] = lam @ xi[k] + sc.kappa * r * b
        x_dot[head - 1] += e * z
        x_dot[tail - 1] -= r * z
    return x_dot, xi_dot, np.array([lam @ row for row in w])


@pytest.mark.parametrize("name", ["epuck2d", "tetra3d"])
@pytest.mark.parametrize("mode", ["gradient_only", "estimator"])
def test_kernel_matches_a_per_edge_loop(name, mode):
    base = builtin_scenario(name)
    b2 = tuple(0.4 + 0.3 * i if i % 2 else -0.7 + 0.2 * i for i in range(len(base.b2)))
    sc = dataclasses.replace(base, mode=mode, kappa=0.37, b1=1.3, b2=b2)
    rng = np.random.default_rng(7)
    n, edges, q = len(sc.initial_positions), len(sc.edges), sc.basis().state_size
    for _ in range(5):
        x = np.asarray(sc.initial_positions) + rng.normal(scale=0.5, size=(n, sc.dim))
        xi, w = rng.normal(size=(2, edges, q))
        got = closed_loop_derivative(SimState(0.0, x, xi, w), sc)
        for a, want in zip(got, _law_by_edge(sc, x, xi, w)):
            assert np.abs(a - want).max() <= 1e-12 * np.abs(want).max()


def test_sampling_stride_leaves_the_trajectory_bitwise_unchanged():
    # a sampled step's evaluation also serves as the next step's k1, so
    # sampling must not perturb a single bit of the state
    sc = _triangle_scenario(kappa=0.37, t_end=1.2, output_every=1)
    dense = integrate(sc)
    sparse = integrate(dataclasses.replace(sc, output_every=40))
    assert sparse.sample_count == 31
    for name in ("positions", "errors", "speeds", "mu", "mu_hat", "alpha", "estimator_gap"):
        assert np.array_equal(getattr(dense, name)[::40], getattr(sparse, name))
    assert np.array_equal(dense.final_errors, sparse.final_errors)


def test_closed_loop_derivative_rejects_bad_state():
    sc = _triangle_scenario()
    state = initial_state(sc)
    bad_x = np.asarray(state.x).copy()
    bad_x[0, 0] = math.nan
    broken = type(state)(t=0.0, x=bad_x, xi=np.asarray(state.xi), w=np.asarray(state.w))
    with pytest.raises(ValueError, match="finite"):
        closed_loop_derivative(broken, sc)
    x, xi, w = np.asarray(state.x), np.asarray(state.xi), np.asarray(state.w)
    with pytest.raises(ValueError, match="x must have shape"):
        closed_loop_derivative(SimState(0.0, x[:2], xi, w), sc)
    with pytest.raises(ValueError, match="xi and w must have shape"):
        closed_loop_derivative(SimState(0.0, x, xi[:2], w[:2]), sc)
    with pytest.raises(ValueError, match=r"\(edges, 2p\+1\)"):
        SimState(0.0, x, xi, w[:2])


def test_verdict_on_a_converged_run():
    sc = _gradient_clean(initial_positions=_TRI_TARGET, t_end=10.0)
    verdict = run_verdict(integrate(sc))
    assert verdict.converged
    assert not verdict.diverged
    assert not verdict.orbit_detected
    assert verdict.final_error < 1e-12
    # started at the shape: no decade of decay to fit
    assert verdict.rate is None and verdict.rate_r_squared is None


def test_verdict_detects_steady_orbits():
    times = np.arange(300) * 0.1
    errors = np.full((300, 3), 0.5)
    speeds = np.full((300, 2), 1.0)
    zeros_e = np.zeros((300, 3))
    traj = Trajectory(
        times=times,
        positions=np.zeros((300, 2, 2)),
        errors=errors,
        speeds=speeds,
        mu=zeros_e,
        mu_hat=zeros_e,
        alpha=errors.copy(),
        estimator_gap=np.zeros((300, 3, 3)),
        diverged=False,
    )
    verdict = run_verdict(traj)
    assert verdict.orbit_detected
    assert verdict.steady_speed == pytest.approx(1.0)
    assert not verdict.converged


def test_verdict_window_must_hold_enough_samples():
    times = np.arange(100) * 0.1
    zeros_e = np.zeros((100, 3))
    traj = Trajectory(
        times=times,
        positions=np.zeros((100, 2, 2)),
        errors=zeros_e,
        speeds=np.zeros((100, 2)),
        mu=zeros_e,
        mu_hat=zeros_e,
        alpha=zeros_e,
        estimator_gap=np.zeros((100, 3, 3)),
        diverged=False,
    )
    with pytest.raises(ValueError, match="window"):
        run_verdict(traj)


def test_diverged_verdict_reports_the_last_state_that_passed_the_guard():
    times = np.arange(300) * 0.1
    zeros_e = np.zeros((300, 3))
    traj = Trajectory(
        times=times,
        positions=np.zeros((300, 2, 2)),
        errors=zeros_e,
        speeds=np.zeros((300, 2)),
        mu=zeros_e,
        mu_hat=zeros_e,
        alpha=zeros_e,
        estimator_gap=np.zeros((300, 3, 3)),
        diverged=True,
        divergence_step=30_000,
        final_errors=np.array([3.0, 0.0, 4.0]),
    )
    assert run_verdict(traj).final_error == 5.0
    assert np.array_equal(dataclasses.replace(traj, final_errors=None).final_errors, zeros_e[-1])
    with pytest.raises(ValueError, match="one error per edge"):
        dataclasses.replace(traj, final_errors=np.zeros(2))


def test_trajectory_validation():
    times = np.array([0.0, 0.1, 0.3])  # stride changes
    zeros_e = np.zeros((3, 1))
    with pytest.raises(ValueError, match="uniform"):
        Trajectory(
            times=times,
            positions=np.zeros((3, 2, 2)),
            errors=zeros_e,
            speeds=np.zeros((3, 2)),
            mu=zeros_e,
            mu_hat=zeros_e,
            alpha=zeros_e,
            estimator_gap=np.zeros((3, 1, 3)),
            diverged=False,
        )


def test_csv_header_and_round_trip(tmp_path):
    traj = integrate(_triangle_scenario(t_end=1.0))
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "t,x_1_1,x_1_2,x_2_1,x_2_2,x_3_1,x_3_2,"
        "e_1,e_2,e_3,speed_1,speed_2,speed_3,"
        "mu_1,mu_2,mu_3,muhat_1,muhat_2,muhat_3,"
        "alpha_1,alpha_2,alpha_3"
    )
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (traj.sample_count, 22)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:7], traj.positions.reshape(traj.sample_count, -1))
    assert np.array_equal(data[:, 19:22], traj.alpha)


def test_integrate_warns_on_floppy_target():
    sc = Scenario(
        name="path",
        dim=2,
        edges=((1, 2), (2, 3)),
        distances=(1.0, 1.0),
        initial_positions=((0.0, 0.1), (1.0, -0.1), (2.0, 0.2)),
        target_positions=((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),
        disturbance=_zero_disturbance(2),
        mode="gradient_only",
        kappa=1.0,
        b1=1.0,
        b2=(1.0, 0.0),
        xi0=None,
        dt=1e-3,
        t_end=0.1,
        output_every=10,
    )
    with pytest.warns(RuntimeWarning, match="not infinitesimally rigid"):
        integrate(sc)


def test_builtin_epuck_smoke():
    sc = dataclasses.replace(builtin_scenario("epuck2d"), t_end=1.0)
    traj = integrate(sc)
    assert traj.positions.shape[1:] == (4, 2)
    assert not traj.diverged
    assert s1_matrix(sc.framework_initial()).shape == (5, 8)
