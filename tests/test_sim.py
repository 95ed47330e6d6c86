"""Closed-loop integration, trajectory bookkeeping, and the run verdict."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    closed_loop_rates,
    closed_loop_reference,
    propagate_reference,
    rk4_reference,
    s1_matrix,
)
from rigiform import (
    DisturbanceSpec,
    EdgeDisturbance,
    Scenario,
    ScenarioError,
    Trajectory,
    builtin_scenario,
    consistent_errors,
    default_basis,
    exosystem_initial_state,
    generate_scenario,
    integrate,
    mu_closed_form,
    propagate_exosystem,
    rigidity_matrix,
    run_verdict,
    write_csv,
)
from rigiform import sim
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


def _initial_state(sc):
    """(x, xi, w) at t = 0: what integrate starts from."""
    w0 = exosystem_initial_state(sc.disturbance, sc.basis()).w
    return sc.framework_initial().positions, sc.xi0_array(), w0


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
    x0, xi, w = _initial_state(sc)
    for _ in range(5):
        x = x0 + rng.uniform(-0.5, 0.5, (3, 2))
        x_dot, _, _ = closed_loop_rates(x, xi, w, sc)
        fw = sc.framework_target().at_positions(x)
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


@pytest.mark.parametrize("every", [2.5, "4", True])
def test_scenario_rejects_an_output_every_that_is_not_an_integer(every):
    # int() used to truncate 2.5 to a sample every 2 steps and read "4" and True
    sc = builtin_scenario("epuck2d")
    with pytest.raises(ScenarioError, match="^malformed scenario field: output_every must be an "
                                            "integer$"):
        dataclasses.replace(sc, output_every=every, t_end=0.01)
    assert dataclasses.replace(sc, output_every=np.int64(5), t_end=0.01).output_every == 5


@pytest.mark.parametrize("every", [2.5, "3", True])
def test_propagate_exosystem_rejects_an_output_every_that_is_not_an_integer(every):
    spec = _zero_disturbance(2)
    basis = default_basis(spec.frequencies)
    with pytest.raises(ValueError, match="^output_every must be an integer$"):
        propagate_exosystem(spec, basis, t_end=0.012, dt=1e-3, output_every=every)
    times, _ = propagate_exosystem(spec, basis, t_end=0.012, dt=1e-3, output_every=np.int32(3))
    assert times.size == 5


@pytest.mark.parametrize("t_end, reason", [
    (math.nan, "t_end must be finite"),  # both used to read "greater than dt", true of inf
    (math.inf, "t_end must be finite"),
    (1e-3, "t_end must be greater than dt"),
    (-1.0, "t_end must be greater than dt"),
])
def test_scenario_names_why_t_end_is_rejected(t_end, reason):
    with pytest.raises(ScenarioError, match=f"^{reason}$"):
        _triangle_scenario(t_end=t_end)


def test_caps_reject_a_run_before_it_allocates():
    with pytest.raises(ScenarioError, match="steps, over the cap"):
        integrate(_triangle_scenario(t_end=(MAX_STEPS + 10) * 1e-3, output_every=10))
    with pytest.raises(ScenarioError, match="inf steps, over the cap"):
        integrate(_triangle_scenario(dt=1e-300, t_end=1e300))
    assert (MAX_STEPS + 1) * 19 > MAX_RECORDED_VALUES  # 19 values per triangle sample
    with pytest.raises(ScenarioError, match="values, over the cap"):
        integrate(_triangle_scenario(t_end=MAX_STEPS * 1e-3, output_every=1))


def test_recorded_value_cap_counts_what_a_run_keeps(monkeypatch):
    # the cap bounds a run's memory only while it counts every value a run
    # stores: its traced peak is those values, float64 each, plus little
    step_count, counted = sim._step_count, []

    def counting(dt, t_end, every, values_per_sample):
        steps = step_count(dt, t_end, every, values_per_sample)
        counted.append((steps // every + 1) * values_per_sample)
        return steps

    monkeypatch.setattr(sim, "_step_count", counting)
    sc = dataclasses.replace(generate_scenario(50, 2, 0), t_end=1.0, output_every=1)
    tracemalloc.start()
    try:
        traj = integrate(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.sample_count == 1001 and len(counted) == 1
    assert 8 * counted[0] <= peak <= 8 * counted[0] + 0.25 * 2**20


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
        got = closed_loop_rates(x, xi, w, sc)
        for a, want in zip(got, _law_by_edge(sc, x, xi, w)):
            assert np.abs(a - want).max() <= 1e-12 * np.abs(want).max()


def _with_sinusoids(sc, frequencies):
    """sc with a random disturbance at the given frequencies, so its banks
    hold q = 2p + 1 states, and an output vector with a zero in each
    frequency's (sine, cosine) pair."""
    rng = np.random.default_rng(len(frequencies))
    p = len(frequencies)
    entries = tuple(EdgeDisturbance(rng.normal(), tuple(rng.normal(size=p)),
                                    tuple(rng.uniform(-3.0, 3.0, p))) for _ in sc.edges)
    b2 = tuple(rng.uniform(0.5, 1.5, p)) + (0.0,) * p
    return dataclasses.replace(sc, disturbance=DisturbanceSpec(frequencies, entries), b2=b2)


KERNEL_CASES = {
    "epuck2d": lambda: builtin_scenario("epuck2d"),
    "tetra3d": lambda: builtin_scenario("tetra3d"),
    "generated 2-D n=3": lambda: generate_scenario(3, 2, 6),
    "generated 2-D n=30": lambda: generate_scenario(30, 2, 1),
    "generated 3-D n=4": lambda: generate_scenario(4, 3, 7),
    "generated 3-D n=6": lambda: generate_scenario(6, 3, 8),
    "generated 3-D n=40": lambda: generate_scenario(40, 3, 2),
    "p=0": lambda: _with_sinusoids(generate_scenario(12, 3, 3), ()),
    "p=1": lambda: _with_sinusoids(generate_scenario(12, 2, 4), (1.3,)),
    "p=2": lambda: _with_sinusoids(generate_scenario(12, 3, 5), (0.7, 2.1)),
    "p=3": lambda: _with_sinusoids(generate_scenario(7, 2, 8), (0.4, 1.1, 2.9)),
}
# 2|E| (the rows of the stacked banks) takes every even residue mod 8, so
# the bank product's remainder rows are pinned against the reference's
# stacked matmul


@pytest.mark.parametrize("mode", ["gradient_only", "estimator"])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_matches_the_edge_major_reference_bit_for_bit(case, mode):
    # compared as uint64 so that signed zeros count; every other state zeroes
    # a third of its entries, half of them as -0.0
    sc = dataclasses.replace(KERNEL_CASES[case](), mode=mode, kappa=0.37)
    loop = sim._ClosedLoop(sc)
    rng = np.random.default_rng(11)
    for i in range(6):
        y = rng.normal(size=loop.nx + 2 * loop.ne)
        if i % 2:
            zero = rng.random(y.size) < 1 / 3
            y[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
        got, want = loop.evaluate(y), closed_loop_reference(sc, y)
        assert [a.shape for a in got] == [a.shape for a in want]
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


_RUN_FIELDS = ("times", "positions", "errors", "speeds", "mu", "mu_hat", "final_errors")


def _assert_same_run(got, want):
    # compared as uint64, so signed zeros and nan payloads count
    for name in _RUN_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64)), name
    assert got.divergence_step == want.divergence_step
    assert got.divergence_reason == want.divergence_reason


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("mode", ["gradient_only", "estimator"])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_integrate_matches_the_textbook_rk4_loop_bit_for_bit(case, mode, every):
    # the loop reuses its buffers from stage to stage; the oracle's stages
    # each evaluate the edge-major kernel on a fresh array
    sc = KERNEL_CASES[case]()
    sc = dataclasses.replace(sc, mode=mode, kappa=0.37, t_end=28 * sc.dt, output_every=every)
    _assert_same_run(integrate(sc), rk4_reference(sc))


@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("case", ["p=0", "p=1", "p=2"])
def test_propagate_exosystem_matches_the_textbook_rk4_loop_bit_for_bit(case, every):
    # the generator bank steps through the closed loop's buffered RK4 loop
    sc = KERNEL_CASES[case]()
    args = sc.disturbance, sc.basis(), 3.5, 0.05, every
    got, want = propagate_exosystem(*args), propagate_reference(*args)
    assert got[1].shape == (70 // every + 1, sc.disturbance.edge_count, sc.basis().state_size)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("dt, step", [(5e-3, 8), (2e-2, 2)])
def test_a_diverged_run_matches_the_textbook_rk4_loop(dt, step):
    # when the guard trips, the loop's buffers hold the rejected step's
    # last stage, so aliasing would show in final_errors
    sc = dataclasses.replace(builtin_scenario("epuck2d"), dt=dt)
    got, want = integrate(sc), rk4_reference(sc)
    assert got.divergence_step == step
    _assert_same_run(got, want)


def test_an_evaluation_keeps_its_arrays_through_later_evaluations():
    sc = dataclasses.replace(KERNEL_CASES["p=2"](), mode="estimator", kappa=0.37)
    loop = sim._ClosedLoop(sc)
    rng = np.random.default_rng(3)
    first = loop.evaluate(rng.normal(size=loop.nx + 2 * loop.ne))
    kept = [a.copy() for a in first]
    loop.evaluate(rng.normal(size=loop.nx + 2 * loop.ne))
    for a, b in zip(first, kept):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_sampling_stride_leaves_the_trajectory_bitwise_unchanged():
    # a sampled step's evaluation also serves as the next step's k1, so
    # sampling must not perturb a single bit of the state
    sc = _triangle_scenario(kappa=0.37, t_end=1.2, output_every=1)
    dense = integrate(sc)
    sparse = integrate(dataclasses.replace(sc, output_every=40))
    assert sparse.sample_count == 31
    for name in ("positions", "errors", "speeds", "mu", "mu_hat", "alpha"):
        assert np.array_equal(getattr(dense, name)[::40], getattr(sparse, name))
    assert np.array_equal(dense.final_errors, sparse.final_errors)


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
    )
    verdict = run_verdict(traj)
    assert verdict.orbit_detected
    assert verdict.steady_speed == pytest.approx(1.0)
    assert not verdict.converged


def _verdict_of_norms(norms):
    """run_verdict of a 300-sample run whose error norm follows `norms`
    (one nonzero edge), every agent at rest."""
    norms = np.concatenate([norms, np.full(300 - len(norms), norms[-1])])
    errors = np.zeros((300, 3))
    errors[:, 0] = norms
    return run_verdict(Trajectory(
        times=np.arange(300) * 0.1,
        positions=np.zeros((300, 2, 2)),
        errors=errors,
        speeds=np.zeros((300, 2)),
        mu=np.zeros((300, 3)),
        mu_hat=np.zeros((300, 3)),
    ))


@pytest.mark.parametrize("norms, reason", [
    ([0.0], "error norm starts non-finite or at most 1e-8"),
    ([math.nan], "error norm starts non-finite or at most 1e-8"),
    ([0.5], "error norm never falls to a tenth of its start"),
    ([5e-8, 2e-8, 5e-9],
     "decay window is empty: error norm reaches 1e-8 no later than a tenth of its start"),
    ([1.0, 0.05, 0.04, 0.03, 0.0], "decay window holds fewer than 10 positive error norms"),
    ([10.0, 1.0], "log error norm is flat over the decay window"),
], ids=["zero-start", "nan-start", "no-decade", "empty-window", "few-points", "flat"])
def test_verdict_names_why_rate_is_null(norms, reason):
    verdict = _verdict_of_norms(np.array(norms))
    assert verdict.rate is None and verdict.rate_r_squared is None
    assert verdict.rate_null_reason == reason


def test_rate_null_reason_is_none_when_rate_is_set():
    verdict = _verdict_of_norms(np.exp(-np.arange(300) * 0.1))
    assert verdict.rate == pytest.approx(-1.0)
    assert verdict.rate_null_reason is None


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
        )


@pytest.mark.parametrize("times, rows, message", [
    ([], 0, "times must be a nonempty vector"),
    ([[0.0, 0.1]], 1, "times must be a nonempty vector"),
    ([0.0, 0.1, 0.1], 3, "sample times must be strictly increasing"),
    ([0.0, 0.2, 0.1], 3, "sample times must be strictly increasing"),
    ([0.0, 0.1, 0.3], 3, "sample times must have a uniform stride"),
    ([0.0, 0.1, 0.2], 2, "positions must have 3 axes with one row per sample"),
])
def test_trajectory_names_each_record_it_rejects(times, rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Trajectory(times=times, positions=np.zeros((rows, 2, 2)), errors=np.zeros((rows, 1)),
                   speeds=np.zeros((rows, 2)), mu=np.zeros((rows, 1)), mu_hat=np.zeros((rows, 1)))


@pytest.mark.parametrize("speed", [None, 0.0, -1.0])
def test_an_orbit_verdict_needs_a_positive_speed(speed):
    with pytest.raises(ValueError, match="^an orbit verdict needs a positive steady speed$"):
        sim.RunVerdict(False, 0.1, None, None, speed, True, False)


def test_propagate_exosystem_needs_a_sample_stride_of_at_least_one():
    spec = _zero_disturbance(2)
    with pytest.raises(ValueError, match="^output_every must be at least 1$"):
        propagate_exosystem(spec, default_basis(spec.frequencies), t_end=0.012, output_every=0)


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


@pytest.mark.parametrize("target", ["dropped", "floppy", "zero"])
def test_integrate_ignores_the_target(target):
    # integrate never reads the target embedding, so dropping it or swapping
    # in one that check rejects leaves every recorded bit unchanged, silently
    sc = _triangle_scenario(t_end=0.5)
    other = {
        "dropped": None,
        "floppy": ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0)),  # collinear: not rigid
        "zero": ((0.0, 0.0),) * 3,  # misses every distance
    }[target]
    base = integrate(sc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(dataclasses.replace(sc, target_positions=other))
    for field in dataclasses.fields(Trajectory):
        a, b = getattr(base, field.name), getattr(traj, field.name)
        if isinstance(a, np.ndarray):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert a == b


@pytest.mark.parametrize(
    "t_end, every, reason",
    [
        (0.0105, 1, "whole number"),  # 10.5 steps used to end at 0.01
        (0.01, 3, "multiple of output_every"),  # 10 steps used to end at 0.009
    ],
)
def test_propagate_exosystem_keeps_integrates_grid(t_end, every, reason):
    spec = _zero_disturbance(2)
    basis = default_basis(spec.frequencies)
    with pytest.raises(ScenarioError, match=reason):
        propagate_exosystem(spec, basis, t_end=t_end, dt=1e-3, output_every=every)
    times, states = propagate_exosystem(spec, basis, t_end=0.012, dt=1e-3, output_every=3)
    assert times.size == states.shape[0] == 5
    assert times[-1] == 12 * 1e-3


@pytest.mark.parametrize("dt, t_end", [(math.inf, 1.0), (math.nan, 1.0), (1e-3, math.inf),
                                       (1e-3, math.nan), (-1e-3, 1.0), (1e-3, 0.0)])
def test_propagate_exosystem_rejects_steps_that_are_not_positive_and_finite(dt, t_end):
    # dt = inf used to return the one sample at t = 0, and a NaN was
    # reported as a step count over the cap
    spec = _zero_disturbance(2)
    with pytest.raises(ValueError, match="^dt and t_end must be positive and finite$"):
        propagate_exosystem(spec, default_basis(spec.frequencies), t_end=t_end, dt=dt)


def test_whole_step_test_rejects_a_nan_grid_end():
    # 0 steps of an infinite dt end at 0 * inf = NaN, which no comparison passes
    with pytest.raises(ScenarioError, match="not a whole number of dt inf steps"):
        sim._step_count(math.inf, 1.0, 1, 1)


def test_propagate_exosystem_keeps_only_what_the_cap_counts(monkeypatch):
    # as for integrate: the traced peak is the counted values, float64 each, plus little
    step_count, counted = sim._step_count, []

    def counting(dt, t_end, every, values_per_sample):
        steps = step_count(dt, t_end, every, values_per_sample)
        counted.append((steps // every + 1) * values_per_sample)
        return steps

    monkeypatch.setattr(sim, "_step_count", counting)
    sc = builtin_scenario("tetra3d")
    basis = sc.basis()
    tracemalloc.start()
    try:
        times, states = propagate_exosystem(sc.disturbance, basis, t_end=20.0, dt=1e-3,
                                            output_every=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert times.size == states.shape[0] == 20_001 and len(counted) == 1
    assert 8 * counted[0] <= peak <= 8 * counted[0] + 0.25 * 2**20


def test_builtin_epuck_smoke():
    sc = dataclasses.replace(builtin_scenario("epuck2d"), t_end=1.0)
    traj = integrate(sc)
    assert traj.positions.shape[1:] == (4, 2)
    assert not traj.diverged
    assert s1_matrix(sc.framework_initial()).shape == (5, 8)
