"""Disturbance model, internal-model basis, and exosystem behavior.

The initial-state construction is the one derived quantity here, so it is
checked against an independent scipy integration of the exosystem before
any closed-loop test depends on it.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from oracles import krylov_rank
from rigiform import (
    DisturbanceSpec,
    EdgeDisturbance,
    ExosystemState,
    InternalModelBasis,
    check_observability,
    default_basis,
    exosystem_initial_state,
    lambda_matrix,
    mu_closed_form,
    propagate_exosystem,
)


def _two_tone_spec():
    return DisturbanceSpec(
        (1.0, 2.5),
        (
            EdgeDisturbance(0.7, (1.2, 0.4), (0.3, -1.1)),
            EdgeDisturbance(-2.0, (0.0, 0.9), (0.0, 2.2)),
            EdgeDisturbance(19.0, (0.5, 0.0), (1.4, 0.0)),
        ),
    )


def test_lambda_matrix_offset_only():
    assert np.array_equal(lambda_matrix(()), np.array([[0.0]]))


def test_lambda_matrix_single_tone_literal():
    expected = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, -2.0],
        [0.0, 2.0, 0.0],
    ])
    assert np.array_equal(lambda_matrix((2.0,)), expected)


def test_lambda_matrix_spectrum():
    eigs = np.linalg.eigvals(lambda_matrix((1.0, 3.0)))
    got = sorted(eigs, key=lambda v: (round(v.imag, 9), round(v.real, 9)))
    want = [-3j, -1j, 0.0, 1j, 3j]
    assert np.allclose(got, want, atol=1e-12)


def test_frequency_validation():
    with pytest.raises(ValueError, match="distinct"):
        DisturbanceSpec((1.0, 1.0), (EdgeDisturbance(0.0, (1.0, 1.0), (0.0, 0.0)),))
    with pytest.raises(ValueError, match="positive"):
        lambda_matrix((0.0,))
    with pytest.raises(ValueError, match="positive"):
        lambda_matrix((-1.0,))
    with pytest.raises(ValueError, match="finite"):
        lambda_matrix((math.inf,))


def test_default_basis_is_observable():
    basis = default_basis((1.0,))
    assert np.array_equal(basis.vector, np.array([1.0, 1.0, 0.0]))
    assert check_observability(basis)
    flat = default_basis(())
    assert np.array_equal(flat.vector, np.array([1.0]))
    assert check_observability(flat)
    # Krylov matrices with condition numbers up to about 1e10
    for freqs in [(0.5, 1.0, 2.0, 4.0, 8.0, 16.0), (0.01, 1000.0), (0.001, 0.01), (1e-6,)]:
        assert check_observability(default_basis(freqs))


def test_observability_frozen_cases():
    assert check_observability(InternalModelBasis(1.0, (1.0, 0.0), (1.0,)))
    # killing the offset channel makes the constant mode unobservable
    assert not check_observability(InternalModelBasis(0.0, (1.0, 0.0), (1.0,)))
    # a zeroed sin/cos pair hides that tone
    assert not check_observability(InternalModelBasis(1.0, (1.0, 0.0, 0.0, 0.0), (1.0, 2.0)))
    assert check_observability(InternalModelBasis(1.0, (1.0, 1.0, 0.0, 0.0), (1.0, 2.0)))


def test_initial_state_constant_disturbance():
    spec = DisturbanceSpec((), (EdgeDisturbance(19.0),))
    basis = default_basis(())
    state = exosystem_initial_state(spec, basis)
    assert np.array_equal(state.w, np.array([[19.0]]))
    assert np.array_equal(state.w @ basis.vector, np.array([19.0]))


def test_initial_state_pure_sine_literal():
    # amplitude 1, phase 0, frequency 2, sin-only pickup: w0 = (0, 0, -1)
    spec = DisturbanceSpec((2.0,), (EdgeDisturbance(0.0, (1.0,), (0.0,)),))
    basis = InternalModelBasis(1.0, (1.0, 0.0), (2.0,))
    state = exosystem_initial_state(spec, basis)
    assert np.allclose(state.w, np.array([[0.0, 0.0, -1.0]]), atol=1e-15)


def test_initial_state_zero_spec_is_zero():
    spec = DisturbanceSpec((1.0,), (EdgeDisturbance(0.0, (0.0,), (0.0,)),))
    state = exosystem_initial_state(spec, default_basis((1.0,)))
    assert np.array_equal(state.w, np.zeros((1, 3)))


def test_initial_state_error_paths():
    spec = DisturbanceSpec((1.0,), (EdgeDisturbance(1.0, (1.0,), (0.0,)),))
    with pytest.raises(ValueError, match="b1 is zero"):
        exosystem_initial_state(spec, InternalModelBasis(0.0, (1.0, 0.0), (1.0,)))
    with pytest.raises(ValueError, match="unrepresentable"):
        exosystem_initial_state(spec, InternalModelBasis(1.0, (0.0, 0.0), (1.0,)))
    with pytest.raises(ValueError, match="frequency lists differ"):
        exosystem_initial_state(spec, default_basis((2.0,)))


def test_a_channel_b_cannot_see_is_refused_only_when_the_signal_uses_it():
    # the offset is 0 and the 2 rad/s tone absent, so b1 = 0 and a zero b2
    # pair for that tone are fine; the 1 rad/s channel is stored as before
    spec = DisturbanceSpec((1.0, 2.0), (EdgeDisturbance(0.0, (0.5, 0.0), (0.3, 0.0)),))
    full = exosystem_initial_state(spec, InternalModelBasis(1.0, (1.0, 1.0, 0.0, 0.0), (1.0, 2.0)))
    blind = exosystem_initial_state(spec, InternalModelBasis(0.0, (1.0, 0.0, 0.0, 0.0), (1.0, 2.0)))
    assert np.array_equal(blind.w[:, [1, 3]], full.w[:, [1, 3]])
    assert np.array_equal(blind.w[:, [0, 2, 4]], np.zeros((1, 3)))

def test_a_generator_state_that_overflows_is_refused():
    # b sees every channel, but offset / b1 overflows, or the 1 rad/s pair's
    # squares underflow to a zero divisor
    spec = DisturbanceSpec((1.0,), (EdgeDisturbance(0.5, (0.5,), (0.3,)),))
    for basis in (InternalModelBasis(1e-320, (1.0, 0.0), (1.0,)),
                  InternalModelBasis(1.0, (1e-170, 0.0), (1.0,))):
        assert check_observability(basis)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^generator state not finite: the signal over b "
                                                 "overflows$"):
                exosystem_initial_state(spec, basis)


def test_a_used_tone_whose_b2_pair_overflows_when_squared_is_refused():
    # |b2| near 1e200 squares to inf, which would round the tone's state to 0
    # (w @ b = 0 against the 0.1478 the tone gives at t = 0); an unused tone
    # there, or a pair just short of overflow, keeps its state
    spec = DisturbanceSpec((1.0, 2.0), (EdgeDisturbance(0.0, (0.5, 0.0), (0.3, 0.0)),))
    for b2 in ((1e200, 1.0, 0.0, 0.0), (1.0, 1.0, -1e200, 0.0)):
        with pytest.raises(ValueError, match=r"^sinusoid at 1\.0 rad/s unrepresentable: its b2 "
                                             r"pair overflows when squared$"):
            exosystem_initial_state(spec, InternalModelBasis(1.0, b2, (1.0, 2.0)))
    for b2 in ((1.0, 1e200, 0.0, 0.0), (1e150, 1.0, 0.0, 0.0)):
        basis = InternalModelBasis(1.0, b2, (1.0, 2.0))
        w = exosystem_initial_state(spec, basis).w
        assert np.allclose(w @ basis.vector, mu_closed_form(spec, 0.0), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("build, message", [
    (lambda: DisturbanceSpec((1.0,), ((0.0, (0.0,), (0.0,)),)),
     "edge 1: entries must be EdgeDisturbance"),
    (lambda: DisturbanceSpec.from_tables((1.0,), [0.0], [[0.0, 0.0]], [[0.0, 0.0]]),
     "edge 1: needs one (amplitude, phase) pair per frequency"),
    (lambda: ExosystemState(np.zeros(3)), "w must be a (edges, 2p+1) array"),
])
def test_disturbance_records_name_what_they_reject(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_silent_frequency_without_output_weights_leaves_its_channels_zero():
    # both b2 entries of the 2.0 rad/s tone are zero: no sinusoid there is fine
    spec = DisturbanceSpec((1.0, 2.0), (EdgeDisturbance(0.5, (1.0, 0.0), (0.0, 0.0)),))
    basis = InternalModelBasis(1.0, (1.0, 0.0, 0.0, 0.0), (1.0, 2.0))
    w = exosystem_initial_state(spec, basis).w
    assert np.array_equal(w, [[0.5, 0.0, 0.0, -1.0, 0.0]])


def test_initial_state_reproduces_output_via_scipy():
    """Oracle: integrate dw/dt = L w with scipy and compare b' w to the
    closed-form disturbance on a dense grid."""
    spec = _two_tone_spec()
    basis = default_basis(spec.frequencies)
    state = exosystem_initial_state(spec, basis)
    lam = basis.dynamics_matrix
    times = np.linspace(0.0, 10.0, 401)
    for k in range(spec.edge_count):
        sol = solve_ivp(
            lambda _, w: lam @ w,
            (0.0, 10.0),
            state.w[k],
            t_eval=times,
            rtol=1e-12,
            atol=1e-14,
        )
        assert sol.success
        got = basis.vector @ sol.y
        want = mu_closed_form(spec, times)[:, k]
        assert np.abs(got - want).max() < 1e-8


def test_propagate_matches_closed_form():
    spec = _two_tone_spec()
    basis = default_basis(spec.frequencies)
    times, states = propagate_exosystem(spec, basis, t_end=20.0, dt=1e-3, output_every=20)
    mu = states @ basis.vector
    assert np.abs(mu - mu_closed_form(spec, times)).max() < 1e-8


def test_propagation_conserves_tone_energy():
    # each sin/cos pair rotates, so its squared norm is an invariant
    spec = _two_tone_spec()
    basis = default_basis(spec.frequencies)
    _, states = propagate_exosystem(spec, basis, t_end=50.0, dt=1e-3, output_every=100)
    p = spec.p
    for i in range(p):
        pair = states[:, :, (1 + i, 1 + p + i)]
        energy = (pair ** 2).sum(axis=2)
        assert np.abs(energy - energy[0]).max() < 1e-8


def test_negative_amplitude_is_normalized():
    raw = EdgeDisturbance(0.0, (-2.0,), (0.5,))
    assert raw.amplitudes == (2.0,)
    assert -math.pi < raw.phases[0] <= math.pi
    spec_raw = DisturbanceSpec((1.5,), (raw,))
    times = np.linspace(0.0, 8.0, 200)
    manual = -2.0 * np.sin(1.5 * times + 0.5)
    assert np.abs(mu_closed_form(spec_raw, times)[:, 0] - manual).max() < 1e-12


def test_zero_amplitude_phase_is_canonical():
    d = EdgeDisturbance(1.0, (0.0,), (2.7,))
    assert d.phases == (0.0,)


def test_edge_disturbance_validation():
    with pytest.raises(ValueError, match="one phase per amplitude"):
        EdgeDisturbance(0.0, (1.0, 2.0), (0.0,))
    with pytest.raises(ValueError, match="finite"):
        EdgeDisturbance(math.nan)
    spec_edges = (EdgeDisturbance(0.0, (1.0,), (0.0,)),)
    with pytest.raises(ValueError, match="amplitude"):
        DisturbanceSpec((1.0, 2.0), spec_edges)
    with pytest.raises(ValueError, match="at least one edge"):
        DisturbanceSpec((1.0,), ())


def test_basis_validation():
    with pytest.raises(ValueError, match="two entries per frequency"):
        InternalModelBasis(1.0, (1.0,), (1.0,))
    with pytest.raises(ValueError, match="finite"):
        InternalModelBasis(math.inf, (), ())


def test_mu_closed_form_scalar_matches_vector():
    spec = _two_tone_spec()
    times = np.linspace(0.0, 5.0, 50)
    table = mu_closed_form(spec, times)
    assert table.shape == (50, spec.edge_count)
    rows = np.stack([mu_closed_form(spec, float(t)) for t in times])
    assert np.array_equal(table, rows)


def test_exosystem_output_broadcasts():
    # mu = w @ b reads one signal per edge from any stack of generator states
    spec = _two_tone_spec()
    basis = default_basis(spec.frequencies)
    state = exosystem_initial_state(spec, basis)
    single = state.w @ basis.vector
    assert single.shape == (3,)
    stacked = np.stack([state.w, state.w]) @ basis.vector
    assert stacked.shape == (2, 3)
    assert np.array_equal(stacked[0], single)
    assert np.abs(single - mu_closed_form(spec, 0.0)).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e), max_size=6, unique=True),
       st.data())
def test_observability_agrees_with_the_exact_krylov_rank(freqs, data):
    # frequencies log-uniform over 16 decades; any finite b, up to three
    # entries zeroed, which can blind the constant or one tone
    q = 2 * len(freqs) + 1
    b = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=q, max_size=q))
    for k in data.draw(st.sets(st.integers(0, q - 1), max_size=3)):
        b[k] = 0.0
    basis = InternalModelBasis(b[0], tuple(b[1:]), tuple(freqs))
    assert check_observability(basis) == (krylov_rank(basis) == q)


def test_observability_survives_huge_frequencies():
    # no power of Lambda is formed, so nothing overflows at 1e200 rad/s
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert check_observability(InternalModelBasis(1.0, (1.0, 0.0), (1e200,)))
        assert not check_observability(InternalModelBasis(1.0, (0.0, 0.0), (1e200,)))
