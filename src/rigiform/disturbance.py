"""Measurement inconsistency signals and their generator realization.

Each edge's two endpoints can disagree about the squared distance between
them by an offset plus sinusoids drawn from a shared list of frequencies.
The same signal class is produced by an autonomous linear system, one block
per edge: a constant channel plus a 2x2 rotation block per frequency.  A
fixed output vector b = (b1, b2) reads the signal back out of the block
state: mu = w @ basis.vector, row by row.
The estimator in `sim`'s closed loop embeds a copy of these dynamics, so the
representability and observability checks live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rigidity import numeric_rank


def _checked_frequencies(frequencies) -> tuple[float, ...]:
    freqs = tuple(float(w) for w in frequencies)
    if any(not math.isfinite(w) or w <= 0 for w in freqs):
        raise ValueError("frequencies must be positive and finite")
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be pairwise distinct")
    return freqs


@dataclass(frozen=True)
class EdgeDisturbance:
    """One edge's signal: offset plus one (amplitude, phase) pair per frequency.

    Negative amplitudes are normalized away by flipping the sign into the
    phase; stored phases are wrapped to (-pi, pi].
    """

    offset: float
    amplitudes: tuple[float, ...] = ()
    phases: tuple[float, ...] = ()

    def __post_init__(self):
        offset = float(self.offset)
        if not math.isfinite(offset):
            raise ValueError("offset must be finite")
        amplitudes = [float(a) for a in self.amplitudes]
        phases = [float(p) for p in self.phases]
        if len(amplitudes) != len(phases):
            raise ValueError("one phase per amplitude")
        for i, (amp, ph) in enumerate(zip(amplitudes, phases)):
            if not (math.isfinite(amp) and math.isfinite(ph)):
                raise ValueError("amplitudes and phases must be finite")
            if amp < 0.0:
                amp, ph = -amp, ph + math.pi
            if amp == 0.0:
                # phase of an absent sinusoid is meaningless; canonical 0
                # keeps serialization round-trips exact
                ph = 0.0
            else:
                ph = math.remainder(ph, math.tau)
                if ph <= -math.pi:
                    ph = math.pi
            amplitudes[i], phases[i] = amp, ph
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "amplitudes", tuple(amplitudes))
        object.__setattr__(self, "phases", tuple(phases))


@dataclass(frozen=True)
class DisturbanceSpec:
    """Per-edge offsets and sinusoids over one shared frequency list.

    Heterogeneous per-edge frequency content is expressed with zero
    amplitudes against the union of all frequencies, which keeps every
    edge's generator block the same shape.
    """

    frequencies: tuple[float, ...]
    edges: tuple[EdgeDisturbance, ...]

    def __post_init__(self):
        freqs = _checked_frequencies(self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        edges = tuple(self.edges)
        object.__setattr__(self, "edges", edges)
        if not edges:
            raise ValueError("need at least one edge entry")
        for k, ed in enumerate(edges, start=1):
            if not isinstance(ed, EdgeDisturbance):
                raise ValueError(f"edge {k}: entries must be EdgeDisturbance")
            if len(ed.amplitudes) != len(freqs):
                raise ValueError(f"edge {k}: needs one (amplitude, phase) pair per frequency")

    @property
    def p(self) -> int:
        return len(self.frequencies)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def offsets(self) -> np.ndarray:
        a = np.array([ed.offset for ed in self.edges])
        a.setflags(write=False)
        return a

    @cached_property
    def amplitude_table(self) -> np.ndarray:
        """(|E|, p) amplitudes."""
        a = np.array([ed.amplitudes for ed in self.edges]).reshape(self.edge_count, self.p)
        a.setflags(write=False)
        return a

    @cached_property
    def phase_table(self) -> np.ndarray:
        """(|E|, p) phases."""
        a = np.array([ed.phases for ed in self.edges]).reshape(self.edge_count, self.p)
        a.setflags(write=False)
        return a


def lambda_matrix(frequencies) -> np.ndarray:
    """(2p+1)-square generator matrix.

    Layout [[0, 0, 0], [0, 0, -W], [0, W, 0]] with W = diag(frequencies):
    a dead constant channel followed by one rotation pair per frequency,
    sine channels in the middle rows and cosine channels in the bottom rows.
    """
    freqs = _checked_frequencies(frequencies)
    p = len(freqs)
    out = np.zeros((2 * p + 1, 2 * p + 1))
    if p:
        w = np.diag(freqs)
        out[1:p + 1, p + 1:] = -w
        out[p + 1:, 1:p + 1] = w
    return out


@dataclass(frozen=True)
class InternalModelBasis:
    """Output vector (b1, b2) over the block state (constant, sines, cosines).

    The first half of b2 pairs with the sine rows and the second half with
    the cosine rows of the matching frequency.
    """

    b1: float
    b2: tuple[float, ...]
    frequencies: tuple[float, ...]

    def __post_init__(self):
        freqs = _checked_frequencies(self.frequencies)
        b1 = float(self.b1)
        b2 = tuple(float(v) for v in self.b2)
        if not math.isfinite(b1) or any(not math.isfinite(v) for v in b2):
            raise ValueError("output vector must be finite")
        if len(b2) != 2 * len(freqs):
            raise ValueError("b2 needs two entries per frequency")
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "frequencies", freqs)

    @property
    def p(self) -> int:
        return len(self.frequencies)

    @property
    def state_size(self) -> int:
        return 2 * self.p + 1

    @cached_property
    def vector(self) -> np.ndarray:
        v = np.array([self.b1, *self.b2])
        v.setflags(write=False)
        return v

    @cached_property
    def dynamics_matrix(self) -> np.ndarray:
        m = lambda_matrix(self.frequencies)
        m.setflags(write=False)
        return m


def default_basis(frequencies) -> InternalModelBasis:
    """b1 = 1 and the pair (1, 0) per frequency; observable whenever the
    frequencies are distinct and positive."""
    freqs = _checked_frequencies(frequencies)
    p = len(freqs)
    return InternalModelBasis(1.0, (1.0,) * p + (0.0,) * p, freqs)


def check_observability(basis: InternalModelBasis) -> bool:
    """Full numeric rank of the stacked output/dynamics rows.

    The dynamics are divided by the largest frequency when it exceeds 1:
    that scales row j by its -j-th power, which keeps the rank and keeps
    b Lambda^j finite however fast the tones are.
    """
    q = basis.state_size
    lam = basis.dynamics_matrix / max((1.0, *basis.frequencies))
    rows = np.empty((q, q))
    rows[0] = basis.vector
    for j in range(1, q):
        rows[j] = rows[j - 1] @ lam
    return numeric_rank(rows) == q


@dataclass(frozen=True, eq=False)
class ExosystemState:
    """Stacked generator state, one row per edge."""

    t: float
    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 2:
            raise ValueError("w must be a (edges, 2p+1) array")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "t", float(self.t))


def exosystem_initial_state(spec: DisturbanceSpec, basis: InternalModelBasis) -> ExosystemState:
    """State at t = 0 whose output reproduces the spec's signal for all time.

    The constant channel stores offset / b1.  Each frequency's (sine,
    cosine) pair solves the 2x2 system matching the sinusoid's value and
    quadrature through the rotation block and that frequency's b2
    sub-vector; a zero sub-vector cannot carry a nonzero amplitude.
    """
    if spec.frequencies != basis.frequencies:
        raise ValueError("disturbance and basis frequency lists differ")
    if basis.b1 == 0.0:
        raise ValueError("constant channel unrepresentable: b1 is zero")
    p = spec.p
    w = np.zeros((spec.edge_count, basis.state_size))
    w[:, 0] = spec.offsets / basis.b1
    for i in range(p):
        b_sin = basis.b2[i]
        b_cos = basis.b2[p + i]
        den = b_sin * b_sin + b_cos * b_cos
        amps = spec.amplitude_table[:, i]
        if den == 0.0:
            if np.any(amps != 0.0):
                raise ValueError(
                    f"sinusoid at {spec.frequencies[i]} rad/s unrepresentable: "
                    "both b2 entries for it are zero"
                )
            continue
        sin_ph = np.sin(spec.phase_table[:, i])
        cos_ph = np.cos(spec.phase_table[:, i])
        w[:, 1 + i] = (b_sin * amps * sin_ph + b_cos * amps * cos_ph) / den
        w[:, 1 + p + i] = (b_cos * amps * sin_ph - b_sin * amps * cos_ph) / den
    return ExosystemState(0.0, w)


def mu_closed_form(spec: DisturbanceSpec, t):
    """Disturbance vector at time t.

    Scalar t gives shape (|E|,); a 1-D array of times gives (len(t), |E|).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tt = np.atleast_1d(t_arr)
    if spec.p:
        angles = (tt[:, None, None] * np.array(spec.frequencies)[None, None, :]
                  + spec.phase_table[None, :, :])
        out = spec.offsets[None, :] + (spec.amplitude_table[None, :, :] * np.sin(angles)).sum(axis=2)
    else:
        out = np.repeat(spec.offsets[None, :], tt.size, axis=0)
    return out[0] if scalar else out
