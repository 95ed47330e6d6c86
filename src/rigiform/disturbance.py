"""Measurement inconsistency signals and their generator realization.

Each edge's two endpoints can disagree about the squared distance between
them by an offset plus sinusoids drawn from a shared list of frequencies.
The same signal class is produced by an autonomous linear system, one block
per edge: a constant channel plus a 2x2 rotation block per frequency.  A
fixed output vector b = (b1, b2) reads the signal back out of the block
state: mu = w @ basis.vector, row by row.
The estimator in `sim`'s closed loop embeds a copy of these dynamics, so the
representability and observability checks live here too.  A spec keeps
its entries as read-only offset, amplitude and phase tables, checked and
normalized whole; EdgeDisturbance is the row form its constructor accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import attrgetter

import numpy as np

from .rigidity import _read_only, _Tables


def _checked_frequencies(frequencies) -> tuple[float, ...]:
    freqs = tuple(float(w) for w in frequencies)
    if any(not math.isfinite(w) or w <= 0 for w in freqs):
        raise ValueError("frequencies must be positive and finite")
    if len(set(freqs)) != len(freqs):
        raise ValueError("frequencies must be pairwise distinct")
    return freqs


_ENTRY_ERRORS = ("offset must be finite", "one phase per amplitude",
                 "amplitudes and phases must be finite")


def _edge_tables(offsets, amplitudes, phases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets (|E|,), amplitudes and phases (|E|, p) as checked, normalized,
    read-only float tables, raising EdgeDisturbance's message for the first
    entry that fails a check.  A negative amplitude flips its sign into the
    phase; an absent sinusoid's phase (zero amplitude) is 0, which keeps
    serialization round-trips exact; other phases wrap to (-pi, pi], which
    needs math.remainder only where |phase| > pi."""
    offsets = np.array(offsets, dtype=float)
    amplitudes, phases = np.array(amplitudes, dtype=float), np.array(phases, dtype=float)
    values = np.concatenate((offsets, amplitudes.ravel(), phases.ravel()))
    if amplitudes.shape != phases.shape or np.count_nonzero(np.isfinite(values)) < values.size:
        flags = np.zeros((len(offsets), 3), dtype=bool)  # per entry, one column per message
        flags[:, 0] = ~np.isfinite(offsets)
        flags[:, 1] = amplitudes.shape != phases.shape
        if amplitudes.shape == phases.shape:
            flags[:, 2] = ~(np.isfinite(amplitudes) & np.isfinite(phases)).all(axis=1)
        raise ValueError(_ENTRY_ERRORS[int(flags.argmax()) % 3])
    flip = amplitudes < 0.0
    if np.count_nonzero(flip):
        amplitudes = np.where(flip, -amplitudes, amplitudes)  # -0.0 stays as it is
        phases = np.where(flip, phases + math.pi, phases)
    wide = np.abs(phases) > math.pi
    if np.count_nonzero(wide):
        phases[wide] = list(map(math.remainder, phases[wide].tolist(), repeat(math.tau)))
    phases[phases <= -math.pi] = math.pi
    phases[amplitudes == 0.0] = 0.0
    return _read_only(offsets), _read_only(amplitudes), _read_only(phases)


@dataclass(frozen=True)
class EdgeDisturbance:
    """One edge's signal: offset plus one (amplitude, phase) pair per
    frequency, normalized as `_edge_tables` normalizes a row."""

    offset: float
    amplitudes: tuple[float, ...] = ()
    phases: tuple[float, ...] = ()

    def __post_init__(self):
        tables = _edge_tables([self.offset], [self.amplitudes], [self.phases])
        for name, table in zip(("offset", "amplitudes", "phases"), tables):
            row = table.tolist()[0]
            object.__setattr__(self, name, row if name == "offset" else tuple(row))


class DisturbanceSpec(_Tables):
    """Per-edge offsets and sinusoids over one shared frequency list.

    Heterogeneous per-edge frequency content is expressed with zero
    amplitudes against the union of all frequencies, which keeps every
    edge's generator block the same shape.  The entries are kept as the
    read-only tables `offsets` (|E|,), `amplitude_table` and `phase_table`
    (|E|, p), which `from_tables(frequencies, offsets, amplitudes, phases)`
    takes; the constructor takes one EdgeDisturbance row per edge.
    """

    def __init__(self, frequencies, edges):
        p = len(_checked_frequencies(frequencies))
        edges = tuple(edges)
        if not edges:
            raise ValueError("need at least one edge entry")
        for k, ed in enumerate(edges, start=1):
            if not isinstance(ed, EdgeDisturbance):
                raise ValueError(f"edge {k}: entries must be EdgeDisturbance")
            if len(ed.amplitudes) != p:
                raise ValueError(f"edge {k}: needs one (amplitude, phase) pair per frequency")
        self._fill(frequencies, *zip(*map(attrgetter("offset", "amplitudes", "phases"), edges)))

    @classmethod
    def from_tables(cls, frequencies, offsets, amplitudes, phases) -> DisturbanceSpec:
        spec = cls.__new__(cls)
        spec._fill(frequencies, offsets, amplitudes, phases)
        return spec

    def _fill(self, frequencies, offsets, amplitudes, phases):
        self.frequencies = _checked_frequencies(frequencies)
        self.offsets, self.amplitude_table, self.phase_table = _edge_tables(
            offsets, amplitudes, phases)
        if not len(self.offsets):
            raise ValueError("need at least one edge entry")
        if self.amplitude_table.shape != (len(self.offsets), self.p):
            raise ValueError("edge 1: needs one (amplitude, phase) pair per frequency")

    def _key(self):
        return self.frequencies, self.offsets, self.amplitude_table, self.phase_table

    @property
    def p(self) -> int:
        return len(self.frequencies)

    @property
    def edge_count(self) -> int:
        return len(self.offsets)


def lambda_matrix(frequencies) -> np.ndarray:
    """(2p+1)-square generator matrix.

    Layout [[0, 0, 0], [0, 0, -W], [0, W, 0]] with W = diag(frequencies):
    a dead constant channel followed by one rotation pair per frequency,
    sine channels in the middle rows and cosine channels in the bottom rows.
    """
    freqs = _checked_frequencies(frequencies)
    p = len(freqs)
    out = np.zeros((2 * p + 1, 2 * p + 1))
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
        return _read_only(np.array([self.b1, *self.b2]))

    @cached_property
    def dynamics_matrix(self) -> np.ndarray:
        return _read_only(lambda_matrix(self.frequencies))


def default_basis(frequencies) -> InternalModelBasis:
    """b1 = 1 and the pair (1, 0) per frequency; observable for every
    frequency list `_checked_frequencies` accepts."""
    freqs = _checked_frequencies(frequencies)
    return InternalModelBasis(1.0, (1.0,) * len(freqs) + (0.0,) * len(freqs), freqs)


def _blind_channels(basis: InternalModelBasis, verdict: str):
    """(channel, "<channel> <verdict>: <why>") for each mode of Lambda that b
    cannot see, channel 0 the constant and 1 + i frequency i.  Lambda's modes
    are distinct, so by the Hautus test these are b1 = 0 and (0, 0) b2 pairs."""
    if basis.b1 == 0.0:
        yield 0, f"constant channel {verdict}: b1 is zero"
    for i, (w, b_sin, b_cos) in enumerate(zip(basis.frequencies, basis.b2, basis.b2[basis.p:])):
        if b_sin == 0.0 and b_cos == 0.0:
            yield 1 + i, f"sinusoid at {w} rad/s {verdict}: both b2 entries for it are zero"


def check_observability(basis: InternalModelBasis) -> bool:
    """Whether b sees every mode of Lambda, by `_blind_channels`' exact rule."""
    return next(_blind_channels(basis, "unobservable"), None) is None


@dataclass(frozen=True, eq=False)
class ExosystemState:
    """Stacked generator state at t = 0, one read-only row per edge."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 2:
            raise ValueError("w must be a (edges, 2p+1) array")
        object.__setattr__(self, "w", _read_only(w))


def exosystem_initial_state(spec: DisturbanceSpec, basis: InternalModelBasis) -> ExosystemState:
    """State at t = 0 whose output reproduces the spec's signal for all time.

    The constant channel stores offset / b1; each frequency's (sine, cosine)
    pair solves the 2x2 system matching the sinusoid's value and quadrature
    through the rotation block and its b2 pair.  A channel b cannot see
    stays zero and may carry no signal; a state that overflows is refused,
    and so is a used tone whose b2 pair overflows when squared.
    """
    if spec.frequencies != basis.frequencies:
        raise ValueError("disturbance and basis frequency lists differ")
    used = np.column_stack((spec.offsets, spec.amplitude_table)) != 0.0  # one column per channel
    for channel, reason in _blind_channels(basis, "unrepresentable"):
        if used[:, channel].any():
            raise ValueError(reason)
    p = spec.p
    w = np.zeros((spec.edge_count, basis.state_size))
    with np.errstate(all="ignore"):  # a non-finite state is refused below
        w[:, 0] = spec.offsets / basis.b1 if basis.b1 != 0.0 else 0.0
        for i in range(p):
            b_sin, b_cos = basis.b2[i], basis.b2[p + i]
            den = b_sin * b_sin + b_cos * b_cos
            amps = spec.amplitude_table[:, i]
            if den == 0.0 and not used[:, 1 + i].any():  # blind, or its squares underflow
                continue  # a used one divides by zero and is refused below
            if math.isinf(den) and used[:, 1 + i].any():  # its quotients would round to 0
                raise ValueError(f"sinusoid at {basis.frequencies[i]} rad/s unrepresentable: "
                                 "its b2 pair overflows when squared")
            sin_ph = np.sin(spec.phase_table[:, i])
            cos_ph = np.cos(spec.phase_table[:, i])
            w[:, 1 + i] = (b_sin * amps * sin_ph + b_cos * amps * cos_ph) / den
            w[:, 1 + p + i] = (b_cos * amps * sin_ph - b_sin * amps * cos_ph) / den
    if not np.isfinite(w).all():
        raise ValueError("generator state not finite: the signal over b overflows")
    return ExosystemState(w)


def mu_closed_form(spec: DisturbanceSpec, t):
    """Disturbance vector at time t.

    Scalar t gives shape (|E|,); a 1-D array of times gives (len(t), |E|).
    """
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    tt = np.atleast_1d(t_arr)
    angles = (tt[:, None, None] * np.array(spec.frequencies)[None, None, :]
              + spec.phase_table[None, :, :])
    out = spec.offsets[None, :] + (spec.amplitude_table[None, :, :] * np.sin(angles)).sum(axis=2)
    return out[0] if scalar else out
