"""Fixed-step integration of the closed loop and run-level verdicts.

The closed-loop state is one flat float64 vector y = [x | xi | w]: agent
positions (n, dim), estimator bank (E, q) and signal generators (E, q),
each stored row-major, so xi and w also form one (2, E, q) stack.
`_ClosedLoop` is the only implementation of the control law: one
evaluation returns the derivative that `integrate` and
`closed_loop_derivative` use together with the edge columns a Trajectory
records.  On a sampled step `integrate` records from the evaluation that
also serves as the next step's k1, so every step costs four evaluations.
Integration is classical fourth-order Runge-Kutta with a constant step,
so a run is bitwise reproducible; adaptive stepping would trade that away
for speed this problem does not need.  The generator block is integrated
like everything else rather than sampled from its closed form; the closed
form stays available as a test oracle.

Scenarios are duck-typed: framework_initial / framework_target / basis /
xi0_array, the disturbance spec, and the mode / kappa / dt / t_end /
output_every fields.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .disturbance import exosystem_initial_state
from .rigidity import is_infinitesimally_rigid
from .scenario import ScenarioError

# A run whose position norm passes this bound is declared divergent and
# aborted with the samples recorded so far.
DIVERGENCE_GUARD = 1e9
# Caps checked before a run allocates its samples: the step count bounds
# its time (a 4-agent step costs about 0.1 ms) and the recorded values,
# float64 each, bound its memory.
MAX_STEPS = 10_000_000
MAX_RECORDED_VALUES = 50_000_000


@dataclass(frozen=True, eq=False)
class SimState:
    """Closed-loop state: time, positions (n, dim), estimator bank (E, q),
    generator bank (E, q)."""

    t: float
    x: np.ndarray
    xi: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        xi = np.array(self.xi, dtype=float)
        w = np.array(self.w, dtype=float)
        if x.ndim != 2:
            raise ValueError("x must be an (agents, dim) array")
        if xi.ndim != 2 or w.shape != xi.shape:
            raise ValueError("xi and w must be (edges, 2p+1) arrays of one shape")
        for a in (x, xi, w):
            a.setflags(write=False)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled run record.

    alpha holds the compensated per-edge errors e + mu - mu_hat (what the
    estimating agent effectively acts on); estimator_gap holds the
    generator state minus the estimator state, per edge and sample.  A
    diverged run keeps the samples recorded before the guard tripped, and
    divergence_step is the step at which it tripped.  final_errors holds
    the edge errors of the last state that passed the guard: the last
    sample's (the default) unless the run diverged, when it is the state
    one step before divergence_step.
    """

    times: np.ndarray
    positions: np.ndarray
    errors: np.ndarray
    speeds: np.ndarray
    mu: np.ndarray
    mu_hat: np.ndarray
    alpha: np.ndarray
    estimator_gap: np.ndarray
    diverged: bool
    divergence_step: int | None = None
    final_errors: np.ndarray | None = None

    def __post_init__(self):
        if bool(self.diverged) != (self.divergence_step is not None):
            raise ValueError("divergence_step is set exactly when the run diverged")
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a nonempty vector")
        gaps = np.diff(times)
        if (gaps <= 0).any():
            raise ValueError("sample times must be strictly increasing")
        if gaps.size and not np.allclose(gaps, gaps[0], rtol=1e-9, atol=0.0):
            raise ValueError("sample times must have a uniform stride")
        t_count = times.size
        arrays = {}
        for name, ndim in (("positions", 3), ("errors", 2), ("speeds", 2),
                           ("mu", 2), ("mu_hat", 2), ("alpha", 2), ("estimator_gap", 3)):
            a = np.array(getattr(self, name), dtype=float)
            if a.ndim != ndim or a.shape[0] != t_count:
                raise ValueError(f"{name} must have {ndim} axes with one row per sample")
            arrays[name] = a
        last = arrays["errors"][-1] if self.final_errors is None else self.final_errors
        final_errors = np.array(last, dtype=float)
        if final_errors.shape != arrays["errors"].shape[1:]:
            raise ValueError("final_errors must hold one error per edge")
        arrays["final_errors"] = final_errors
        times.setflags(write=False)
        object.__setattr__(self, "times", times)
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "diverged", bool(self.diverged))

    @property
    def sample_count(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class RunVerdict:
    """End-of-run classification.

    converged: errors and speeds both below tol over the analysis window.
    orbit_detected: every agent holds a nonzero speed with coefficient of
    variation below 1e-3 over the window (the steady collective motion a
    persistent uncompensated disturbance produces); steady_speed is then
    the common speed.  rate and rate_r_squared describe a least-squares
    line through log||e|| over the decaying stretch, absent when the run
    starts trivially or never decays.
    """

    converged: bool
    final_error: float
    rate: float | None
    rate_r_squared: float | None
    steady_speed: float | None
    orbit_detected: bool
    diverged: bool

    def __post_init__(self):
        if self.orbit_detected and not (self.steady_speed and self.steady_speed > 0):
            raise ValueError("an orbit verdict needs a positive steady speed")


def _rk4_step(y, dt, deriv, k1):
    """One classical Runge-Kutta step of dy/dt = deriv(y), given k1 = deriv(y)."""
    k2 = deriv(y + 0.5 * dt * k1)
    k3 = deriv(y + 0.5 * dt * k2)
    k4 = deriv(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


class _ClosedLoop:
    """The closed loop of a scenario over one flat state vector
    y = [x (n*dim) | xi (E*q) | w (E*q)].

    Every edge k with relative vector z_k = x_tail - x_head reads the
    consistent error e_k at its head and the biased e_k + mu_k at its tail,
    where mu_k = b.w_k.  The head moves along +e_k z_k; the tail moves along
    -r_k z_k, with r_k the biased reading itself (gradient mode) or that
    reading minus the estimate mu_hat_k = b.xi_k (estimator mode), which
    also drives the edge's unit: d(xi_k)/dt = Lambda xi_k + kappa r_k b.

    Gathering y at two precomputed flat index arrays yields the rows
    [x_head - x_tail ; z], so every push is a row times its weight (r for
    the tail rows, e for the head rows), and one bincount sums the pushes
    per agent.  xi and w are read as one (2, E, q) stack, so (mu_hat, mu)
    and both generator derivatives each take one matrix product.
    """

    def __init__(self, scenario):
        fw = scenario.framework_initial()
        g = fw.graph
        basis = scenario.basis()
        self.n, self.dim = g.n, fw.dim
        self.edge_count, self.q = g.edge_count, basis.state_size
        self.nx = self.n * self.dim
        self.ne = self.edge_count * self.q
        # flat slots of (agent, coordinate): tail rows read head - tail and
        # push onto the tail, head rows read tail - head and push onto the head
        coords = np.arange(self.dim)
        heads = g.heads[:, None] * self.dim + coords
        tails = g.tails[:, None] * self.dim + coords
        self.plus_at = np.concatenate([heads, tails])
        self.minus_at = np.concatenate([tails, heads])
        self.slots = self.minus_at.ravel()
        self.d_sq = np.tile(fw.target_distances ** 2, 2)  # one per gathered row
        self.b = basis.vector
        self.lam_t = np.ascontiguousarray(basis.dynamics_matrix.T)
        self.kappa = float(scenario.kappa)
        self.estimator = scenario.mode == "estimator"

    def pack(self, x, xi, w) -> np.ndarray:
        return np.concatenate([np.ravel(x), np.ravel(xi), np.ravel(w)])

    def split(self, y):
        """(x, xi, w) views into a flat state or derivative."""
        nx, ne = self.nx, self.ne
        return (
            y[:nx].reshape(self.n, self.dim),
            y[nx:nx + ne].reshape(self.edge_count, self.q),
            y[nx + ne:].reshape(self.edge_count, self.q),
        )

    def evaluate(self, y):
        """(dy, e, mu, mu_hat) at y: the derivative and the per-edge terms."""
        edges, nx = self.edge_count, self.nx
        rows = y[self.plus_at] - y[self.minus_at]
        # both halves of rows have the same squared lengths: the head half
        # keeps e, the tail half becomes each tail's weight r in place
        weights = np.einsum("kd,kd->k", rows, rows) - self.d_sq
        r, e = weights[:edges], weights[edges:]
        banks = y[nx:].reshape(2, edges, self.q)
        outputs = banks @ self.b
        mu_hat, mu = outputs[0], outputs[1]  # unpacking would iterate the array: slower
        r += mu
        if self.estimator:
            r -= mu_hat
        dy = np.empty_like(y)
        pushes = weights[:, None] * rows
        dy[:nx] = np.bincount(self.slots, weights=pushes.ravel(), minlength=nx)
        dbanks = dy[nx:].reshape(2, edges, self.q)
        np.matmul(banks, self.lam_t, out=dbanks)
        dxi = dbanks[0]
        if self.estimator:
            # kappa * r before b: folding kappa into b would round differently
            dxi += self.kappa * r[:, None] * self.b
        else:
            dxi[...] = 0.0
        return dy, e, mu, mu_hat

    def __call__(self, y) -> np.ndarray:
        return self.evaluate(y)[0]


def initial_state(scenario) -> SimState:
    """t = 0 state: scenario positions, configured (or zero) estimator bank,
    and the generator state reproducing the scenario's disturbance."""
    fw = scenario.framework_initial()
    w = exosystem_initial_state(scenario.disturbance, scenario.basis()).w
    return SimState(0.0, fw.positions, scenario.xi0_array(), w)


def closed_loop_derivative(state: SimState, scenario):
    """d/dt of (x, xi, w) at a state; rejects non-finite states."""
    x = np.asarray(state.x, dtype=float)
    xi = np.asarray(state.xi, dtype=float)
    w = np.asarray(state.w, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(xi).all() and np.isfinite(w).all()):
        raise ValueError("state contains non-finite values")
    loop = _ClosedLoop(scenario)
    if x.shape != (loop.n, loop.dim):
        raise ValueError(f"x must have shape {(loop.n, loop.dim)}")
    want = (loop.edge_count, loop.q)
    if xi.shape != want or w.shape != want:
        raise ValueError(f"xi and w must have shape {want}")
    return loop.split(loop(loop.pack(x, xi, w)))


def _step_count(scenario, values_per_sample: int) -> int:
    """Steps of a run, once its grid is known to end on a recorded sample
    at t_end and to stay under the step and recorded-value caps."""
    dt, t_end, every = float(scenario.dt), float(scenario.t_end), int(scenario.output_every)
    ratio = t_end / dt
    if not ratio <= MAX_STEPS:
        raise ScenarioError(f"t_end/dt is {ratio:.6g} steps, over the cap of {MAX_STEPS}")
    steps = round(ratio)
    if abs(steps * dt - t_end) > 1e-9 * t_end:
        raise ScenarioError(f"t_end {t_end!r} is not a whole number of dt {dt!r} steps")
    if steps % every:
        raise ScenarioError(
            f"{steps} steps is not a multiple of output_every {every}, "
            "so the final state would not be recorded"
        )
    values = (steps // every + 1) * values_per_sample
    if values > MAX_RECORDED_VALUES:
        raise ScenarioError(
            f"the run would record {values} values, over the cap of {MAX_RECORDED_VALUES}; "
            "raise output_every or shorten t_end"
        )
    return steps


def integrate(scenario) -> Trajectory:
    """Run the scenario from t = 0 to t_end, sampling every output_every steps.

    Warns when the scenario carries a target embedding that is not
    infinitesimally rigid; such runs are legal but cannot certify anything.
    Raises ScenarioError when the grid does not end on a recorded sample at
    t_end or the run would pass a cap.  Aborts with a partial trajectory
    when the divergence guard trips; its final_errors are then those of the
    last state that passed the guard.
    """
    if scenario.target_positions is not None:
        rigid, _ = is_infinitesimally_rigid(scenario.framework_target())
        if not rigid:
            warnings.warn(
                "target embedding is not infinitesimally rigid",
                RuntimeWarning,
                stacklevel=2,
            )
    loop = _ClosedLoop(scenario)
    n, dim, edges, q = loop.n, loop.dim, loop.edge_count, loop.q
    # per sample: t, positions, speeds, four edge columns, estimator gap
    steps = _step_count(scenario, 1 + n * dim + n + 4 * edges + edges * q)
    dt = float(scenario.dt)
    every = int(scenario.output_every)
    count = steps // every + 1
    positions = np.empty((count, n, dim))
    errors, mu, mu_hat, alpha = (np.empty((count, edges)) for _ in range(4))
    speeds = np.empty((count, n))
    gap = np.empty((count, edges, q))

    state0 = initial_state(scenario)
    y = loop.pack(state0.x, state0.xi, state0.w)
    divergence_step = None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            if step:
                y_next = _rk4_step(y, dt, loop, k1)
                if (not np.isfinite(y_next).all()
                        or float(np.linalg.norm(y_next[:loop.nx])) > DIVERGENCE_GUARD):
                    divergence_step = step
                    count = (step - 1) // every + 1
                    break
                y = y_next
            # the evaluation at y is the next step's k1 and, on a sampled
            # step, also the sample
            k1, e, mu_y, mu_hat_y = loop.evaluate(y)
            if step % every == 0:
                i = step // every
                x, xi, w = loop.split(y)
                positions[i] = x
                errors[i], mu[i], mu_hat[i] = e, mu_y, mu_hat_y
                alpha[i] = e + mu_y - mu_hat_y
                speeds[i] = np.linalg.norm(k1[:loop.nx].reshape(n, dim), axis=1)
                gap[i] = w - xi

    return Trajectory(
        np.arange(count) * every * dt, positions[:count], errors[:count], speeds[:count],
        mu[:count], mu_hat[:count], alpha[:count], gap[:count],
        divergence_step is not None, divergence_step, e,
    )


def _fit_exponential(times, norms):
    """Least-squares line through log||e|| over the decaying stretch.

    The window starts where ||e|| first drops below a tenth of its initial
    value and ends where it first reaches 1e-8 (or at the last sample).
    Returns (None, None) for trivial starts or windows under 10 points.
    """
    e0 = norms[0]
    if not np.isfinite(e0) or e0 <= 1e-8:
        return None, None
    started = np.nonzero(norms <= e0 / 10.0)[0]
    if started.size == 0:
        return None, None
    floored = np.nonzero(norms <= 1e-8)[0]
    i0 = int(started[0])
    i1 = int(floored[0]) if floored.size else norms.size - 1
    if i1 <= i0:
        return None, None
    t = times[i0:i1 + 1]
    y = norms[i0:i1 + 1]
    keep = y > 0.0
    if int(keep.sum()) < 10:
        return None, None
    t = t[keep]
    y = np.log(y[keep])
    design = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ coef
    total = y - y.mean()
    ss_tot = float(total @ total)
    if ss_tot == 0.0:
        return None, None
    r_sq = 1.0 - float(residual @ residual) / ss_tot
    return float(coef[0]), r_sq


def run_verdict(traj: Trajectory, window_fraction: float = 0.2, tol: float = 1e-6) -> RunVerdict:
    """Classify a finished run from its tail window (last window_fraction of
    the samples, which must hold at least 50 of them)."""
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window_fraction must lie in (0, 1]")
    count = traj.sample_count
    window = math.ceil(window_fraction * count)
    if window < 50:
        raise ValueError(
            f"analysis window holds {window} samples, need at least 50; "
            "run longer or sample more often"
        )
    err_norms = np.linalg.norm(traj.errors, axis=1)
    tail_err = err_norms[-window:]
    tail_speed = traj.speeds[-window:]
    converged = bool(tail_err.max() < tol and tail_speed.max() < tol)
    means = tail_speed.mean(axis=0)
    spreads = tail_speed.std(axis=0)
    orbit = bool((means > 10.0 * tol).all() and (spreads <= 1e-3 * means).all())
    steady = float(means.mean()) if orbit else None
    rate, r_sq = _fit_exponential(traj.times, err_norms)
    # a diverged run's last sample predates the last state that passed the guard
    final_error = np.linalg.norm(traj.final_errors) if traj.diverged else err_norms[-1]
    return RunVerdict(
        converged=converged,
        final_error=float(final_error),
        rate=rate,
        rate_r_squared=r_sq,
        steady_speed=steady,
        orbit_detected=orbit,
        diverged=traj.diverged,
    )


def propagate_exosystem(spec, basis, t_end, dt: float = 1e-3, output_every: int = 10):
    """Integrate the generator bank alone; returns (times, states (T, E, q)).

    Exists as the integration half of the closed-form/integration
    cross-check; the closed loop embeds the same dynamics.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    every = int(output_every)
    if every < 1:
        raise ValueError("output_every must be at least 1")
    lam_t = np.ascontiguousarray(basis.dynamics_matrix.T)

    def deriv(w):
        return w @ lam_t

    w = exosystem_initial_state(spec, basis).w
    steps = int(round(t_end / dt))
    times = [0.0]
    states = [w]
    for step in range(1, steps + 1):
        w = _rk4_step(w, dt, deriv, deriv(w))
        if step % every == 0:
            times.append(step * dt)
            states.append(w)
    return np.array(times), np.array(states)


def write_csv(traj: Trajectory, path) -> None:
    """One row per sample: t, positions (agent-major), errors, speeds, mu,
    mu_hat, alpha; 17 significant digits so values round-trip exactly."""
    t_count, n, m = traj.positions.shape
    e_count = traj.errors.shape[1]
    names = ["t"]
    names += [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, m + 1)]
    names += [f"e_{k}" for k in range(1, e_count + 1)]
    names += [f"speed_{i}" for i in range(1, n + 1)]
    names += [f"mu_{k}" for k in range(1, e_count + 1)]
    names += [f"muhat_{k}" for k in range(1, e_count + 1)]
    names += [f"alpha_{k}" for k in range(1, e_count + 1)]
    data = np.column_stack([
        traj.times,
        traj.positions.reshape(t_count, n * m),
        traj.errors,
        traj.speeds,
        traj.mu,
        traj.mu_hat,
        traj.alpha,
    ])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
