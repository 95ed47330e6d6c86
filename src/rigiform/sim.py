"""Fixed-step integration of the closed loop and run-level verdicts.

The closed-loop state is one flat float64 vector y = [x | xi | w]: agent
positions (n, dim), estimator bank (E, q) and signal generators (E, q),
each stored row-major, so xi and w also form one (2, E, q) stack.  It is
the only state layout: `integrate` packs y at t = 0 straight from the
scenario.  `_ClosedLoop` is the only implementation of the control law:
its `rates` writes the derivative into a given buffer and leaves the edge
columns a Trajectory records in its own work buffers.  Every buffer is
made once per run with the views read or written (in `integrate`: state,
next state, stage state and the four RK4 slopes), so a step is a fixed
sequence of ufuncs; what one holds lasts until the next evaluation, so
`integrate` copies e, mu and mu_hat when it records them and `evaluate`
returns fresh arrays.  On a sampled step `integrate` records from the
evaluation that also serves as the next step's k1, so every step costs
four evaluations.
A sample keeps only what a run reports (see Trajectory), and the
recorded-value cap counts exactly those values.
Integration is classical fourth-order Runge-Kutta with a constant step,
so a run is bitwise reproducible; adaptive stepping would trade that away
for speed this problem does not need.  The generator block is integrated
like everything else rather than sampled from its closed form; the closed
form stays available as a test oracle.

Scenarios are duck-typed: framework_initial / basis / xi0_array, the
disturbance spec, and the mode / kappa / dt / t_end / output_every fields.
Integration certifies nothing and never reads the target embedding;
`check` does the certifying.

`write_csv` prints every value exactly as '%.17g' does, with numpy array
operations on full blocks of values whatever the row width: the private
`_g17` module reads the 17 digits off a long double product, settles
their rounding with integers where the power of ten is exact, lays the
text out through lookup tables built on the first write, and hands every
other value, inf and nan among them, to Python's '%.17g'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disturbance import exosystem_initial_state
# unused here, is_infinitesimally_rigid stays importable: perfbench/tracing.py wraps it by name
from .rigidity import is_infinitesimally_rigid  # noqa: F401
from .scenario import ScenarioError, _output_every

# A run whose position norm passes this bound is declared divergent and
# aborted with the samples recorded so far.
DIVERGENCE_GUARD = 1e9
# Caps checked before a run allocates its samples: the step count bounds its
# time (a step costs about 45 us at n = 4 and 0.33 ms at 3-D n = 400 on one
# 2.1 GHz Xeon core) and the recorded values, float64 each, bound its memory.
MAX_STEPS = 10_000_000
MAX_RECORDED_VALUES = 50_000_000
VERDICT_WINDOW = 0.2  # run_verdict reads this last share of the samples
VERDICT_TOL = 1e-6  # errors and speeds below it there count as converged
_CSV_BLOCK_VALUES = 1 << 12  # values per _g17.text call but a file's last; 2048, 6144, 8192: slower


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled run record: per sample the time, the positions,
    the agent speeds and three edge columns, the errors e, the disturbance
    mu and its estimate mu_hat.  Nothing else is stored per sample: alpha,
    the compensated errors e + mu - mu_hat that the estimating agent
    effectively acts on, is derived when read.  A diverged run keeps the
    samples recorded before the guard tripped, and divergence_step is the
    step at which it tripped, None for a run that reached t_end; diverged
    reads it.  final_errors holds the edge errors of the last state that
    passed the guard: the last sample's (the default) unless the run
    diverged, when it is the state one step before divergence_step.
    divergence_reason says what tripped the guard: the non-finite blocks of
    the state, or the position norm.
    """

    times: np.ndarray
    positions: np.ndarray
    errors: np.ndarray
    speeds: np.ndarray
    mu: np.ndarray
    mu_hat: np.ndarray
    divergence_step: int | None = None
    final_errors: np.ndarray | None = None
    divergence_reason: str | None = None

    def __post_init__(self):
        times = _frozen(self.times)
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
                           ("mu", 2), ("mu_hat", 2)):
            a = _frozen(getattr(self, name))
            if a.ndim != ndim or a.shape[0] != t_count:
                raise ValueError(f"{name} must have {ndim} axes with one row per sample")
            arrays[name] = a
        last = arrays["errors"][-1] if self.final_errors is None else self.final_errors
        final_errors = _frozen(last)
        if final_errors.shape != arrays["errors"].shape[1:]:
            raise ValueError("final_errors must hold one error per edge")
        arrays["final_errors"] = final_errors
        object.__setattr__(self, "times", times)
        for name, a in arrays.items():
            object.__setattr__(self, name, a)

    @property
    def diverged(self) -> bool:
        return self.divergence_step is not None

    @property
    def alpha(self) -> np.ndarray:
        return self.errors + self.mu - self.mu_hat

    @property
    def sample_count(self) -> int:
        return self.times.size


def _frozen(values) -> np.ndarray:
    """values as a read-only float64 array: the array itself when neither
    it nor the array owning its memory can be written, else a copy."""
    if type(values) is np.ndarray and values.dtype == np.float64 and not values.flags.writeable:
        owner = values if values.base is None else values.base
        if type(owner) is np.ndarray and not owner.flags.writeable:
            return values
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RunVerdict:
    """End-of-run classification.

    converged: errors and speeds both below VERDICT_TOL over the window.
    orbit_detected: every agent holds a nonzero speed with coefficient of
    variation below 1e-3 over the window (the steady collective motion a
    persistent uncompensated disturbance produces); steady_speed is then
    the common speed.  rate and rate_r_squared describe a least-squares
    line through log||e|| over the decaying stretch, absent when the run
    starts trivially or never decays; rate_null_reason then names the
    reason, one fixed string per exit of the fit, and is None when rate is
    set.
    """

    converged: bool
    final_error: float
    rate: float | None
    rate_r_squared: float | None
    steady_speed: float | None
    orbit_detected: bool
    diverged: bool
    rate_null_reason: str | None = None

    def __post_init__(self):
        if self.orbit_detected and not (self.steady_speed and self.steady_speed > 0):
            raise ValueError("an orbit verdict needs a positive steady speed")


class _ClosedLoop:
    """The closed loop of a scenario over one flat state vector
    y = [x (n*dim) | xi (E*q) | w (E*q)].

    Every edge k with relative vector z_k = x_tail - x_head reads the
    consistent error e_k at its head and the biased e_k + mu_k at its tail,
    where mu_k = b.w_k.  The head moves along +e_k z_k; the tail moves along
    -r_k z_k, with r_k the biased reading itself (gradient mode) or that
    reading minus the estimate mu_hat_k = b.xi_k (estimator mode), which
    also drives the edge's unit: d(xi_k)/dt = Lambda xi_k + kappa r_k b.

    The edge rows [x_head - x_tail | z] come coordinate-major, (dim, 2|E|),
    so each push (a row times r for the tail rows, e for the head rows) runs
    along a contiguous axis; one bincount sums them per agent in edge order.
    Lambda, one nonzero per row, acts on the banks as a signed permutation;
    b.xi_k and b.w_k stay a matrix product: no elementwise sum rounds alike.
    """

    def __init__(self, scenario):
        fw, basis = scenario.framework_initial(), scenario.basis()
        g = fw.graph
        self.n, self.dim, self.edge_count, self.q = g.n, fw.dim, g.edge_count, basis.state_size
        self.nx, self.ne = self.n * self.dim, self.edge_count * self.q
        # flat slots of (coordinate, row): tail rows read head - tail and
        # push onto the tail, head rows read tail - head and push onto the head
        heads, tails = (v * self.dim + np.arange(self.dim)[:, None] for v in (g.heads, g.tails))
        # C-ordered (an F-ordered index array gathers several times slower)
        self.ends = np.stack([np.concatenate(p, axis=1) for p in ((heads, tails), (tails, heads))])
        self.slots = self.ends[1].ravel()
        self.d_sq = np.tile(fw.target_distances ** 2, 2)  # one per gathered row
        self.b, self.estimator = basis.vector, scenario.mode == "estimator"
        # Lambda's nonzero per row as (column, value) for each slot of both
        # banks; gradient mode's xi values are 0.0, so d(xi)/dt is +0
        lam = basis.dynamics_matrix
        column = (lam != 0).argmax(axis=1)  # a zero row reads column 0 times 0.0
        self.bank_from = (np.arange(self.nx, self.nx + 2 * self.ne, self.q)[:, None] + column).ravel()
        value = np.tile(lam[np.arange(self.q), column], self.edge_count)
        self.bank_coef = np.concatenate((value * self.estimator, value))
        self.edge_of = np.repeat(np.arange(self.edge_count), self.q)
        self.b_tiled = np.tile(self.b, self.edge_count)
        # operands as whole vectors: a ufunc broadcasting a scalar runs slower
        self.kappa, self.zero = np.full(g.edge_count, float(scenario.kappa)), np.zeros(2 * self.ne)
        # the work buffers of one evaluation and their views
        self.gathered, self.outputs = np.empty(self.ends.shape), np.empty((2, g.edge_count))
        self.mu_hat, self.mu = self.outputs
        self.rows, self.sq = np.empty((2, self.dim, 2 * g.edge_count))
        self.rows_flat, self.weights = self.rows.ravel(), self.sq[0]  # weights: in place
        self.r, self.e = np.split(self.weights, 2)
        self.kappa_r, self.pushed = np.empty(g.edge_count), np.empty(self.ne)

    def views(self, a):
        """The flat state or derivative a, its x, banks and xi parts, and
        its banks as a (2, E, q) stack: the views `rates` takes."""
        nx = self.nx
        return a, a[:nx], a[nx:], a[nx:nx + self.ne], a[nx:].reshape(2, self.edge_count, self.q)

    def rates(self, state, out):
        """Write the derivative at the state into out, both as `views`
        gives them, and leave e, mu and mu_hat at the state in the loop's
        buffers."""
        y, banks = state[0], state[4]
        _, dx, dbanks, dxi, _ = out
        ends, rows, sq, weights, r = self.gathered, self.rows, self.sq, self.weights, self.r
        y.take(self.ends, out=ends, mode="clip")  # mode="raise" would copy through a temporary
        np.subtract(ends[0], ends[1], rows)
        # squared lengths, summed as einsum sums them, less d^2: r and e in place
        np.multiply(rows, rows, sq)
        if self.dim == 3:
            np.add(weights, sq[2], weights)
        np.add(weights, sq[1], weights)
        np.subtract(weights, self.d_sq, weights)
        np.matmul(banks, self.b, self.outputs)
        np.add(r, self.mu, r)
        y.take(self.bank_from, out=dbanks, mode="clip")
        np.multiply(dbanks, self.bank_coef, dbanks)
        np.add(dbanks, self.zero, dbanks)  # a -0 product reads +0, as in a matrix product's sum
        if self.estimator:
            np.subtract(r, self.mu_hat, r)
            # kappa * r before b: folding kappa into b would round differently
            np.multiply(self.kappa, r, self.kappa_r)
            self.kappa_r.take(self.edge_of, out=self.pushed, mode="clip")
            np.multiply(self.pushed, self.b_tiled, self.pushed)
            np.add(dxi, self.pushed, dxi)
        np.multiply(rows, weights, rows)
        dx[...] = np.bincount(self.slots, weights=self.rows_flat, minlength=self.nx)

    def evaluate(self, y):
        """(dy, e, mu, mu_hat) at y as fresh arrays: the derivative and the per-edge terms."""
        dy = np.empty(y.shape)
        self.rates(self.views(y), self.views(dy))
        return dy, self.e.copy(), self.mu.copy(), self.mu_hat.copy()

    def guard_reason(self, y) -> str:
        """What trips the divergence guard at y: non-finite blocks first."""
        nx, ne = self.nx, self.ne
        blocks = y[:nx], y[nx:nx + ne], y[nx + ne:]
        bad = [k for k, b in zip(("x", "xi", "w"), blocks) if not np.isfinite(b).all()]
        if bad:
            return f"non-finite {', '.join(bad)}"
        return f"position norm {np.linalg.norm(y[:nx]):.6g} > guard {DIVERGENCE_GUARD:g}"


def _step_count(dt: float, t_end: float, every: int, values_per_sample: int) -> int:
    """Steps of a fixed-step run from 0 to t_end that records every
    `every`-th state, once its grid is known to end on a recorded sample at
    t_end and to stay under the step and recorded-value caps."""
    ratio = t_end / dt
    if not ratio <= MAX_STEPS:
        raise ScenarioError(f"t_end/dt is {ratio:.6g} steps, over the cap of {MAX_STEPS}")
    steps = round(ratio)
    if not abs(steps * dt - t_end) <= 1e-9 * t_end:  # a NaN fails it too
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

    Raises ScenarioError when the grid does not end on a recorded sample at
    t_end or the run would pass a cap.  Aborts with a partial trajectory
    when the divergence guard trips; its final_errors are then those of the
    last state that passed the guard.
    """
    loop = _ClosedLoop(scenario)
    n, dim, edges = loop.n, loop.dim, loop.edge_count
    dt, every = float(scenario.dt), int(scenario.output_every)
    # per sample: t, positions, speeds and three edge columns
    steps = _step_count(dt, float(scenario.t_end), every, 1 + n * dim + n + 3 * edges)
    count = steps // every + 1
    positions = np.empty((count, n, dim))
    errors, mu, mu_hat = (np.empty((count, edges)) for _ in range(3))
    speeds = np.empty((count, n))

    size = loop.nx + 2 * loop.ne
    y, y_next, stage, k1, k2, k3, k4 = (loop.views(np.empty(size)) for _ in range(7))
    w0 = exosystem_initial_state(scenario.disturbance, scenario.basis()).w
    np.concatenate([scenario.framework_initial().positions.ravel(),
                    scenario.xi0_array().ravel(), w0.ravel()], out=y[0])
    # dy/dt = rates(y) by classical RK4: k2 at y + (0.5 dt) k1, k3 at
    # y + (0.5 dt) k2, k4 at y + dt k3, y_next = y + (dt/6)(k1 + 2 (k2 + k3) + k4)
    half, full, sixth, nothing = (np.full(size, c) for c in (0.5 * dt, dt, dt / 6.0, 0.0))
    stages = ((k1, k2, half), (k2, k3, half), (k3, k4, full))
    flat_positions, k1_agents = positions.reshape(count, -1), k1[1].reshape(n, dim)
    divergence_step = reason = final_errors = None
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            if step:
                for k, k_next, h in stages:
                    np.multiply(h, k[0], stage[0])
                    np.add(y[0], stage[0], stage[0])
                    loop.rates(stage, k_next)
                total = np.add(k2[0], k3[0], k2[0])
                np.add(total, total, total)  # x + x is 2.0 * x exactly
                np.add(k1[0], total, total)
                np.add(total, k4[0], total)
                np.multiply(sixth, total, total)
                np.add(y[0], total, y_next[0])
                # 0 * y is nan just where y is not finite; sqrt(x.x) is what np.linalg.norm computes
                if (not math.isfinite(y_next[0].dot(nothing))
                        or math.sqrt(y_next[1].dot(y_next[1])) > DIVERGENCE_GUARD):
                    divergence_step, reason = step, loop.guard_reason(y_next[0])
                    # the buffers hold the last stage's terms: evaluate the last good state again
                    final_errors = loop.evaluate(y[0])[1]
                    count = (step - 1) // every + 1
                    break
                y, y_next = y_next, y
            # the evaluation at y is the next step's k1 and a sampled step's sample
            loop.rates(y, k1)
            if step % every == 0:
                i = step // every
                flat_positions[i] = y[1]
                errors[i], mu[i], mu_hat[i] = loop.e, loop.mu, loop.mu_hat
                speeds[i] = np.linalg.norm(k1_agents, axis=1)

    for buffer in (positions, errors, speeds, mu, mu_hat):
        buffer.setflags(write=False)  # the Trajectory keeps them without a copy
    return Trajectory(
        np.arange(count) * every * dt, positions[:count], errors[:count], speeds[:count],
        mu[:count], mu_hat[:count], divergence_step, final_errors, reason,
    )


def _fit_exponential(times, norms):
    """Least-squares line through log||e|| over the decaying stretch.

    The window starts where ||e|| first drops below a tenth of its initial
    value and ends where it first reaches 1e-8 (or at the last sample).
    Returns (rate, r_squared, None), or (None, None, reason) where reason
    names the exit that left no fit.
    """
    e0 = norms[0]
    if not np.isfinite(e0) or e0 <= 1e-8:
        return None, None, "error norm starts non-finite or at most 1e-8"
    started = np.nonzero(norms <= e0 / 10.0)[0]
    if started.size == 0:
        return None, None, "error norm never falls to a tenth of its start"
    floored = np.nonzero(norms <= 1e-8)[0]
    i0 = int(started[0])
    i1 = int(floored[0]) if floored.size else norms.size - 1
    if i1 <= i0:
        return None, None, "decay window is empty: error norm reaches 1e-8 no later than " \
                           "a tenth of its start"
    t = times[i0:i1 + 1]
    y = norms[i0:i1 + 1]
    keep = y > 0.0
    if int(keep.sum()) < 10:
        return None, None, "decay window holds fewer than 10 positive error norms"
    t = t[keep]
    y = np.log(y[keep])
    design = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ coef
    total = y - y.mean()
    ss_tot = float(total @ total)
    if ss_tot == 0.0:
        return None, None, "log error norm is flat over the decay window"
    r_sq = 1.0 - float(residual @ residual) / ss_tot
    return float(coef[0]), r_sq, None


def run_verdict(traj: Trajectory) -> RunVerdict:
    """Classify a finished run from its tail window (last VERDICT_WINDOW of
    the samples, which must hold at least 50 of them)."""
    window = math.ceil(VERDICT_WINDOW * traj.sample_count)
    if window < 50:
        raise ValueError(
            f"analysis window holds {window} samples, need at least 50; "
            "run longer or sample more often"
        )
    err_norms = np.linalg.norm(traj.errors, axis=1)
    tail_err = err_norms[-window:]
    tail_speed = traj.speeds[-window:]
    converged = bool(tail_err.max() < VERDICT_TOL and tail_speed.max() < VERDICT_TOL)
    means = tail_speed.mean(axis=0)
    spreads = tail_speed.std(axis=0)
    orbit = bool((means > 10.0 * VERDICT_TOL).all() and (spreads <= 1e-3 * means).all())
    steady = float(means.mean()) if orbit else None
    rate, r_sq, rate_null_reason = _fit_exponential(traj.times, err_norms)
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
        rate_null_reason=rate_null_reason,
    )


def propagate_exosystem(spec, basis, t_end, dt: float = 1e-3, output_every: int = 10):
    """Integrate the generator bank alone; returns (times, states (T, E, q)).

    Exists as the integration half of the closed-form/integration
    cross-check; the closed loop embeds the same dynamics.  The grid follows
    integrate's rule: it must end on a recorded sample at t_end.
    """
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ValueError("dt and t_end must be positive and finite")
    every = _output_every(output_every)
    if every < 1:
        raise ValueError("output_every must be at least 1")
    lam_t = np.ascontiguousarray(basis.dynamics_matrix.T)
    w = exosystem_initial_state(spec, basis).w
    steps = _step_count(float(dt), float(t_end), every, 1 + w.size)
    states = np.empty((steps // every + 1, *w.shape))
    states[0] = w
    for step in range(1, steps + 1):  # classical RK4 of dw/dt = w Lambda^T
        k1 = w @ lam_t
        k2 = (w + 0.5 * dt * k1) @ lam_t
        k3 = (w + 0.5 * dt * k2) @ lam_t
        w = w + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + (w + dt * k3) @ lam_t)
        if step % every == 0:
            states[step // every] = w
    return np.arange(0, steps + 1, every) * dt, states


def write_csv(traj: Trajectory, path) -> None:
    """One row per sample: t, positions (agent-major), errors, speeds, mu,
    mu_hat, alpha; each value printed as '%.17g' prints it, so values
    round-trip exactly.  Rows are gathered a few at a time behind the
    values the last full block left over, and _g17.text formats full
    blocks, so the whole run is never staged as one table."""
    t_count, n, m = traj.positions.shape
    e_count = traj.errors.shape[1]
    names = ["t", *(f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, m + 1))]
    for name, count in (("e", e_count), ("speed", n), ("mu", e_count), ("muhat", e_count),
                        ("alpha", e_count)):
        names += [f"{name}_{k}" for k in range(1, count + 1)]
    # imported here: an interpreter that writes no CSV never loads or compiles it
    from . import _g17

    columns, block = len(names), _CSV_BLOCK_VALUES
    step = -(-block // columns)  # rows gathered at a time: a block's values or more
    parts = (traj.times[:, None], traj.positions.reshape(t_count, n * m), traj.errors,
             traj.speeds, traj.mu, traj.mu_hat)
    buffer = np.empty(block + step * columns)
    kept = done = 0  # values in buffer that no block took, values written
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for start in range(0, t_count, step):
            rows = slice(start, start + step)
            alpha = traj.errors[rows] + traj.mu[rows] - traj.mu_hat[rows]
            end = kept + alpha.shape[0] * columns
            np.concatenate([a[rows] for a in parts] + [alpha], axis=1,
                           out=buffer[kept:end].reshape(-1, columns))
            full = end if start + step >= t_count else end - end % block
            for first in range(0, full, block):
                fh.write(_g17.text(buffer[first:min(first + block, full)], columns, done + first))
            kept, done = end - full, done + full
            buffer[:kept] = buffer[full:end]
