"""Fixed-step integration of the closed loop and run-level verdicts.

The closed-loop state is one flat float64 vector y = [x | xi | w]: agent
positions (n, dim), estimator bank (E, q) and signal generators (E, q),
each stored row-major, so xi and w also form one (2|E|, q) matrix.
`_ClosedLoop` is the only implementation of the control law: its `rates`
writes the derivative into a given buffer and leaves the recorded edge
columns in its work buffers.  `_rk4` is the one RK4 loop, on buffers made
once per run, and `_sample` the one guard and sampling around it: a
sampled step records from the evaluation that also serves as the next
step's k1, so every step costs four evaluations.  Integration is
classical RK4 with a constant step, so a run is bitwise reproducible; the
generator block is integrated too, its closed form kept as a test oracle.

`integrate` samples into whole-run arrays and returns a Trajectory.
`stream_run`, what the `run` command calls, samples into a chunk of CSV
rows that is written once full, and keeps per sample only what
run_verdict reads, so its memory does not grow with the width of a row.
A run whose rows pass one chunk hands them, half a chunk at a time, to a
writer process (the private `_writer` module) that formats and writes
them while the loop integrates on, and formats the share of each half
chunk that evens out the two processes' work itself.  Both write the bytes
`write_csv` writes: every value exactly as '%.17g' prints it, formatted
by the private `_g17` module in full blocks.

Scenarios are duck-typed: framework_initial / basis / xi0_array, the
disturbance spec, and the mode / kappa / dt / t_end / output_every fields.
Integration certifies nothing and never reads the target embedding;
`check` does the certifying.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .disturbance import exosystem_initial_state
# unused here, is_infinitesimally_rigid stays importable: perfbench/tracing.py wraps it by name
from .rigidity import is_infinitesimally_rigid  # noqa: F401
from .scenario import ScenarioError, _output_every

# A run whose position norm passes this bound is declared divergent and
# aborted with the samples recorded so far.
DIVERGENCE_GUARD = 1e9
# Caps checked before a run allocates its samples: the step count bounds its
# time (a step costs about 39 us at n = 4 and 0.33 ms at 3-D n = 400 on one
# 2.1 GHz Xeon core) and the recorded values, float64 each, bound its memory.
MAX_STEPS = 10_000_000
MAX_RECORDED_VALUES = 50_000_000
VERDICT_WINDOW = 0.2  # run_verdict reads this last share of the samples
VERDICT_TOL = 1e-6  # errors and speeds below it there count as converged
_CSV_BLOCK_VALUES = 1 << 12  # values per _g17.text call but a file's last; 2048, 6144, 8192: slower
# most values stream_run gathers before formatting: formatting interleaved with
# the kernel evicts its data, so runs formatting every 4096 values took 9-14% longer
# and those formatting every 2**16 values 1-3% longer (2-D n=200, 3-D n=400); a
# writer process takes them in _WRITER_SLOTS tables of a share each
_CSV_CHUNK_VALUES = 1 << 17
_WRITER_SLOTS = 2


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

    @property
    def error_norms(self) -> np.ndarray:
        return np.linalg.norm(self.errors, axis=1)


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
    b.xi_k and b.w_k stay a matrix product, one gemv of the (2|E|, q) banks
    by b: no elementwise sum rounds alike.
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
        ends = np.stack([np.concatenate(p, axis=1) for p in ((heads, tails), (tails, heads))])
        self.slots = ends[1].ravel()
        self.d_sq = np.tile(fw.target_distances ** 2, 2)  # one per gathered row
        self.b, self.estimator = basis.vector, scenario.mode == "estimator"
        # Lambda's nonzero per row as (column, value) for each slot of both
        # banks; gradient mode's xi values are 0.0, so d(xi)/dt is +0
        lam = basis.dynamics_matrix
        column = (lam != 0).argmax(axis=1)  # a zero row reads column 0 times 0.0
        bank_from = (np.arange(self.nx, self.nx + 2 * self.ne, self.q)[:, None] + column).ravel()
        value = np.tile(lam[np.arange(self.q), column], self.edge_count)
        self.bank_coef = np.concatenate((value * self.estimator, value))
        self.edge_of = np.repeat(np.arange(self.edge_count), self.q)
        self.b_tiled = np.tile(self.b, self.edge_count)
        # operands as whole vectors: a ufunc broadcasting a scalar runs slower
        self.kappa, self.zero = np.full(g.edge_count, float(scenario.kappa)), np.zeros(2 * self.ne)
        # the work buffers of one evaluation and every view `rates` reads;
        # one gather brings both edge ends and each bank slot's Lambda source
        self.take_from = np.concatenate((ends.ravel(), bank_from))
        self.gathered = np.empty(self.take_from.size)
        self.plus, self.minus = self.gathered[:ends.size].reshape(ends.shape)
        self.bank_sources = self.gathered[ends.size:]
        self.outputs = np.empty(2 * g.edge_count)
        self.mu_hat, self.mu = np.split(self.outputs, 2)
        self.rows, self.sq = np.empty((2, self.dim, 2 * g.edge_count))
        self.rows_flat, self.weights = self.rows.ravel(), self.sq[0]  # weights: in place
        self.sq_rest = tuple(self.sq[:0:-1])  # the rows added onto weights, last first
        self.weight_copies = self.sq[1:]  # weights again: a same-shape push is faster
        self.r, self.e = np.split(self.weights, 2)
        self.kappa_r, self.pushed = np.empty(g.edge_count), np.empty(self.ne)

    def views(self, a):
        """The flat state or derivative a, its x, banks and xi parts, and
        its banks as one (2|E|, q) matrix, xi's rows over w's, that a
        single gemv by b turns into mu_hat and mu: the views `rates` takes."""
        nx = self.nx
        return a, a[:nx], a[nx:], a[nx:nx + self.ne], a[nx:].reshape(2 * self.edge_count, self.q)

    def rates(self, state, out):
        """Write the derivative at the state into out, both as `views`
        gives them, and leave e, mu and mu_hat at the state in the loop's
        buffers."""
        y, banks = state[0], state[4]
        _, dx, dbanks, dxi, _ = out
        rows, sq, weights, r = self.rows, self.sq, self.weights, self.r
        y.take(self.take_from, out=self.gathered, mode="clip")  # "raise" copies via a temporary
        np.subtract(self.plus, self.minus, rows)
        # squared lengths, summed as einsum sums them, less d^2: r and e in place
        np.multiply(rows, rows, sq)
        for row in self.sq_rest:
            np.add(weights, row, weights)
        np.subtract(weights, self.d_sq, weights)
        np.dot(banks, self.b, self.outputs)
        np.add(r, self.mu, r)
        np.multiply(self.bank_sources, self.bank_coef, dbanks)
        np.add(dbanks, self.zero, dbanks)  # a -0 product reads +0, as in a matrix product's sum
        if self.estimator:
            np.subtract(r, self.mu_hat, r)
            # kappa * r before b: folding kappa into b would round differently
            np.multiply(self.kappa, r, self.kappa_r)
            self.kappa_r.take(self.edge_of, out=self.pushed, mode="clip")
            np.multiply(self.pushed, self.b_tiled, self.pushed)
            np.add(dxi, self.pushed, dxi)
        np.copyto(self.weight_copies, weights)
        np.multiply(rows, sq, rows)
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


def _rk4(rates, views, y0, dt, steps):
    """Classical RK4 of dy/dt = rates(y) from y0 with the constant step dt,
    where rates(state, out) writes the derivative into out, both as `views`
    gives them.  Yields (step, y, y_before, k1 = rates(y)) for step 0 ...
    steps, y_before unset at step 0, on buffers made once per run."""
    y, y_next, stage, k1, k2, k3, k4 = (views(np.empty(y0.size)) for _ in range(7))
    y[0][...] = y0
    half, full, sixth = (np.full(y0.size, c) for c in (0.5 * dt, dt, dt / 6.0))
    stages = ((k1, k2, half), (k2, k3, half), (k3, k4, full))
    for step in range(steps + 1):
        if step:
            for k, k_next, h in stages:
                np.multiply(h, k[0], stage[0])
                np.add(y[0], stage[0], stage[0])
                rates(stage, k_next)
            total = np.add(k2[0], k3[0], k2[0])
            np.add(total, total, total)  # x + x is 2.0 * x exactly
            np.add(k1[0], total, total)
            np.add(total, k4[0], total)
            np.multiply(sixth, total, total)
            np.add(y[0], total, y_next[0])
            y, y_next = y_next, y
        rates(y, k1)
        yield step, y, y_next, k1


def _prepare(scenario):
    """(closed loop, dt, output_every, steps, y0) of a run whose grid and caps pass."""
    loop = _ClosedLoop(scenario)
    dt, every = float(scenario.dt), int(scenario.output_every)
    values = 1 + loop.nx + loop.n + 3 * loop.edge_count  # t, positions, speeds, 3 edge columns
    steps = _step_count(dt, float(scenario.t_end), every, values)
    y0 = np.concatenate([scenario.framework_initial().positions.ravel(), scenario.xi0_array().ravel(),
                         exosystem_initial_state(scenario.disturbance, scenario.basis()).w.ravel()])
    return loop, dt, every, steps, y0


def _sample(loop, dt, every, steps, y0, table, flush):
    """The one guarded, sampled RK4 loop.  Sample i goes into row i % rows
    of table = (times, flat positions, errors, speeds, mu, mu_hat), and
    flush(rows filled) runs when the rows are full and after the last
    sample; it returns the table the next rows go into.  Returns the
    sample count, divergence_step, final_errors and divergence_reason, the
    last three as Trajectory holds them."""
    times, positions, errors, speeds, mu, mu_hat = table
    rows, count, n, dim = times.size, 0, loop.n, loop.dim
    squares, nothing = np.empty((n, dim)), np.zeros(y0.size)
    divergence_step = reason = final_errors = None
    with np.errstate(over="ignore", invalid="ignore"):
        for step, y, y_before, k1 in _rk4(loop.rates, loop.views, y0, dt, steps):
            # 0 * y is nan just where y is not finite; sqrt(x.x) is what np.linalg.norm computes
            if step and (not math.isfinite(y[0].dot(nothing))
                         or math.sqrt(y[1].dot(y[1])) > DIVERGENCE_GUARD):
                divergence_step, reason = step, loop.guard_reason(y[0])
                # the buffers hold the rejected state's terms: evaluate the last good state again
                final_errors = loop.evaluate(y_before[0])[1]
                break
            if step % every == 0:
                j = count % rows
                times[j], positions[j] = step * dt, y[1]  # as np.arange(count) * every * dt
                errors[j], mu[j], mu_hat[j] = loop.e, loop.mu, loop.mu_hat
                # the ufuncs np.linalg.norm(velocities, axis=1) runs, without its argument handling
                velocities, speed = k1[1].reshape(n, dim), speeds[j]
                np.multiply(velocities, velocities, squares)
                np.sqrt(np.add.reduce(squares, axis=1, out=speed), speed)
                count += 1
                if j == rows - 1:
                    times, positions, errors, speeds, mu, mu_hat = flush(rows)
    if count % rows:
        flush(count % rows)
    return count, divergence_step, final_errors, reason


def integrate(scenario) -> Trajectory:
    """Run the scenario from t = 0 to t_end, sampling every output_every steps.

    Raises ScenarioError when the grid does not end on a recorded sample at
    t_end or the run would pass a cap.  Aborts with a partial trajectory
    when the divergence guard trips; its final_errors are then those of the
    last state that passed the guard.
    """
    loop, dt, every, steps, y0 = _prepare(scenario)
    count, n, edges = steps // every + 1, loop.n, loop.edge_count
    arrays = [np.empty((count, *shape)) for shape in ((), (n, loop.dim), (edges,), (n,),
                                                     (edges,), (edges,))]
    table = arrays[0], arrays[1].reshape(count, -1), *arrays[2:]
    count, *ending = _sample(loop, dt, every, steps, y0, table, lambda rows: table)
    for buffer in arrays:
        buffer.setflags(write=False)  # the Trajectory keeps them without a copy
    return Trajectory(*(a[:count] for a in arrays), *ending)


@dataclass(frozen=True, eq=False)
class StreamedRun:
    """What `stream_run` keeps of a run: per sample the time, error norm and
    agent speeds that run_verdict reads, the last sample's mu and mu_hat,
    how the run ended as Trajectory says it, and the seconds the run spent
    on trajectory.csv: formatting it, or, with a writer process, starting
    it, handing it rows and waiting for it."""

    times: np.ndarray
    error_norms: np.ndarray
    speeds: np.ndarray
    last_mu: np.ndarray
    last_mu_hat: np.ndarray
    divergence_step: int | None
    final_errors: np.ndarray
    divergence_reason: str | None
    write_seconds: float

    diverged, sample_count = Trajectory.diverged, Trajectory.sample_count


def stream_run(scenario, path) -> StreamedRun:
    """integrate(scenario) written to path as write_csv writes it, a chunk
    of rows at a time, without keeping the rows.  A run whose rows pass
    one chunk, where os.fork exists, hands them half a chunk at a time to
    a writer process that formats them while the loop integrates on, and
    formats itself the share of each that evens out the two processes' work.
    Raises as integrate does, before path is opened."""
    loop, dt, every, steps, y0 = _prepare(scenario)
    count, done, filled = steps // every + 1, 0, None
    norms, speeds = np.empty(count), np.empty((count, loop.n))
    shape = loop.n, loop.dim, loop.edge_count, _CSV_CHUNK_VALUES, count
    columns = 1 + loop.nx + loop.n + 4 * loop.edge_count  # alpha's too
    forked = count * columns > _CSV_CHUNK_VALUES and hasattr(os, "fork")

    def flush(rows):
        nonlocal done, filled
        filled = writer.table
        norms[done:done + rows] = np.linalg.norm(filled[2][:rows], axis=1)
        speeds[done:done + rows] = filled[3][:rows]
        done += rows
        writer.flush(rows)
        return writer.table

    with open(path, "wb") as file:
        if forked:
            # imported here, as _g17 is: a run that fits one chunk never compiles it
            from . import _writer

            writer = _writer.Writer(_CsvChunks(file, *shape, _WRITER_SLOTS, _writer.shared))
        else:
            writer = _CsvChunks(file, *shape)
        with writer:
            count, step, final_errors, reason = _sample(loop, dt, every, steps, y0, writer.table,
                                                        flush)
            writer.flush(0, last=True)
    last = (count - 1) % filled[0].size
    errors, _, mu, mu_hat = (column[last].copy() for column in filled[2:])
    return StreamedRun(np.arange(count) * every * dt, norms[:count], speeds[:count], mu, mu_hat,
                       step, errors if final_errors is None else final_errors, reason,
                       writer.seconds)


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


def run_verdict(run) -> RunVerdict:
    """Classify a finished run, a Trajectory or a StreamedRun, from its tail
    window (last VERDICT_WINDOW of the samples, which must hold at least 50
    of them): its times, error norms, speeds, final errors and divergence."""
    window = math.ceil(VERDICT_WINDOW * run.sample_count)
    if window < 50:
        raise ValueError(
            f"analysis window holds {window} samples, need at least 50; "
            "run longer or sample more often"
        )
    err_norms = run.error_norms
    tail_err = err_norms[-window:]
    tail_speed = run.speeds[-window:]
    converged = bool(tail_err.max() < VERDICT_TOL and tail_speed.max() < VERDICT_TOL)
    means = tail_speed.mean(axis=0)
    spreads = tail_speed.std(axis=0)
    orbit = bool((means > 10.0 * VERDICT_TOL).all() and (spreads <= 1e-3 * means).all())
    steady = float(means.mean()) if orbit else None
    rate, r_sq, rate_null_reason = _fit_exponential(run.times, err_norms)
    # a diverged run's last sample predates the last state that passed the guard
    final_error = np.linalg.norm(run.final_errors) if run.diverged else err_norms[-1]
    return RunVerdict(
        converged=converged,
        final_error=float(final_error),
        rate=rate,
        rate_r_squared=r_sq,
        steady_speed=steady,
        orbit_detected=orbit,
        diverged=run.diverged,
        rate_null_reason=rate_null_reason,
    )


def propagate_exosystem(spec, basis, t_end, dt: float = 1e-3, output_every: int = 10):
    """Integrate the generator bank alone; returns (times, states (T, E, q)).

    Exists as the integration half of the closed-form/integration
    cross-check; it steps dw/dt = w Lambda^T through `_rk4`, the loop every
    run steps, so the check covers that loop.  The grid follows integrate's
    rule: it must end on a recorded sample at t_end.
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
    for step, y, _, _ in _rk4(lambda state, out: np.matmul(state[1], lam_t, out[1]),
                              lambda a: (a, a.reshape(w.shape)), w.ravel(), float(dt), steps):
        if step % every == 0:
            states[step // every] = y[1]
    return np.arange(0, steps + 1, every) * dt, states


class _CsvChunks:
    """The trajectory.csv writer.  Its buffer holds `slots` tables of rows =
    (times, flat positions, errors, speeds, mu, mu_hat), each of at most
    values / slots values but one row at least and never more than the
    run's `count`, and each behind a block of values; `allocate(shape)`
    makes it.  Callers fill the rows of `table` and flush them, which moves
    `table` to the next slot; it adds alpha and formats full blocks of
    values, which may start anywhere in a row, keeping what no full block
    took in front of the next slot's rows.  seconds is the time spent in it."""

    def __init__(self, file, n, dim, edges, values, count, slots=1, allocate=np.empty):
        start = perf_counter()
        names = ["t", *(f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, dim + 1))]
        for name, size in (("e", edges), ("speed", n), ("mu", edges), ("muhat", edges),
                           ("alpha", edges)):
            names += [f"{name}_{k}" for k in range(1, size + 1)]
        file.write((",".join(names) + "\n").encode())
        # imported here: an interpreter that writes no CSV never loads or compiles it
        from . import _g17

        self.file, self.text, self.columns = file, _g17.text, len(names)
        rows = min(max(1, values // slots // self.columns), count)
        self.buffers = allocate((slots, _CSV_BLOCK_VALUES + rows * self.columns))
        self.tables, self.alphas = [], []
        for buffer in self.buffers:
            t, *table, alpha = np.split(buffer[_CSV_BLOCK_VALUES:].reshape(rows, -1),
                                        np.cumsum([1, n * dim, edges, n, edges, edges]), axis=1)
            self.tables.append((t[:, 0], *table))
            self.alphas.append(alpha)
        self.table = self.tables[0]
        self.slot = self.kept = self.done = 0  # slot flushed next, values in front of it, written
        self.seconds = perf_counter() - start

    def flush(self, rows, last=False, tail=0):
        """Write the full blocks of the kept values and the slot's first
        `rows` rows, and with last=True the rest too; keep what is left.
        With tail > 0, the slot's next `tail` rows follow in the file,
        formatted by `tail_texts`: the rest is written and they count as
        written."""
        start, block, buffer = perf_counter(), _CSV_BLOCK_VALUES, self.buffers[self.slot]
        self.add_alpha(self.slot, 0, rows)
        first, end = block - self.kept, block + rows * self.columns
        full = end if last or tail else end - (end - first) % block
        for text in self.texts(buffer[first:full], self.done):
            self.file.write(text)
        self.kept, self.done = end - full, self.done + full - first + tail * self.columns
        self.slot = (self.slot + 1) % len(self.buffers)
        self.table = self.tables[self.slot]
        self.buffers[self.slot][block - self.kept:block] = buffer[full:end]
        self.seconds += perf_counter() - start

    def tail_texts(self, slot, start, rows):
        """The texts of the slot's rows start .. rows, alpha added: those a
        flush of its first `start` rows leaves to another writer."""
        self.add_alpha(slot, start, rows)
        block = _CSV_BLOCK_VALUES
        return self.texts(self.buffers[slot][block + start * self.columns:
                                             block + rows * self.columns], 0)

    def add_alpha(self, slot, start, rows):
        """alpha = e + mu - mu_hat of the slot's rows start .. rows."""
        _, _, errors, _, mu, mu_hat = (column[start:rows] for column in self.tables[slot])
        alpha = self.alphas[slot][start:rows]
        np.subtract(np.add(errors, mu, alpha), mu_hat, alpha)

    def texts(self, values, first):
        """The '%.17g' texts of values, a block at a time, where values[i]
        is in column (first + i) % columns."""
        block = _CSV_BLOCK_VALUES
        return (self.text(values[at:at + block], self.columns, first + at)
                for at in range(0, values.size, block))

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        """Nothing to stop: this writer runs in the caller's process."""


def write_csv(traj: Trajectory, path) -> None:
    """One row per sample: t, positions (agent-major), errors, speeds, mu,
    mu_hat, alpha; each value printed as '%.17g' prints it, so values
    round-trip exactly.  Rows go through the writer `stream_run` uses, a
    block's values at a time, so the whole run is never staged as one
    table."""
    t_count, n, m = traj.positions.shape
    parts = (traj.times, traj.positions.reshape(t_count, n * m), traj.errors, traj.speeds,
             traj.mu, traj.mu_hat)
    with open(path, "wb") as file:
        csv = _CsvChunks(file, n, m, traj.errors.shape[1], _CSV_BLOCK_VALUES, t_count)
        rows = csv.table[0].size
        for start in range(0, t_count, rows):
            filled = min(rows, t_count - start)
            for column, part in zip(csv.table, parts):
                column[:filled] = part[start:start + filled]
            csv.flush(filled, last=start + rows >= t_count)
