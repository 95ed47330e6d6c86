"""Test-only oracles: the closed-loop derivative at one state, read off the
library's kernel, and the edge-major einsum/matmul kernel it replaced;
the textbook RK4 loops the buffered one replaced, over the closed loop
and over the generator bank alone;
stacked-matrix forms of quantities the library computes edge by edge
inside its closed-loop kernel or block by block in its certificate, the
exact rational Krylov rank its observability rule must agree with, the
np.savetxt trajectory writer its vectorised '%.17g' formatter replaced,
the numpy-array trace sampler its float-level 2-D proposals replaced,
the hand-written scenario loader its table-driven one replaced, and the
record-by-record checks of edges, disturbance entries and insertion
steps its whole-table checks replaced.  Traces are built through
ConstructionTrace's table constructor after each step has passed
`insertion_step`."""

import io
import math
from fractions import Fraction
from itertools import chain, repeat
from operator import itemgetter

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rigiform import (
    AssignmentRule,
    DisturbanceSpec,
    EdgeDisturbance,
    Framework,
    Scenario,
    ScenarioError,
    Trajectory,
    consistent_errors,
    exosystem_initial_state,
    rigidity_matrix,
    s2_matrix,
)
from rigiform.rigidity import ConstructionTrace
from rigiform.scenario import MODES
from rigiform.sim import _ClosedLoop


def closed_loop_rates(x, xi, w, scenario):
    """(x_dot, xi_dot, w_dot) of the scenario's closed loop at positions x
    (n, dim) and estimator and generator banks xi, w (E, q): one evaluation
    of the kernel `integrate` steps, on the flat state it steps."""
    loop = _ClosedLoop(scenario)
    dy = loop.evaluate(np.concatenate([np.ravel(x), np.ravel(xi), np.ravel(w)]).astype(float))[0]
    nx, ne = loop.nx, loop.ne
    return (dy[:nx].reshape(loop.n, loop.dim), dy[nx:nx + ne].reshape(loop.edge_count, loop.q),
            dy[nx + ne:].reshape(loop.edge_count, loop.q))


def closed_loop_reference(scenario, y):
    """(dy, e, mu, mu_hat) of the scenario's closed loop at the flat state
    y, as `_ClosedLoop.evaluate` returns them, computed edge-major: the
    (2|E|, dim) edge rows, their squared lengths by einsum, the pushes by
    broadcasting, and both bank products by matmul against the dense
    generator matrix.  The kernel must match it bit for bit, signed zeros
    included."""
    fw, basis = scenario.framework_initial(), scenario.basis()
    g, dim = fw.graph, fw.dim
    edges, nx, q = g.edge_count, g.n * dim, basis.state_size
    coords = np.arange(dim)
    heads = g.heads[:, None] * dim + coords
    tails = g.tails[:, None] * dim + coords
    plus_at, minus_at = np.concatenate([heads, tails]), np.concatenate([tails, heads])
    rows = y[plus_at] - y[minus_at]
    weights = np.einsum("kd,kd->k", rows, rows) - np.tile(fw.target_distances ** 2, 2)
    r, e = weights[:edges], weights[edges:]
    banks = y[nx:].reshape(2, edges, q)
    outputs = banks @ basis.vector
    mu_hat, mu = outputs[0], outputs[1]
    r += mu
    estimator = scenario.mode == "estimator"
    if estimator:
        r -= mu_hat
    dy = np.empty_like(y)
    pushes = weights[:, None] * rows
    dy[:nx] = np.bincount(minus_at.ravel(), weights=pushes.ravel(), minlength=nx)
    dbanks = dy[nx:].reshape(2, edges, q)
    np.matmul(banks, np.ascontiguousarray(basis.dynamics_matrix.T), out=dbanks)
    dxi = dbanks[0]
    if estimator:
        dxi += float(scenario.kappa) * r[:, None] * basis.vector
    else:
        dxi[...] = 0.0
    return dy, e, mu, mu_hat


def rk4_reference(scenario) -> Trajectory:
    """The run `integrate` makes of the scenario, by the textbook loop:
    every stage of classical RK4 evaluates `closed_loop_reference` on a
    fresh state array, a sample is taken from the evaluation at the
    step's state, and the run stops at the first state with a non-finite
    entry or a position norm above the guard.  Assumes a valid grid."""
    dt, every = float(scenario.dt), int(scenario.output_every)
    steps = round(float(scenario.t_end) / dt)
    w0 = exosystem_initial_state(scenario.disturbance, scenario.basis()).w
    x0 = scenario.framework_initial().positions
    n, dim = x0.shape
    nx, ne = n * dim, w0.size
    y = np.concatenate([x0.ravel(), scenario.xi0_array().ravel(), w0.ravel()])
    samples, divergence_step, reason = [], None, None
    with np.errstate(over="ignore", invalid="ignore"):
        k1, e, mu, mu_hat = closed_loop_reference(scenario, y)
        for step in range(steps + 1):
            if step:
                k2 = closed_loop_reference(scenario, y + 0.5 * dt * k1)[0]
                k3 = closed_loop_reference(scenario, y + 0.5 * dt * k2)[0]
                k4 = closed_loop_reference(scenario, y + dt * k3)[0]
                y_next = y + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
                blocks = {"x": y_next[:nx], "xi": y_next[nx:nx + ne], "w": y_next[nx + ne:]}
                bad = [name for name, block in blocks.items() if not np.isfinite(block).all()]
                norm = np.linalg.norm(y_next[:nx])
                if bad or norm > 1e9:
                    divergence_step = step
                    reason = f"non-finite {', '.join(bad)}" if bad else \
                        f"position norm {norm:.6g} > guard 1e+09"
                    break
                y = y_next
                k1, e, mu, mu_hat = closed_loop_reference(scenario, y)
            if step % every == 0:
                speeds = np.linalg.norm(k1[:nx].reshape(n, dim), axis=1)
                samples.append((y[:nx].reshape(n, dim), e, speeds, mu, mu_hat))
    columns = (np.array(c) for c in zip(*samples))
    return Trajectory(np.arange(len(samples)) * every * dt, *columns, divergence_step,
                      e if divergence_step else None, reason)


def propagate_reference(spec, basis, t_end, dt, output_every):
    """(times, states) as `propagate_exosystem` returns them, by the
    textbook loop it replaced: every stage of classical RK4 multiplies a
    fresh (E, q) array by Lambda^T.  Assumes a valid grid."""
    lam_t = np.ascontiguousarray(basis.dynamics_matrix.T)
    w = exosystem_initial_state(spec, basis).w
    steps = round(t_end / dt)
    states = [w]
    for step in range(1, steps + 1):
        k1 = w @ lam_t
        k2 = (w + 0.5 * dt * k1) @ lam_t
        k3 = (w + 0.5 * dt * k2) @ lam_t
        w = w + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + (w + dt * k3) @ lam_t)
        if step % output_every == 0:
            states.append(w)
    return np.arange(0, steps + 1, output_every) * dt, np.array(states)


def s1_matrix(fw: Framework) -> np.ndarray:
    """|E| x (dim*n) matrix whose row k carries z_k in the tail block only
    (the estimating agent's share of the rigidity matrix)."""
    g = fw.graph
    m = fw.dim
    out = np.zeros((g.edge_count, m * g.n))
    rows = np.arange(g.edge_count)[:, None]
    cols = np.arange(m)[None, :]
    out[rows, m * g.tails[:, None] + cols] = fw.relative_vectors
    return out


def transformed_coords(framework: Framework, basis, x, xi, w):
    """Closed-loop state (x, xi, w) in error coordinates.

    Returns (consistent errors, compensated errors, estimator deviation):
    the second adds the disturbance output and subtracts the estimate, the
    third is the generator state minus the estimator state.
    """
    e = consistent_errors(framework.at_positions(np.asarray(x, dtype=float)))
    w, xi = np.asarray(w), np.asarray(xi)
    return e, e + w @ basis.vector - xi @ basis.vector, w - xi


def strong_components(n, tails, heads) -> np.ndarray:
    """scipy's strongly-connected-component label per vertex of the graph
    with arcs tails[k] -> heads[k]."""
    arcs = coo_matrix((np.ones(len(tails)), (tails, heads)), shape=(n, n))
    return connected_components(arcs, directed=True, connection="strong")[1]


def block_spectrum(fw: Framework) -> np.ndarray:
    """Eigenvalues of the dense -R S2^T's diagonal blocks, one eigvals per
    block, edges grouped by the strong component (scipy's) of their head."""
    g = fw.graph
    matrix = -rigidity_matrix(fw) @ s2_matrix(fw).T
    edge_label = strong_components(g.n, g.tails, g.heads)[g.heads]
    blocks = [np.flatnonzero(edge_label == c) for c in np.unique(edge_label)]
    return np.concatenate([np.linalg.eigvals(matrix[np.ix_(k, k)]) for k in blocks])


def krylov_rank(basis) -> int:
    """Exact rank of the observability matrix [b; b L; ...; b L^(q-1)], L
    the basis's generator matrix, by Gaussian elimination over Fractions: a
    float is a dyadic rational, so no product, pivot or cancellation rounds.
    b observes every mode of L exactly when this is q."""
    q = basis.state_size
    lam = [[Fraction(v) for v in row] for row in basis.dynamics_matrix.tolist()]
    rows = [[Fraction(v) for v in basis.vector.tolist()]]
    for _ in range(1, q):
        prev = rows[-1]
        rows.append([sum((prev[r] * lam[r][c] for r in range(q) if prev[r] and lam[r][c]),
                         Fraction(0)) for c in range(q)])
    rank = 0
    for col in range(q):
        pivot = next((i for i in range(rank, q) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, q):
            if rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def savetxt_text(table) -> bytes:
    """The rows of a 2-D float array as np.savetxt prints them with '%.17g'
    and commas."""
    out = io.StringIO()
    np.savetxt(out, table, fmt="%.17g", delimiter=",")
    return out.getvalue().encode("latin1")


def savetxt_write_csv(traj, path) -> None:
    """sim.write_csv as it was when np.savetxt formatted the rows."""
    t_count, n, m = traj.positions.shape
    e_count = traj.errors.shape[1]
    names = ["t"]
    names += [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, m + 1)]
    names += [f"e_{k}" for k in range(1, e_count + 1)]
    names += [f"speed_{i}" for i in range(1, n + 1)]
    names += [f"mu_{k}" for k in range(1, e_count + 1)]
    names += [f"muhat_{k}" for k in range(1, e_count + 1)]
    names += [f"alpha_{k}" for k in range(1, e_count + 1)]
    step = max(1, (1 << 16) // len(names))
    with open(path, "w", encoding="latin1") as fh:  # np.savetxt's encoding
        fh.write(",".join(names) + "\n")
        for start in range(0, t_count, step):
            rows = slice(start, start + step)
            block = np.column_stack([
                traj.times[rows],
                traj.positions[rows].reshape(-1, n * m),
                traj.errors[rows],
                traj.speeds[rows],
                traj.mu[rows],
                traj.mu_hat[rows],
                traj.alpha[rows],
            ])
            np.savetxt(fh, block, fmt="%.17g", delimiter=",")


def _min_gap(placed, cand) -> float:
    d = placed - cand
    return math.sqrt((d[:, None, :] @ d[:, :, None]).min())


def _pair_proposal(placed, rng):
    a, b = sorted(int(v) for v in rng.choice(len(placed), size=2, replace=False))
    mid = 0.5 * (placed[a] + placed[b])
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    radius = float(rng.uniform(0.7, 1.5))
    return a, b, mid + radius * np.array([math.cos(angle), math.sin(angle)])


def _outward_proposal(placed, rng):
    direction = float(rng.uniform(0.0, 2.0 * math.pi))
    a = int(np.argmax(placed @ np.array([math.cos(direction), math.sin(direction)])))
    b = int(rng.integers(len(placed) - 1))
    b += b >= a
    angle = direction + float(rng.uniform(-math.pi / 3.0, math.pi / 3.0))
    radius = float(rng.uniform(0.7, 1.5))
    cand = placed[a] + radius * np.array([math.cos(angle), math.sin(angle)])
    return min(a, b), max(a, b), cand


def random_trace(n, dim, rng):
    """rigidity.random_trace as it was when every 2-D proposal was a numpy
    array and every anchor distance one np.linalg.norm."""
    if dim == 2:
        pts = np.zeros((n, 2))
        pts[1, 0] = float(rng.uniform(1.0, 2.0))
        steps = []
        for m in range(2, n):
            for attempt in range(1000):
                propose = _pair_proposal if attempt < 500 else _outward_proposal
                a, b, cand = propose(pts[:m], rng)
                span = pts[b] - pts[a]
                off = cand - pts[a]
                if 0.5 * abs(span[0] * off[1] - span[1] * off[0]) < 0.25:
                    continue
                if _min_gap(pts[:m], cand) < 0.35:
                    continue
                steps.append(insertion_step(
                    (a + 1, b + 1),
                    (float(np.linalg.norm(cand - pts[a])), float(np.linalg.norm(cand - pts[b]))),
                ))
                pts[m] = cand
                break
            else:
                raise RuntimeError("2-D trace sampling stalled")
        return _trace_of(2, (float(np.linalg.norm(pts[1] - pts[0])),), steps), pts

    for _attempt in range(500):
        pts = [
            np.zeros(3),
            np.array([float(rng.uniform(1.2, 2.2)), 0.0, 0.0]),
            np.array([float(rng.uniform(-0.5, 2.5)), float(rng.uniform(0.8, 2.2)), 0.0]),
            np.array([float(rng.uniform(-0.5, 2.5)), float(rng.uniform(-0.3, 2.0)),
                      float(rng.uniform(0.8, 2.2))]),
        ]
        gaps = [float(np.linalg.norm(p - q)) for i, p in enumerate(pts) for q in pts[:i]]
        if min(gaps) < 0.4:
            continue
        vol = abs(np.linalg.det(np.array([pts[1] - pts[0], pts[2] - pts[0], pts[3] - pts[0]]))) / 6.0
        if vol >= 0.3:
            break
    else:
        raise RuntimeError("3-D seed sampling stalled")
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    pts = np.vstack([pts, np.empty((n - 4, 3))])
    steps = []
    for m in range(4, n):
        for _attempt in range(500):
            a, b, c = triangles[int(rng.integers(len(triangles)))]
            centroid = (pts[a] + pts[b] + pts[c]) / 3.0
            cand = centroid + rng.uniform(-1.4, 1.4, size=3)
            if _min_gap(pts[:m], cand) < 0.4:
                continue
            vol = abs(np.linalg.det(np.array([pts[b] - pts[a], pts[c] - pts[a], cand - pts[a]]))) / 6.0
            if vol < 0.3:
                continue
            steps.append(insertion_step(
                (a + 1, b + 1, c + 1),
                tuple(float(np.linalg.norm(cand - pts[v])) for v in (a, b, c)),
            ))
            triangles.extend([(a, b, m), (a, c, m), (b, c, m)])
            pts[m] = cand
            break
        else:
            raise RuntimeError("3-D trace sampling stalled")
    seed_pairs = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    seed = tuple(float(np.linalg.norm(pts[i] - pts[j])) for i, j in seed_pairs)
    return _trace_of(3, seed, steps), pts


# The checks the library made one record at a time before it checked whole
# tables: EdgeDisturbance's, the insertion step record's, FormationGraph's
# edge loop and ConstructionTrace's adjacency loop.  Each raises the same
# ValueError.

def edge_disturbance(offset, amplitudes=(), phases=()):
    """(offset, amplitudes, phases) as EdgeDisturbance normalized them."""
    offset = float(offset)
    if not math.isfinite(offset):
        raise ValueError("offset must be finite")
    amplitudes = [float(a) for a in amplitudes]
    phases = [float(p) for p in phases]
    if len(amplitudes) != len(phases):
        raise ValueError("one phase per amplitude")
    for i, (amp, ph) in enumerate(zip(amplitudes, phases)):
        if not (math.isfinite(amp) and math.isfinite(ph)):
            raise ValueError("amplitudes and phases must be finite")
        if amp < 0.0:
            amp, ph = -amp, ph + math.pi
        if amp == 0.0:
            ph = 0.0
        else:
            ph = math.remainder(ph, math.tau)
            if ph <= -math.pi:
                ph = math.pi
        amplitudes[i], phases[i] = amp, ph
    return offset, tuple(amplitudes), tuple(phases)


def insertion_step(anchors, distances):
    """(anchors, distances) as the insertion step record checked them."""
    anchors = tuple(map(int, anchors))
    distances = tuple(map(float, distances))
    if len(anchors) not in (2, 3):
        raise ValueError("a step anchors to 2 (2-D) or 3 (3-D) existing vertices")
    if len(set(anchors)) != len(anchors):
        raise ValueError("step anchors must be distinct")
    if len(distances) != len(anchors):
        raise ValueError("one distance per anchor")
    if not all(map(math.isfinite, distances)) or min(distances) <= 0:
        raise ValueError("step distances must be positive and finite")
    return anchors, distances


def _trace_of(dim, seed_distances, steps) -> ConstructionTrace:
    """The trace of checked (anchors, distances) steps, from its tables."""
    anchors, distances = [*zip(*steps)] or [(), ()]
    return ConstructionTrace(dim, seed_distances, list(map(len, anchors)),
                             list(chain.from_iterable(anchors)), list(chain.from_iterable(distances)))


def graph_edges(n, edges):
    """FormationGraph's edge loop: the (tail, head) pairs as ints."""
    edges = tuple((int(t), int(h)) for t, h in edges)
    seen = set()
    for k, (tail, head) in enumerate(edges, start=1):
        if not (1 <= tail <= n and 1 <= head <= n):
            raise ValueError(f"edge {k}: endpoints must lie in 1..{n}")
        if tail == head:
            raise ValueError(f"edge {k}: self-loop at vertex {tail}")
        pair = frozenset((tail, head))
        if pair in seen:
            raise ValueError(f"edge {k}: duplicate undirected edge {{{tail},{head}}}")
        seen.add(pair)
    return edges


_SEED_EDGES_3D = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))


def trace_edges(dim, seed_distances, steps):
    """ConstructionTrace's checks of checked (anchors, distances) steps
    with its adjacency loop: the trace's (tail, head) pairs."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    seed = tuple(float(d) for d in seed_distances)
    want = 1 if dim == 2 else 6
    if len(seed) != want:
        raise ValueError(f"{dim}-D seed needs exactly {want} distances")
    if any(not math.isfinite(d) or d <= 0 for d in seed):
        raise ValueError("seed distances must be positive and finite")
    edges = [(1, 2)] if dim == 2 else list(_SEED_EDGES_3D)
    adjacent = set(_SEED_EDGES_3D) | {(h, t) for t, h in _SEED_EDGES_3D}
    for next_vertex, (anchors, _) in enumerate(steps, start=(2 if dim == 2 else 4) + 1):
        if len(anchors) != dim:
            raise ValueError(f"step inserting vertex {next_vertex}: needs {dim} anchors")
        if min(anchors) < 1 or max(anchors) >= next_vertex:
            raise ValueError(f"step inserting vertex {next_vertex}: anchors must already exist")
        if dim == 3:
            a, b, c = anchors
            for pair in ((a, b), (a, c), (b, c)):
                if pair not in adjacent:
                    raise ValueError(
                        f"step inserting vertex {next_vertex}: anchors {pair} are not adjacent"
                    )
            adjacent.update(((a, next_vertex), (next_vertex, a), (b, next_vertex),
                             (next_vertex, b), (c, next_vertex), (next_vertex, c)))
        edges.extend(zip(anchors, repeat(next_vertex)))
    return tuple(edges)


# scenario.scenario_from_dict as it was when each section had its own parser
# and its own error walk.

def _float_rows(rows):
    return tuple(map(tuple, map(map, repeat(float), rows)))


# Each parser accepts a well-formed list with whole-list scans (exact types,
# keys against a frozenset) and C-level conversions, and builds a field's
# path only to raise: when a scan or a conversion finds something amiss, a
# walk over the items in file order (the _check_* functions) raises at the
# first offender.  A walk also passes subclasses of int, float, list and
# dict, which the exact-type scans refuse and the conversions accept.
_NUMBERS = frozenset((int, float))  # bool is neither
_INTS = frozenset((int,))
_LISTS = frozenset((list,))
_STRS = frozenset((str,))
_TOP = ("scenario",)
_SCENARIO_KEYS = frozenset(("name", "dim", "agents", "edges", "target_positions", "disturbance",
                            "controller", "sim", "construction", "assignment"))
_EDGE_KEYS = frozenset(("tail", "head", "distance"))
_DISTURBANCE_KEYS = frozenset(("frequencies", "edges"))
_ENTRY_KEYS = frozenset(("alpha", "sinusoids"))
_SINUSOID_KEYS = frozenset(("freq_index", "amplitude", "phase"))
_CONTROLLER_KEYS = frozenset(("mode", "kappa", "b1", "b2", "xi0"))
_SIM_KEYS = frozenset(("dt", "t_end", "output_every"))
_CONSTRUCTION_KEYS = frozenset(("seed_distances", "steps"))
_STEP_KEYS = frozenset(("anchors", "distances"))
_ASSIGNMENT_KEYS = frozenset(("kind", "root", "third"))


def _error(path, problem) -> ScenarioError:
    """("disturbance", "edges", 3, "alpha") -> field 'disturbance.edges[3].alpha'."""
    field = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
    return ScenarioError(f"scenario field '{field[1:]}': {problem}")


def _expect_dict(value, path):
    if not isinstance(value, dict):
        raise _error(path, "expected an object")
    return value


def _expect_list(value, path):
    if not isinstance(value, list):
        raise _error(path, "expected a list")
    return value


def _require(mapping, key, path):
    if key not in mapping:
        raise _error(path, f"missing key '{key}'")
    return mapping[key]


def _reject_unknown(mapping, allowed, path):
    if not allowed.issuperset(mapping):
        raise _error(path, f"unknown key(s) {sorted(set(mapping) - allowed)}")


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _error(path, "expected a number")
    try:
        return float(value)
    except OverflowError:
        raise _error(path, "number out of float range") from None


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _error(path, "expected an integer")
    return value


def _check_numbers(values, path):
    for i, v in enumerate(values):
        _number(v, path + (i,))


def _columns(items, allowed, keys):
    """One list per key of its values across a list of objects, or None
    when an item is not an object, has a key outside `allowed` or lacks
    one of `keys` (which a walk then names)."""
    if not (all(map(isinstance, items, repeat(dict))) and all(map(allowed.issuperset, items))):
        return None
    try:
        return [list(map(itemgetter(key), items)) for key in keys]
    except KeyError:
        return None


def _number_list(value, path):
    values = _expect_list(value, path)
    if not _NUMBERS.issuperset(map(type, values)):
        _check_numbers(values, path)
    try:
        return tuple(map(float, values))
    except OverflowError:
        _check_numbers(values, path)
        raise


def _check_rows(rows, path):
    for i, row in enumerate(rows):
        _check_numbers(_expect_list(row, path + (i,)), path + (i,))


def _matrix(value, path):
    rows = _expect_list(value, path)
    if not (_LISTS.issuperset(map(type, rows))
            and _NUMBERS.issuperset(map(type, chain.from_iterable(rows)))):
        _check_rows(rows, path)
    try:
        return _float_rows(rows)
    except OverflowError:
        _check_rows(rows, path)
        raise


def _check_edges(items):
    for i, item in enumerate(items):
        path = ("edges", i)
        item = _expect_dict(item, path)
        _reject_unknown(item, _EDGE_KEYS, path)
        _integer(_require(item, "tail", path), path + ("tail",))
        _integer(_require(item, "head", path), path + ("head",))
        _number(_require(item, "distance", path), path + ("distance",))


def _parse_edges(value):
    """(edges, distances) of the scenario's edge list."""
    items = _expect_list(value, ("edges",))
    columns = _columns(items, _EDGE_KEYS, ("tail", "head", "distance"))
    if columns is None or not (_INTS.issuperset(map(type, columns[0]))
                               and _INTS.issuperset(map(type, columns[1]))
                               and _NUMBERS.issuperset(map(type, columns[2]))):
        _check_edges(items)
    tails, heads, distances = columns
    try:
        return tuple(zip(tails, heads)), tuple(map(float, distances))
    except OverflowError:
        _check_edges(items)
        raise


def _check_entries(items, p):
    """Walk the disturbance's edge entries, each as far as its EdgeDisturbance."""
    for i, item in enumerate(items):
        path = ("disturbance", "edges", i)
        item = _expect_dict(item, path)
        _reject_unknown(item, _ENTRY_KEYS, path)
        offset = _number(_require(item, "alpha", path), path + ("alpha",))
        amplitudes = [0.0] * p
        phases = [0.0] * p
        seen = set()
        for j, sin in enumerate(_expect_list(item.get("sinusoids", []), path + ("sinusoids",))):
            spath = path + ("sinusoids", j)
            sin = _expect_dict(sin, spath)
            _reject_unknown(sin, _SINUSOID_KEYS, spath)
            idx = _integer(_require(sin, "freq_index", spath), spath + ("freq_index",))
            if not 0 <= idx < p:
                raise _error(spath + ("freq_index",), f"out of range 0..{p - 1}")
            if idx in seen:
                raise _error(spath, f"duplicate freq_index {idx}")
            seen.add(idx)
            amplitudes[idx] = _number(_require(sin, "amplitude", spath), spath + ("amplitude",))
            phases[idx] = _number(sin.get("phase", 0.0), spath + ("phase",))
        try:
            EdgeDisturbance(offset, tuple(amplitudes), tuple(phases))
        except ValueError as exc:
            raise _error(path, exc) from exc


def _entries(items, p):
    """One EdgeDisturbance per edge entry: the entries' sinusoids are
    scanned as one flat list and placed into (entries, p) tables at once."""
    columns = _columns(items, _ENTRY_KEYS, ("alpha",))
    if columns is None:
        _check_entries(items, p)
    (alphas,) = columns
    lists = list(map(dict.get, items, repeat("sinusoids"), repeat([])))
    if not (_NUMBERS.issuperset(map(type, alphas)) and _LISTS.issuperset(map(type, lists))):
        _check_entries(items, p)
    sinusoids = list(chain.from_iterable(lists))
    fields = _columns(sinusoids, _SINUSOID_KEYS, ("freq_index", "amplitude"))
    if fields is None:
        _check_entries(items, p)
    index, amplitudes = fields
    phases = list(map(dict.get, sinusoids, repeat("phase"), repeat(0.0)))
    owner = list(chain.from_iterable(map(repeat, range(len(items)), map(len, lists))))
    if not (_INTS.issuperset(map(type, index)) and _NUMBERS.issuperset(map(type, amplitudes))
            and _NUMBERS.issuperset(map(type, phases))
            and (not index or (min(index) >= 0 and max(index) < p))
            and len(set(zip(owner, index))) == len(index)):
        _check_entries(items, p)
    try:
        tables = np.zeros((2, len(items), p))
        tables[0, owner, index] = list(map(float, amplitudes))
        tables[1, owner, index] = list(map(float, phases))
        return tuple(map(EdgeDisturbance, alphas, *tables.tolist()))
    except (OverflowError, ValueError):
        _check_entries(items, p)
        raise


def _parse_disturbance(value) -> DisturbanceSpec:
    path = ("disturbance",)
    value = _expect_dict(value, path)
    _reject_unknown(value, _DISTURBANCE_KEYS, path)
    freqs = _number_list(_require(value, "frequencies", path), path + ("frequencies",))
    items = _expect_list(_require(value, "edges", path), path + ("edges",))
    entries = _entries(items, len(freqs))
    try:
        return DisturbanceSpec(freqs, entries)
    except ValueError as exc:
        raise _error(path, exc) from exc


def _check_steps(items):
    """Walk the construction's steps, each as far as its insertion_step."""
    for i, item in enumerate(items):
        path = ("construction", "steps", i)
        item = _expect_dict(item, path)
        _reject_unknown(item, _STEP_KEYS, path)
        anchors = _expect_list(_require(item, "anchors", path), path + ("anchors",))
        for j, a in enumerate(anchors):
            _integer(a, path + ("anchors", j))
        distances = _number_list(_require(item, "distances", path), path + ("distances",))
        try:
            insertion_step(anchors, distances)
        except ValueError as exc:
            raise _error(path, exc) from exc


def _parse_construction(value, dim) -> ConstructionTrace:
    path = ("construction",)
    value = _expect_dict(value, path)
    _reject_unknown(value, _CONSTRUCTION_KEYS, path)
    seed = _number_list(_require(value, "seed_distances", path), path + ("seed_distances",))
    items = _expect_list(value.get("steps", []), path + ("steps",))
    columns = _columns(items, _STEP_KEYS, ("anchors", "distances"))
    if columns is None or not (_LISTS.issuperset(map(type, columns[0]))
                               and _LISTS.issuperset(map(type, columns[1]))
                               and _INTS.issuperset(map(type, chain.from_iterable(columns[0])))
                               and _NUMBERS.issuperset(map(type, chain.from_iterable(columns[1])))):
        _check_steps(items)
    anchors, distances = columns
    try:
        steps = list(map(insertion_step, anchors, distances))
    except (OverflowError, ValueError):
        _check_steps(items)
        raise
    try:
        return _trace_of(dim, seed, steps)
    except ValueError as exc:
        raise _error(path, exc) from exc


def _parse_assignment(value) -> AssignmentRule:
    path = ("assignment",)
    value = _expect_dict(value, path)
    _reject_unknown(value, _ASSIGNMENT_KEYS, path)
    kind = _require(value, "kind", path)
    if not isinstance(kind, str):
        raise _error(path + ("kind",), "expected a string")
    root = value.get("root")
    third = value.get("third")
    if root is not None:
        root = _integer(root, path + ("root",))
    if third is not None:
        third = _integer(third, path + ("third",))
    try:
        return AssignmentRule(kind, root, third)
    except ValueError as exc:
        raise _error(path, exc) from exc


def scenario_from_dict(data, fallback_name: str | None = None) -> Scenario:
    """Build and fully validate a Scenario from parsed JSON data."""
    data = _expect_dict(data, _TOP)
    _reject_unknown(data, _SCENARIO_KEYS, _TOP)
    if "name" in data:
        name = data["name"]
        if not isinstance(name, str) or not name:
            raise ScenarioError("scenario field 'name': expected a nonempty string")
    elif fallback_name:
        name = fallback_name
    else:
        raise ScenarioError("scenario field 'name': missing")
    dim = _integer(_require(data, "dim", _TOP), ("dim",))
    agents = _matrix(_require(data, "agents", _TOP), ("agents",))
    edges, distances = _parse_edges(_require(data, "edges", _TOP))
    target = data.get("target_positions")
    if target is not None:
        target = _matrix(target, ("target_positions",))
    disturbance = _parse_disturbance(_require(data, "disturbance", _TOP))

    path = ("controller",)
    ctl = _expect_dict(_require(data, "controller", _TOP), path)
    _reject_unknown(ctl, _CONTROLLER_KEYS, path)
    mode = _require(ctl, "mode", path)
    if mode not in MODES:
        raise _error(path + ("mode",), f"must be one of {MODES}")
    kappa = _number(_require(ctl, "kappa", path), path + ("kappa",))
    b1 = _number(_require(ctl, "b1", path), path + ("b1",))
    b2 = _number_list(_require(ctl, "b2", path), path + ("b2",))
    xi0 = ctl.get("xi0")
    if xi0 is not None:
        xi0 = _matrix(xi0, path + ("xi0",))

    path = ("sim",)
    sim_d = _expect_dict(_require(data, "sim", _TOP), path)
    _reject_unknown(sim_d, _SIM_KEYS, path)
    dt = _number(_require(sim_d, "dt", path), path + ("dt",))
    t_end = _number(_require(sim_d, "t_end", path), path + ("t_end",))
    output_every = _integer(_require(sim_d, "output_every", path), path + ("output_every",))

    construction = data.get("construction")
    if construction is not None:
        construction = _parse_construction(construction, dim)
    assignment = data.get("assignment")
    if assignment is not None:
        assignment = _parse_assignment(assignment)

    return Scenario(
        name=name, dim=dim, edges=edges, distances=distances,
        initial_positions=agents, target_positions=target, disturbance=disturbance,
        mode=mode, kappa=kappa, b1=b1, b2=b2, xi0=xi0,
        dt=dt, t_end=t_end, output_every=output_every,
        construction=construction, assignment=assignment,
    )
