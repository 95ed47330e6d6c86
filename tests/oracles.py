"""Test-only oracles: stacked-matrix forms of quantities the library
computes edge by edge inside its closed-loop kernel or block by block in
its certificate, the np.savetxt trajectory writer its vectorised '%.17g'
formatter replaced, and the numpy-array trace sampler its float-level 2-D
proposals replaced."""

import io
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rigiform import Framework, consistent_errors, rigidity_matrix, s2_matrix
from rigiform.rigidity import ConstructionTrace, InsertionStep


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
                steps.append(InsertionStep(
                    (a + 1, b + 1),
                    (float(np.linalg.norm(cand - pts[a])), float(np.linalg.norm(cand - pts[b]))),
                ))
                pts[m] = cand
                break
            else:
                raise RuntimeError("2-D trace sampling stalled")
        return ConstructionTrace(2, (float(np.linalg.norm(pts[1] - pts[0])),), tuple(steps)), pts

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
            steps.append(InsertionStep(
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
    return ConstructionTrace(3, seed, tuple(steps)), pts
