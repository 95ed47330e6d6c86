"""Test-only oracles: stacked-matrix forms of quantities the library
computes edge by edge inside its closed-loop kernel or block by block in
its certificate, and the np.savetxt trajectory writer its vectorised
'%.17g' formatter replaced."""

import io

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rigiform import Framework, consistent_errors, rigidity_matrix, s2_matrix


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
