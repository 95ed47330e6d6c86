"""Test-only oracles: stacked-matrix forms of quantities the library
computes edge by edge inside its closed-loop kernel or block by block in
its certificate."""

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
