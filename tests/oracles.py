"""Test-only oracles: stacked-matrix forms of quantities the library
computes edge by edge inside its closed-loop kernel."""

import numpy as np

from rigiform import Framework, consistent_errors


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
