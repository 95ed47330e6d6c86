"""Graphs, frameworks, and rank-based rigidity tests.

A formation is an undirected graph embedded in the plane or in space.
Each edge additionally carries one distinguished endpoint, its estimating
agent, stored as the edge's tail.  The orientation never changes the
geometry; it decides which endpoint owns the edge's measurement
bookkeeping in the closed loop (`sim`) and the analysis module.

All matrices produced here follow the graph's edge order, so stacked
quantities (errors, disturbances, estimator states) line up index for
index across the package.  The rank test is structural: the orientation's
strongly connected components split R and -R S2^T into diagonal blocks
(`Framework.diagonal_blocks`), each taken in one pass: its rank, counted
as `numeric_rank` counts a matrix, and its eigenvalues.  Block ranks
short of min(|E|, rigid_rank_target), or a block over the cap, send the
count to the orientation from lower to higher vertex (R's rank ignores
orientation); only then does R take a dense SVD.  `_dense_guard` bounds
every dense block and R.
Graphs and construction traces keep their edges and steps as read-only
integer tables, checked whole with numpy for the first bad edge or step;
a graph spells its edges as tuples only when something reads them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import product, repeat
from typing import NamedTuple

import numpy as np

# A matrix's rank counts its singular values above RANK_TOL * sigma_max *
# max(shape), each matrix at its own scale (`_count_rank`).
RANK_TOL = 1e-10
# Entries above which a dense decomposition is refused: an SVD takes 2.5 s at
# 2000 x 2000 on one Xeon core (one BLAS thread), growing as the size cubed.
_DENSE_RANK_CAP = 2000 * 2000


class _OverCap(ValueError):
    """A dense decomposition refused by `_dense_guard`."""


def _dense_guard(undecided: str, rows: int, cols: int, what: str = "SVD") -> None:
    """Refuse (_OverCap, a ValueError) a dense rows x cols decomposition over the cap."""
    if rows * cols > _DENSE_RANK_CAP:
        raise _OverCap(f"{undecided} not decided: a {rows} x {cols} {what} is over the cap "
                       f"of {_DENSE_RANK_CAP} entries")


def _count_rank(s: np.ndarray, shape) -> int:
    """Summed rank of matrices of one shape from their singular values s (last
    axis, largest first): those above RANK_TOL * sigma_max * max(shape)."""
    return int(np.count_nonzero(s > RANK_TOL * s[..., :1] * max(shape)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _integers(values) -> np.ndarray:
    """values as an int64 array, or as Python ints where some overflow int64."""
    a = np.asarray(values)
    return np.array(values, dtype=object) if a.dtype.kind == "f" else a


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """np.array_equal of two arrays, without its conversions."""
    return a.shape == b.shape and not np.count_nonzero(a != b)


def _same(a, b) -> bool:
    """Item by item equality of two sequences, arrays entry by entry."""
    return all(_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


class _Tables:
    """A value kept as read-only tables: == and repr read `_key()`."""

    def __eq__(self, other):
        return _same(self._key(), other._key()) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"


def _endpoint_table(n: int, edges) -> np.ndarray:
    """Edges as a read-only (|E|, 2) table, raising at the first edge that
    leaves 1..n, is a self-loop or repeats an earlier edge's vertex pair."""
    ends = np.asarray(edges).reshape(len(edges), 2)
    outside = (ends < 1) | (ends > n)
    if ends.dtype.kind not in "iu":  # Python ints beyond int64, and floats, which int() reads
        ends = np.where(outside, 0, ends.astype(object)).astype(np.intp)
    tails, heads = ends.T
    pair = np.minimum(tails, heads) * (n + 1) + np.maximum(tails, heads)
    order = pair.argsort(kind="stable")  # each pair's first edge leads its run
    flags = np.zeros((len(ends), 4), dtype=bool)  # per edge: ends outside, loop, repeat
    flags[:, :2], flags[:, 2] = outside, tails == heads
    flags[order[1:], 3] = pair[order[1:]] == pair[order[:-1]]
    if np.count_nonzero(flags):
        k, j = divmod(int(flags.argmax()), 4)
        tail, head = ends[k].tolist()
        raise ValueError(f"edge {k + 1}: " + (
            f"endpoints must lie in 1..{n}" if j < 2 else f"self-loop at vertex {tail}" if j == 2
            else f"duplicate undirected edge {{{tail},{head}}}"))
    return _read_only(ends.astype(np.intp))


class FormationGraph(_Tables):
    """Undirected graph on vertices 1..n with one estimating agent per edge.

    Edges are (tail, head) pairs; the tail is the estimating agent.  Edge
    order is significant and preserved by every matrix built from the graph.
    The pairs are kept as the read-only (|E|, 2) table `endpoints`; `edges`
    spells them as tuples when it is read.
    """

    def __init__(self, n: int, edges):
        if int(n) != n or n < 2:
            raise ValueError("vertex count must be an integer >= 2")
        self.n, self.endpoints = int(n), _endpoint_table(int(n), edges)

    def _key(self):
        return self.n, self.endpoints

    @property
    def edge_count(self) -> int:
        return len(self.endpoints)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.endpoints.tolist()))

    @cached_property
    def tails(self) -> np.ndarray:
        """Zero-based estimating-agent index per edge."""
        return _read_only(self.endpoints[:, 0] - 1)

    @cached_property
    def heads(self) -> np.ndarray:
        """Zero-based non-estimating endpoint index per edge."""
        return _read_only(self.endpoints[:, 1] - 1)


@dataclass(frozen=True, eq=False)
class Framework:
    """A graph together with an embedding and prescribed edge lengths."""

    graph: FormationGraph
    dim: int
    positions: np.ndarray
    target_distances: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (self.graph.n, self.dim):
            raise ValueError(
                f"positions must have shape ({self.graph.n}, {self.dim}), got {pos.shape}"
            )
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        dist = np.array(self.target_distances, dtype=float)
        if dist.shape != (self.graph.edge_count,):
            raise ValueError(f"need one target distance per edge ({self.graph.edge_count})")
        if not np.isfinite(dist).all() or (dist <= 0).any():
            raise ValueError("target distances must be positive and finite")
        object.__setattr__(self, "positions", _read_only(pos))
        object.__setattr__(self, "target_distances", _read_only(dist))

    @cached_property
    def relative_vectors(self) -> np.ndarray:
        """z_k = x_tail - x_head, one row per edge."""
        return _read_only(self.positions[self.graph.tails] - self.positions[self.graph.heads])

    @cached_property
    def diagonal_blocks(self) -> tuple["BlockStack", ...]:
        """The diagonal blocks of R and of -R S2^T, stacked by shape.

        Edges are grouped by the strongly connected component of their
        head, columns by the component of their vertex.  An edge's tail
        reaches its head, so its component precedes the head's in
        topological order and R is block lower-triangular; so is -R S2^T,
        whose entry (k, l) is nonzero only when head(l) is an endpoint of
        edge k.  Computed once, with one SVD per distinct block shape and,
        for blocks of more than one vertex, one eigvals.
        """
        return _diagonal_blocks(self)

    @cached_property
    def rigidity_rank(self) -> int:
        """Rank of the rigidity matrix, computed once.

        R is block lower-triangular, so its diagonal blocks' ranks sum to a
        lower bound, and min(|E|, rigid_rank_target) is an upper bound.
        Reversing an edge only negates its row of R, so when the blocks of
        the graph's own orientation fall short, or one of them is over the
        cap, those of the orientation from lower to higher vertex, one
        vertex each, are counted too.  When a sum meets the upper bound
        that is the rank, and R is never built.  Otherwise it is
        numeric_rank of the dense R, within `_dense_guard`'s cap.
        """
        g = self.graph
        bound = min(g.edge_count, rigid_rank_target(g.n, self.dim))
        try:
            found = sum(s.rank for s in self.diagonal_blocks)
        except _OverCap:  # only the spectrum needs that block
            found = 0
        if found < bound:
            upward = replace(self, graph=FormationGraph(g.n, np.sort(g.endpoints, axis=1)))
            found = max(found, sum(s.rank for s in upward.diagonal_blocks))
        if found >= bound:
            return bound
        _dense_guard("rank", g.edge_count, self.dim * g.n)
        return numeric_rank(rigidity_matrix(self))

    def at_positions(self, positions) -> "Framework":
        """Same graph and distances, different embedding."""
        return Framework(self.graph, self.dim, positions, self.target_distances)


def edge_function(fw: Framework) -> np.ndarray:
    """Squared length of every edge, in edge order."""
    z = fw.relative_vectors
    return np.einsum("kd,kd->k", z, z)


def consistent_errors(fw: Framework) -> np.ndarray:
    """Squared-distance errors with no disturbance: ||z_k||^2 - d_k^2."""
    return edge_function(fw) - fw.target_distances ** 2


def s2_matrix(fw: Framework) -> np.ndarray:
    """Row k carries -z_k in the head block only: rigidity_matrix with its
    tail blocks (the estimating agents' share) zeroed, entry for entry."""
    g, m = fw.graph, fw.dim
    out = np.zeros((g.edge_count, m * g.n))
    rows = np.arange(g.edge_count)[:, None]
    out[rows, m * g.heads[:, None] + np.arange(m)] = -fw.relative_vectors
    return out


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """|E| x (dim*n) matrix with +z_k in the tail block and -z_k in the head block.

    This is half the Jacobian of edge_function: rank tests are unaffected
    by the factor while the error dynamics read e_dot = 2 R x_dot.
    """
    g, m = fw.graph, fw.dim
    out = s2_matrix(fw)
    out[np.arange(g.edge_count)[:, None], m * g.tails[:, None] + np.arange(m)] = fw.relative_vectors
    return out


def numeric_rank(matrix) -> int:
    """Count of singular values above RANK_TOL * sigma_max * max(shape)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("rank is defined for 2-D matrices")
    return _count_rank(np.linalg.svd(a, compute_uv=False), a.shape)


def strongly_connected_components(n: int, tails, heads) -> list[list[int]]:
    """Strongly connected components of the directed graph on vertices
    0..n-1 with arcs tails[k] -> heads[k] (Tarjan 1972, iterative).

    Each component lists its vertices in increasing order.  Components come
    in the order Tarjan closes them, which is reverse topological: no arc
    runs from a component to an earlier one.
    """
    succ = [[] for _ in range(n)]
    for t, h in zip(tails, heads):
        succ[t].append(h)
    index = [-1] * n  # discovery order
    low = [0] * n
    closed = [False] * n
    stack = []
    components = []
    found = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = found
        found += 1
        stack.append(root)
        path = [(root, iter(succ[root]))]
        while path:
            v, arcs = path[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = low[w] = found
                    found += 1
                    stack.append(w)
                    path.append((w, iter(succ[w])))
                    break
                if not closed[w]:  # still on the stack: in v's component or an ancestor's
                    low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    component = stack[at:]
                    del stack[at:]
                    for w in component:
                        closed[w] = True
                    components.append(sorted(component))
    return components


class BlockStack(NamedTuple):
    """The diagonal blocks of one shape (r edges, s vertices): for each
    strongly connected component, the rows of R of the edges whose heads
    lie in it, restricted to its vertices' columns, rows in edge and
    columns in vertex order, and the r x r block of -R S2^T on those edges."""

    rank: int  # summed over the stack, each block counted by _count_rank
    singular_values: np.ndarray  # (B, min(r, dim*s)) of the R blocks
    eigenvalues: np.ndarray  # (B*r,) of the -R S2^T blocks


def _diagonal_blocks(fw: Framework) -> tuple[BlockStack, ...]:
    g = fw.graph
    m = fw.dim
    z = fw.relative_vectors
    components = strongly_connected_components(g.n, g.tails.tolist(), g.heads.tolist())
    label = [0] * g.n
    local = [0] * g.n  # a vertex's place among its component's columns
    for c, vertices in enumerate(components):
        for i, v in enumerate(vertices):
            label[v], local[v] = c, i
    in_edges = [[] for _ in components]  # rows of each block, in edge order
    for k, h in enumerate(g.heads.tolist()):
        in_edges[label[h]].append(k)
    shapes = {}
    for c, rows in enumerate(in_edges):
        if rows:
            shapes.setdefault((len(rows), len(components[c])), []).append(c)
    for r, s in shapes:  # every dense block passes the guard before any is built
        if s > 1:
            _dense_guard("spectrum", r, m * s)  # the rank falls back on the upward blocks
            _dense_guard("spectrum", r, r, "eigenvalue problem")
    stacks = []
    for (r, s), members in sorted(shapes.items()):
        edges = np.array([in_edges[c] for c in members], dtype=np.intp)
        if s == 1:  # one vertex v: the R block is -Z_v, its in-edges' z_k
            sv = np.linalg.svd(-z[edges], compute_uv=False)
            # -Z Z^T: minus Z's squared singular values, and a zero per row past the dim-th
            eigenvalues = np.concatenate((-(sv * sv).ravel(),
                                          np.zeros(len(members) * (r - sv.shape[1]))))
        else:
            label_of, local_of = np.array(label), np.array(local)
            heads, tails = g.heads[edges], g.tails[edges]
            b = np.arange(len(members))[:, None, None]
            i = np.arange(r)[None, :, None]
            cols = np.arange(m)
            # tails outside the component land in one spare column group, cut off below
            tail_at = np.where(label_of[tails] == label_of[heads], local_of[tails], s)
            wide = np.zeros((len(members), r, m * (s + 1)))
            wide[b, i, m * local_of[heads][..., None] + cols] = -z[edges]
            s2 = wide[..., : m * s].copy()
            wide[b, i, m * tail_at[..., None] + cols] = z[edges]
            rigidity = wide[..., : m * s]
            sv = np.linalg.svd(rigidity, compute_uv=False)
            eigenvalues = np.linalg.eigvals(-rigidity @ s2.transpose(0, 2, 1)).ravel()
        stacks.append(BlockStack(_count_rank(sv, (r, m * s)), sv, eigenvalues))
    return tuple(stacks)


def rigid_rank_target(n: int, dim: int) -> int:
    """Rank the rigidity matrix attains at an infinitesimally rigid embedding:
    every pair's edge for n <= dim (a simplex), else dim n - dim (dim + 1) / 2."""
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if n < 2:
        raise ValueError(f"{dim}-D rigidity test needs n >= 2")
    return n * (n - 1) // 2 if n <= dim else dim * n - dim * (dim + 1) // 2


def is_infinitesimally_rigid(fw: Framework) -> tuple[bool, int]:
    """Rank-based rigidity verdict plus the measured rank."""
    rank = fw.rigidity_rank
    return rank == rigid_rank_target(fw.graph.n, fw.dim), rank


def is_minimally_rigid(fw: Framework) -> bool:
    """Infinitesimally rigid with no spare edges."""
    rigid, _ = is_infinitesimally_rigid(fw)
    return rigid and fw.graph.edge_count == rigid_rank_target(fw.graph.n, fw.dim)


def _check_steps(anchors: np.ndarray, distances: np.ndarray) -> None:
    """Check a table of steps, one per row, raising for the first step
    whose anchors are too few or too many, repeat a vertex, or lack one
    positive finite distance each."""
    if not len(anchors):
        return
    if anchors.shape[1] not in (2, 3):
        raise ValueError("a step anchors to 2 (2-D) or 3 (3-D) existing vertices")
    ordered = anchors.copy()
    ordered.sort(axis=1)
    repeats = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if distances.shape[1] != anchors.shape[1] and not repeats[0]:
        raise ValueError("one distance per anchor")  # the first step's first failure
    bad = repeats | ~((distances > 0) & (distances < math.inf)).all(axis=1)  # NaN fails both
    if np.count_nonzero(bad):
        raise ValueError("step anchors must be distinct" if repeats[bad.argmax()] else
                         "step distances must be positive and finite")


_PAIRS = np.array(((0, 0, 1), (1, 2, 2)))
_SEED_EDGES = {2: np.array(((1, 2),)),
               3: np.array(((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)))}


def _check_growth(dim: int, anchors: np.ndarray) -> None:
    """Raise at the first step whose anchors do not exist yet or, in 3-D,
    are not pairwise adjacent so far.  Each edge joins a vertex to one of
    the anchors of its insertion, so two existing vertices are adjacent
    when both are seed vertices or the lower anchored the higher."""
    first, count = (3 if dim == 2 else 5), len(anchors)  # the vertex step 0 inserts
    flags = (anchors < 1) | (anchors >= np.arange(first, first + count)[:, None])
    if dim == 3:  # then per step its pairs (a, b), (a, c), (b, c) that are not adjacent
        if anchors.dtype == object:  # Python ints beyond int64 fail the test above
            anchors = np.clip(anchors, 0, first + count).astype(np.intp)
        pairs = anchors.take(_PAIRS, axis=1)  # (a, a, b) over (b, c, c), each column sorted
        pairs.sort(axis=1)
        low, high = pairs[:, 0], pairs[:, 1]
        inserted = anchors[(high - first) % max(count, 1)]  # moot unless high >= first
        apart = (high >= first) & ~(inserted == low[..., None]).any(axis=2)
        flags = np.concatenate((flags, apart), axis=1)
    if np.count_nonzero(flags):
        k, j = divmod(int(flags.argmax()), flags.shape[1])
        pair = tuple(anchors[k, [(0, 1), (0, 2), (1, 2)][j - dim]].tolist()) if j >= dim else None
        raise ValueError(f"step inserting vertex {first + k}: " + (
            f"anchors {pair} are not adjacent" if pair else "anchors must already exist"))


class ConstructionTrace(_Tables):
    """Vertex-insertion recipe for a minimally rigid formation.

    2-D traces start from the single edge {1,2}; 3-D traces start from the
    tetrahedron on {1,2,3,4} with seed_distances ordered
    (d12, d13, d23, d14, d24, d34).  Step t inserts vertex seed+t anchored
    to vertices that already exist; in 3-D the three anchors must be
    pairwise adjacent in the graph built so far.  The steps' anchors and
    distances are listed one step after another, counts[i] of each at
    step i (a count other than dim raises once the steps before it pass),
    and kept as the read-only (steps, dim) tables `anchors` and `distances`.
    """

    def __init__(self, dim: int, seed_distances, counts=(), anchors=(), distances=()):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        seed = tuple(map(float, seed_distances))
        if len(seed) != (1 if dim == 2 else 6):
            raise ValueError(f"{dim}-D seed needs exactly {1 if dim == 2 else 6} distances")
        if not all(map(math.isfinite, seed)) or min(seed) <= 0:
            raise ValueError("seed distances must be positive and finite")
        need = int(np.sum(counts))
        for name, size in ("anchors", len(anchors)), ("distances", len(distances)):
            if size != need:
                raise ValueError(f"{name}: {size} values, counts need {need}")
        wrong = (np.asarray(counts) != dim).nonzero()[0]
        good = int(wrong[0]) if wrong.size else len(counts)  # the steps before the first
        table = _integers(anchors)[: good * dim].reshape(good, dim)
        lengths = np.array(distances, dtype=float)[: good * dim].reshape(good, dim)  # a copy
        _check_steps(table, lengths)
        _check_growth(dim, table)
        if wrong.size:
            raise ValueError(f"step inserting vertex {(3 if dim == 2 else 5) + good}: "
                             f"needs {dim} anchors")
        self.dim, self.seed_distances = dim, seed
        self.anchors, self.distances = _read_only(table.astype(np.intp)), _read_only(lengths)

    def _key(self):
        return self.dim, self.seed_distances, self.anchors, self.distances

    @property
    def n(self) -> int:
        return (2 if self.dim == 2 else 4) + len(self.anchors)

    @cached_property
    def endpoints(self) -> np.ndarray:
        """(tail, head) pairs in construction order, a read-only (|E|, 2) table.

        Every inserted edge is estimated by its anchor endpoint.  The 2-D
        seed edge is estimated by vertex 1; the seed tetrahedron fixes tails
        (1, 1, 2, 1, 2, 3), which the tetrahedron selection rule in
        `analysis` reads from the same table.
        """
        heads = np.repeat(np.arange(3 if self.dim == 2 else 5, self.n + 1), self.dim)
        inserted = np.array((self.anchors.ravel(), heads)).T
        return _read_only(np.concatenate((_SEED_EDGES[self.dim], inserted)))


def trace_graph(trace: ConstructionTrace) -> FormationGraph:
    """Oriented graph of a trace: its vertices and `trace.endpoints`."""
    return FormationGraph(trace.n, trace.endpoints)


def trace_distances(trace: ConstructionTrace) -> np.ndarray:
    """Edge lengths in the same order as trace_graph's edges, read-only."""
    return _read_only(np.concatenate((trace.seed_distances, trace.distances.ravel())))


def _squared_norms(d) -> np.ndarray:
    # per row, the dot routine np.linalg.norm uses (einsum rounds differently): bitwise equal
    return (d[:, None, :] @ d[:, :, None]).ravel()


def _min_gap(placed, cand) -> float:
    return math.sqrt(_squared_norms(placed - cand).min())


class _GapGrid:
    """The placed points as Python floats, binned in cells a hair over one
    gap wide: a point within a gap of a candidate lies in the candidate's
    cell or a neighbour of it, so each cell keeps the points of its 3**dim
    block, one dict lookup from any candidate in it.  The hair, 1e-9 of a
    gap, outweighs the rounding of any cell index.
    """

    def __init__(self, gap, points):
        self.gap = gap
        self.scale = 1.0 / (gap * (1.0 + 1e-9))
        # math.dist and the BLAS dot under _min_gap differ by a few ulps
        self.close, self.clear = gap * (1.0 - 1e-12), gap * (1.0 + 1e-12)
        self.blocks = {}
        for p in points:
            self.add(p)

    def add(self, p):
        cell = [math.floor(x * self.scale) for x in p]
        for key in product(*[(k - 1, k, k + 1) for k in cell]):
            self.blocks.setdefault(key, []).append(p)

    def crowds(self, p, placed) -> bool:
        """_min_gap(placed, p) < gap, from p's block unless its nearest
        point lies within the margin of the gap."""
        block = self.blocks.get(tuple([math.floor(x * self.scale) for x in p]))
        if not block:
            return False
        nearest = min(map(math.dist, block, repeat(p)))
        if nearest < self.close:
            return True
        if nearest > self.clear:
            return False
        return _min_gap(placed, np.array(p)) < self.gap


def _too_flat(legs) -> bool:
    """abs(np.linalg.det(legs)) / 6.0 < 0.3, the volume test of a
    tetrahedron with edges `legs` at a vertex, from the triple product in
    floats unless that lies within 1e-9 of the Hadamard bound |u| |v| |w|
    of the threshold: it and det's LU product differ by far less."""
    (u0, u1, u2), (v0, v1, v2), (w0, w1, w2) = legs
    triple = u0 * (v1 * w2 - v2 * w1) + u1 * (v2 * w0 - v0 * w2) + u2 * (v0 * w1 - v1 * w0)
    hadamard = math.sqrt((u0 * u0 + u1 * u1 + u2 * u2) * (v0 * v0 + v1 * v1 + v2 * v2)
                         * (w0 * w0 + w1 * w1 + w2 * w2))
    if abs(abs(triple) - 1.8) > 1e-9 * hadamard:
        return abs(triple) < 1.8
    return abs(np.linalg.det(np.array(legs))) / 6.0 < 0.3


def _trace(dim, anchors, pts) -> ConstructionTrace:
    """The trace of a draw: its anchors, listed step after step, with the
    seed's and each anchor's distance measured in the embedding pts."""
    seed = [float(np.linalg.norm(pts[i - 1] - pts[j - 1])) for i, j in _SEED_EDGES[dim]]
    placed = np.repeat(np.arange(2 if dim == 2 else 4, len(pts)), dim)  # each step's vertex
    legs = pts[placed] - pts[np.array(anchors, dtype=np.intp) - 1]
    return ConstructionTrace(dim, seed, [dim] * (len(anchors) // dim), anchors,
                             np.sqrt(_squared_norms(legs)))


_PROPOSALS_2D = 500  # per vertex, before the outward fallback takes over


class _Draws:
    """The scalar draws of a PCG64 Generator, read off its bit generator's
    raw 64-bit words in blocks: each method serves what the Generator's
    method of that name serves, from the same stream, at a fraction of
    its per-call cost.  `integers(high)`, for 1 <= high < 2**32, is
    Lemire's multiply-and-reject on 32-bit half-words, low half first,
    the high half buffered as PCG64 buffers it (`has_uint32`, `uinteger`);
    `random()` is a word's top 53 bits times 2**-53.  `restore()` leaves
    the generator where those calls would have: its entry state advanced
    by the words used, with their buffered half-word.
    """

    def __init__(self, rng):
        bits = getattr(rng, "bit_generator", None)
        if type(bits) is not np.random.PCG64:
            raise ValueError("random_trace needs a numpy Generator over PCG64, "
                             "as np.random.default_rng makes")
        state = bits.state
        self.bits, self.buffered, self.half = bits, state["has_uint32"], state["uinteger"]
        self.fetched = 0
        self.words = iter(())
        self.next_word = self.words.__next__

    def _refill(self) -> int:
        block = min(max(16, self.fetched), 1024)  # a list while used: 4096 words cost 90 KiB
        self.fetched += block
        self.words = iter(self.bits.random_raw(block).tolist())
        self.next_word = self.words.__next__
        return self.next_word()

    def integers(self, high: int) -> int:
        if high == 1:
            return 0  # numpy draws nothing for a one-value range
        while True:
            if self.buffered:
                self.buffered, x = 0, self.half
            else:
                try:
                    word = self.next_word()
                except StopIteration:
                    word = self._refill()
                self.buffered, self.half, x = 1, word >> 32, word & 0xFFFFFFFF
            m = x * high
            low = m & 0xFFFFFFFF
            # reject the low words below 2**32 % high, which is < high
            if low >= high or low >= 0x100000000 % high:
                return m >> 32

    def uniform(self, low: float, high: float) -> float:
        try:
            word = self.next_word()
        except StopIteration:
            word = self._refill()
        return low + (high - low) * ((word >> 11) * 2.0**-53)

    def random(self) -> float:
        return self.uniform(0.0, 1.0)  # 0.0 + 1.0 * u is u

    def restore(self) -> None:
        # step back over the words fetched but not used; advance wraps mod 2**128
        self.bits.advance(-operator.length_hint(self.words))
        state = self.bits.state  # advance emptied the half-word buffer
        state["has_uint32"], state["uinteger"] = self.buffered, self.half
        self.bits.state = state


def _anchor_pair(m, rng: _Draws) -> tuple[int, int]:
    """The sorted pair rng.choice(m, 2, replace=False) draws, from the same
    stream: Floyd's algorithm's two bounded integers, then the one the
    two-element shuffle draws (the order it sets is discarded)."""
    a = rng.integers(m - 1)
    b = rng.integers(m)
    if b == a:
        b = m - 1
    rng.integers(2)
    return (a, b) if a < b else (b, a)


def _outward_proposal(placed, rng: _Draws):
    """Anchors: the vertex furthest along a random direction and a random
    other one; candidate: a step of 0.7 to 1.5 from the first, within 60
    degrees of that direction.  The step gains at least half its length
    along the direction, so no placed vertex lies within 0.35 of the
    candidate, however crowded the formation is."""
    direction = rng.uniform(0.0, 2.0 * math.pi)
    a = int(np.argmax(placed @ np.array([math.cos(direction), math.sin(direction)])))
    b = rng.integers(len(placed) - 1)
    b += b >= a  # any vertex but a
    angle = direction + rng.uniform(-math.pi / 3.0, math.pi / 3.0)
    radius = rng.uniform(0.7, 1.5)
    cand = placed[a] + radius * np.array([math.cos(angle), math.sin(angle)])
    return min(a, b), max(a, b), cand


def random_trace(n: int, dim: int, rng) -> tuple[ConstructionTrace, np.ndarray]:
    """Random trace on n vertices together with an embedding realizing it.

    rng is a numpy Generator over PCG64, as np.random.default_rng makes;
    one over another bit generator is refused.  The draw takes what the
    numpy-array sampler took from it, and leaves it in the same state.

    Geometry guards (minimum vertex separation, anchor triangle area,
    tetrahedron volume) keep the sampled embeddings away from degenerate
    configurations so downstream rank and spectrum checks stay clean.

    Proposals work in Python floats on scalar draws that `_Draws` reads off
    the generator's raw words: `_anchor_pair` consumes what
    `rng.choice(m, 2, replace=False)` did, and the candidate repeats
    `rng.uniform`'s own arithmetic.  The separation test decides as
    `_min_gap(placed, cand) < gap` would.  A `_GapGrid` block holds every
    placed point within a gap of the candidate.  `math.dist` and the BLAS
    dot under `_min_gap` differ by a few ulps, far inside the grid's 1e-12
    relative margin.  So a nearest distance below the margin rejects, one
    above it accepts, and only a distance within it goes to `_min_gap`
    itself.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if n < 2 * dim - 2:
        raise ValueError(f"{dim}-D trace needs n >= {2 * dim - 2}")
    draws = _Draws(rng)
    try:
        return (_sample_2d if dim == 2 else _sample_3d)(n, draws)
    finally:
        draws.restore()


def _sample_2d(n: int, rng: _Draws) -> tuple[ConstructionTrace, np.ndarray]:
    pts = np.zeros((n, 2))  # rows below m are placed
    pts[1, 0] = rng.uniform(1.0, 2.0)
    coords = pts.tolist()  # the same rows as Python floats
    grid = _GapGrid(0.35, coords[:2])
    anchors = []  # each step's two, one step after another
    for m in range(2, n):
        for attempt in range(2 * _PROPOSALS_2D):
            if attempt < _PROPOSALS_2D:
                # anchors: a random pair; candidate: a random step off their midpoint
                a, b = _anchor_pair(m, rng)
                (xa, ya), (xb, yb) = coords[a], coords[b]
                angle = rng.uniform(0.0, 2.0 * math.pi)
                radius = rng.uniform(0.7, 1.5)
                cx = 0.5 * (xa + xb) + radius * math.cos(angle)
                cy = 0.5 * (ya + yb) + radius * math.sin(angle)
            else:
                a, b, cand = _outward_proposal(pts[:m], rng)
                (xa, ya), (xb, yb) = coords[a], coords[b]
                cx, cy = cand.tolist()
            if 0.5 * abs((xb - xa) * (cy - ya) - (yb - ya) * (cx - xa)) < 0.25:
                continue
            if grid.crowds((cx, cy), pts[:m]):
                continue
            anchors += (a + 1, b + 1)
            pts[m] = cx, cy
            coords[m] = (cx, cy)
            grid.add(coords[m])
            break
        else:
            raise RuntimeError("2-D trace sampling stalled")
    return _trace(2, anchors, pts), pts


def _sample_3d(n: int, rng: _Draws) -> tuple[ConstructionTrace, np.ndarray]:
    for _attempt in range(500):
        pts = [
            np.zeros(3),
            np.array([rng.uniform(1.2, 2.2), 0.0, 0.0]),
            np.array([rng.uniform(-0.5, 2.5), rng.uniform(0.8, 2.2), 0.0]),
            np.array([rng.uniform(-0.5, 2.5), rng.uniform(-0.3, 2.0), rng.uniform(0.8, 2.2)]),
        ]
        gaps = [float(np.linalg.norm(p - q)) for i, p in enumerate(pts) for q in pts[:i]]
        if min(gaps) < 0.4:
            continue
        if not _too_flat([(pts[k] - pts[0]).tolist() for k in (1, 2, 3)]):
            break
    else:
        raise RuntimeError("3-D seed sampling stalled")

    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    pts = np.vstack([pts, np.empty((n - 4, 3))])  # rows below m are placed
    coords = pts[:4].tolist()  # the placed rows as Python floats
    grid = _GapGrid(0.4, coords)
    anchors = []  # each step's three, one step after another
    for m in range(4, n):
        for _attempt in range(500):
            a, b, c = triangles[rng.integers(len(triangles))]
            (xa, ya, za), (xb, yb, zb), (xc, yc, zc) = coords[a], coords[b], coords[c]
            # the centroid plus rng.uniform(-1.4, 1.4, size=3)
            p = ((xa + xb + xc) / 3.0 + rng.uniform(-1.4, 1.4),
                 (ya + yb + yc) / 3.0 + rng.uniform(-1.4, 1.4),
                 (za + zb + zc) / 3.0 + rng.uniform(-1.4, 1.4))
            if grid.crowds(p, pts[:m]):
                continue
            legs = ((xb - xa, yb - ya, zb - za), (xc - xa, yc - ya, zc - za),
                    (p[0] - xa, p[1] - ya, p[2] - za))  # the tetrahedron's edges at a
            if _too_flat(legs):
                continue
            anchors += (a + 1, b + 1, c + 1)
            triangles.extend([(a, b, m), (a, c, m), (b, c, m)])
            pts[m] = p
            coords.append(p)
            grid.add(p)
            break
        else:
            raise RuntimeError("3-D trace sampling stalled")
    return _trace(3, anchors, pts), pts
