"""Graphs, frameworks, and rank-based rigidity tests.

A formation is an undirected graph embedded in the plane or in space.
Each edge additionally carries one distinguished endpoint, its estimating
agent, stored as the edge's tail.  The orientation never changes the
geometry; it decides which endpoint owns the edge's measurement
bookkeeping in the closed loop (`sim`) and the analysis module.

All matrices produced here follow the graph's edge order, so stacked
quantities (errors, disturbances, estimator states) line up index for
index across the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Singular values below RANK_TOL * sigma_max * max(shape) do not count
# toward numeric rank.
RANK_TOL = 1e-10

# Relative slack below which an intersection construction is treated as
# collinear/coplanar and rejected as a non-regular placement.
_DEGENERACY_REL = 1e-9


class _DegenerateEmbedding(Exception):
    """Internal: a trace step has no usable intersection point."""


@dataclass(frozen=True)
class FormationGraph:
    """Undirected graph on vertices 1..n with one estimating agent per edge.

    Edges are (tail, head) pairs; the tail is the estimating agent.  Edge
    order is significant and preserved by every matrix built from the graph.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ValueError("vertex count must be an integer >= 2")
        object.__setattr__(self, "n", int(self.n))
        edges = tuple((int(t), int(h)) for t, h in self.edges)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for k, (tail, head) in enumerate(edges, start=1):
            if not (1 <= tail <= self.n and 1 <= head <= self.n):
                raise ValueError(f"edge {k}: endpoints must lie in 1..{self.n}")
            if tail == head:
                raise ValueError(f"edge {k}: self-loop at vertex {tail}")
            pair = frozenset((tail, head))
            if pair in seen:
                raise ValueError(f"edge {k}: duplicate undirected edge {{{tail},{head}}}")
            seen.add(pair)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def tails(self) -> np.ndarray:
        """Zero-based estimating-agent index per edge."""
        a = np.array([t - 1 for t, _ in self.edges], dtype=np.intp)
        a.setflags(write=False)
        return a

    @cached_property
    def heads(self) -> np.ndarray:
        """Zero-based non-estimating endpoint index per edge."""
        a = np.array([h - 1 for _, h in self.edges], dtype=np.intp)
        a.setflags(write=False)
        return a

    def undirected_edges(self) -> frozenset:
        return frozenset(frozenset(e) for e in self.edges)


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
        pos.setflags(write=False)
        dist.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "target_distances", dist)

    @cached_property
    def relative_vectors(self) -> np.ndarray:
        """z_k = x_tail - x_head, one row per edge."""
        z = self.positions[self.graph.tails] - self.positions[self.graph.heads]
        z.setflags(write=False)
        return z

    def at_positions(self, positions) -> "Framework":
        """Same graph and distances, different embedding."""
        return Framework(self.graph, self.dim, positions, self.target_distances)


def edge_function(fw: Framework) -> np.ndarray:
    """Squared length of every edge, in edge order."""
    z = fw.relative_vectors
    return np.einsum("kd,kd->k", z, z)


def rigidity_matrix(fw: Framework) -> np.ndarray:
    """|E| x (dim*n) matrix with +z_k in the tail block and -z_k in the head block.

    This is half the Jacobian of edge_function: rank tests are unaffected
    by the factor while the error dynamics read e_dot = 2 R x_dot.
    """
    g = fw.graph
    z = fw.relative_vectors
    m = fw.dim
    out = np.zeros((g.edge_count, m * g.n))
    rows = np.arange(g.edge_count)[:, None]
    cols = np.arange(m)[None, :]
    out[rows, m * g.tails[:, None] + cols] = z
    out[rows, m * g.heads[:, None] + cols] = -z
    return out


def s1_matrix(fw: Framework) -> np.ndarray:
    """Row k carries z_k in the tail block only (the estimating agent's share)."""
    g = fw.graph
    z = fw.relative_vectors
    m = fw.dim
    out = np.zeros((g.edge_count, m * g.n))
    rows = np.arange(g.edge_count)[:, None]
    cols = np.arange(m)[None, :]
    out[rows, m * g.tails[:, None] + cols] = z
    return out


def s2_matrix(fw: Framework) -> np.ndarray:
    """Row k carries -z_k in the head block only.

    Supports are disjoint from s1_matrix, so s1_matrix + s2_matrix equals
    rigidity_matrix exactly, not just to rounding.
    """
    g = fw.graph
    z = fw.relative_vectors
    m = fw.dim
    out = np.zeros((g.edge_count, m * g.n))
    rows = np.arange(g.edge_count)[:, None]
    cols = np.arange(m)[None, :]
    out[rows, m * g.heads[:, None] + cols] = -z
    return out


def numeric_rank(matrix, tol: float = RANK_TOL) -> int:
    """Count of singular values above the scaled threshold."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("rank is defined for 2-D matrices")
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0] * max(a.shape)))


def rigid_rank_target(n: int, dim: int) -> int:
    """Rank the rigidity matrix attains at an infinitesimally rigid embedding."""
    if dim == 2:
        if n < 2:
            raise ValueError("2-D rigidity test needs n >= 2")
        return 2 * n - 3
    if dim == 3:
        if n < 3:
            raise ValueError("3-D rigidity test needs n >= 3")
        return 3 * n - 6
    raise ValueError("dim must be 2 or 3")


def is_infinitesimally_rigid(fw: Framework, tol: float = RANK_TOL) -> tuple[bool, int]:
    """Rank-based rigidity verdict plus the measured rank."""
    target = rigid_rank_target(fw.graph.n, fw.dim)
    rank = numeric_rank(rigidity_matrix(fw), tol)
    return rank == target, rank


def is_minimally_rigid(fw: Framework, tol: float = RANK_TOL) -> bool:
    """Infinitesimally rigid with no spare edges."""
    rigid, _ = is_infinitesimally_rigid(fw, tol)
    return rigid and fw.graph.edge_count == rigid_rank_target(fw.graph.n, fw.dim)


@dataclass(frozen=True)
class InsertionStep:
    """One new vertex: two anchors in 2-D, three pairwise adjacent anchors in 3-D."""

    anchors: tuple[int, ...]
    distances: tuple[float, ...]

    def __post_init__(self):
        anchors = tuple(int(a) for a in self.anchors)
        distances = tuple(float(d) for d in self.distances)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "distances", distances)
        if len(anchors) not in (2, 3):
            raise ValueError("a step anchors to 2 (2-D) or 3 (3-D) existing vertices")
        if len(set(anchors)) != len(anchors):
            raise ValueError("step anchors must be distinct")
        if len(distances) != len(anchors):
            raise ValueError("one distance per anchor")
        if any(not math.isfinite(d) or d <= 0 for d in distances):
            raise ValueError("step distances must be positive and finite")


_SEED_EDGES_3D = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))


@dataclass(frozen=True)
class ConstructionTrace:
    """Vertex-insertion recipe for a minimally rigid formation.

    2-D traces start from the single edge {1,2}; 3-D traces start from the
    tetrahedron on {1,2,3,4} with seed_distances ordered
    (d12, d13, d23, d14, d24, d34).  Step t inserts vertex seed+t anchored
    to vertices that already exist; in 3-D the three anchors must be
    pairwise adjacent in the graph built so far.
    """

    dim: int
    seed_distances: tuple[float, ...]
    steps: tuple[InsertionStep, ...] = ()

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        seed = tuple(float(d) for d in self.seed_distances)
        object.__setattr__(self, "seed_distances", seed)
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        want = 1 if self.dim == 2 else 6
        if len(seed) != want:
            raise ValueError(f"{self.dim}-D seed needs exactly {want} distances")
        if any(not math.isfinite(d) or d <= 0 for d in seed):
            raise ValueError("seed distances must be positive and finite")
        seed_n = 2 if self.dim == 2 else 4
        adjacency = {frozenset(e) for e in (((1, 2),) if self.dim == 2 else _SEED_EDGES_3D)}
        next_vertex = seed_n + 1
        for step in steps:
            if not isinstance(step, InsertionStep):
                raise ValueError("steps must be InsertionStep instances")
            if len(step.anchors) != self.dim:
                raise ValueError(
                    f"step inserting vertex {next_vertex}: needs {self.dim} anchors"
                )
            if any(a < 1 or a >= next_vertex for a in step.anchors):
                raise ValueError(
                    f"step inserting vertex {next_vertex}: anchors must already exist"
                )
            if self.dim == 3:
                a, b, c = step.anchors
                for pair in ((a, b), (a, c), (b, c)):
                    if frozenset(pair) not in adjacency:
                        raise ValueError(
                            f"step inserting vertex {next_vertex}: anchors {pair} are not adjacent"
                        )
            for a in step.anchors:
                adjacency.add(frozenset((a, next_vertex)))
            next_vertex += 1

    @property
    def n(self) -> int:
        return (2 if self.dim == 2 else 4) + len(self.steps)


def trace_graph(trace: ConstructionTrace) -> FormationGraph:
    """Oriented graph of a trace, edges in construction order.

    Every inserted edge is estimated by its anchor endpoint.  The 2-D seed
    edge is estimated by vertex 1; the seed tetrahedron fixes tails
    (1, 1, 2, 1, 2, 3), the same pattern the tetrahedron selection rule in
    `analysis` produces.
    """
    if trace.dim == 2:
        edges = [(1, 2)]
        next_vertex = 3
    else:
        edges = list(_SEED_EDGES_3D)
        next_vertex = 5
    for step in trace.steps:
        edges.extend((a, next_vertex) for a in step.anchors)
        next_vertex += 1
    return FormationGraph(trace.n, tuple(edges))


def trace_distances(trace: ConstructionTrace) -> tuple[float, ...]:
    """Edge lengths in the same order as trace_graph's edges."""
    out = list(trace.seed_distances)
    for step in trace.steps:
        out.extend(step.distances)
    return tuple(out)


def _intersect_circles(pa, pb, ra, rb, sign):
    span = pb - pa
    base = float(np.linalg.norm(span))
    if base < _DEGENERACY_REL:
        raise _DegenerateEmbedding("anchor vertices coincide")
    along = (ra * ra - rb * rb + base * base) / (2.0 * base)
    h_sq = ra * ra - along * along
    if h_sq <= _DEGENERACY_REL * ra * ra:
        raise _DegenerateEmbedding(
            "circles meet nowhere or only on the anchor line (collinear placement)"
        )
    u = span / base
    normal = np.array([-u[1], u[0]])
    return pa + along * u + sign * math.sqrt(h_sq) * normal


def _intersect_spheres(pa, pb, pc, ra, rb, rc, sign):
    ex = pb - pa
    base = float(np.linalg.norm(ex))
    if base < _DEGENERACY_REL:
        raise _DegenerateEmbedding("anchor vertices coincide")
    ex = ex / base
    ac = pc - pa
    i = float(ex @ ac)
    ey = ac - i * ex
    ey_norm = float(np.linalg.norm(ey))
    if ey_norm <= _DEGENERACY_REL * max(base, 1.0):
        raise _DegenerateEmbedding("anchor triangle is collinear")
    ey = ey / ey_norm
    j = float(ey @ ac)
    px = (ra * ra - rb * rb + base * base) / (2.0 * base)
    py = (ra * ra - rc * rc + i * i + j * j - 2.0 * i * px) / (2.0 * j)
    h_sq = ra * ra - px * px - py * py
    if h_sq <= _DEGENERACY_REL * ra * ra:
        raise _DegenerateEmbedding(
            "spheres meet nowhere or only in the anchor plane (coplanar placement)"
        )
    ez = np.cross(ex, ey)
    return pa + px * ex + py * ey + sign * math.sqrt(h_sq) * ez


def _embed_trace(trace: ConstructionTrace, pick_sign):
    if trace.dim == 2:
        d12 = trace.seed_distances[0]
        pts = [np.zeros(2), np.array([d12, 0.0])]
        for step in trace.steps:
            a, b = step.anchors
            ra, rb = step.distances
            pts.append(_intersect_circles(pts[a - 1], pts[b - 1], ra, rb, pick_sign()))
    else:
        d12, d13, d23, d14, d24, d34 = trace.seed_distances
        p1 = np.zeros(3)
        p2 = np.array([d12, 0.0, 0.0])
        along = (d13 * d13 - d23 * d23 + d12 * d12) / (2.0 * d12)
        h_sq = d13 * d13 - along * along
        if h_sq <= _DEGENERACY_REL * d13 * d13:
            raise _DegenerateEmbedding("seed base triangle is collinear")
        p3 = np.array([along, math.sqrt(h_sq), 0.0])
        p4 = _intersect_spheres(p1, p2, p3, d14, d24, d34, pick_sign())
        pts = [p1, p2, p3, p4]
        for step in trace.steps:
            a, b, c = step.anchors
            ra, rb, rc = step.distances
            pts.append(
                _intersect_spheres(pts[a - 1], pts[b - 1], pts[c - 1], ra, rb, rc, pick_sign())
            )
    return np.array(pts)


def build_from_trace(trace: ConstructionTrace, placement="positive", *, rng=None,
                     max_retries: int = 100) -> Framework:
    """Embed a trace and return the framework, verified infinitesimally rigid.

    placement is "positive" (every branch choice takes the positively
    oriented intersection, fully deterministic), "random" (branch signs
    drawn from rng and rejection-sampled against the rank test, at most
    max_retries attempts), or an explicit (n, dim) coordinate array, which
    is checked against the trace distances before the rank test.
    """
    graph = trace_graph(trace)
    distances = np.array(trace_distances(trace))

    if not isinstance(placement, str):
        fw = Framework(graph, trace.dim, np.asarray(placement, dtype=float), distances)
        lengths = np.sqrt(edge_function(fw))
        if (np.abs(lengths - distances) > 1e-9 * np.maximum(distances, 1.0)).any():
            raise ValueError("explicit placement does not realize the trace distances")
        rigid, rank = is_infinitesimally_rigid(fw)
        if not rigid:
            raise ValueError(f"explicit placement is a non-regular embedding (rank {rank})")
        return fw

    if placement == "positive":
        attempts = 1

        def pick_sign():
            return 1.0

    elif placement == "random":
        if rng is None:
            rng = np.random.default_rng()
        attempts = max(int(max_retries), 1)

        def pick_sign():
            return float(rng.choice((-1.0, 1.0)))

    else:
        raise ValueError("placement must be 'positive', 'random', or a coordinate array")

    failure = "no attempt made"
    for _ in range(attempts):
        try:
            pts = _embed_trace(trace, pick_sign)
        except _DegenerateEmbedding as exc:
            failure = str(exc)
            continue
        fw = Framework(graph, trace.dim, pts, distances)
        rigid, rank = is_infinitesimally_rigid(fw)
        if rigid:
            return fw
        failure = f"rank {rank}, non-regular placement"
    raise ValueError(f"could not realize the trace after {attempts} attempt(s): {failure}")


def _min_gap(pts, cand) -> float:
    return min(float(np.linalg.norm(cand - p)) for p in pts)


def random_trace(n: int, dim: int, rng) -> tuple[ConstructionTrace, np.ndarray]:
    """Random trace on n vertices together with an embedding realizing it.

    Geometry guards (minimum vertex separation, anchor triangle area,
    tetrahedron volume) keep the sampled embeddings away from degenerate
    configurations so downstream rank and spectrum checks stay clean.
    """
    if dim == 2:
        if n < 2:
            raise ValueError("2-D trace needs n >= 2")
        pts = [np.zeros(2), np.array([float(rng.uniform(1.0, 2.0)), 0.0])]
        steps = []
        for _ in range(n - 2):
            for _attempt in range(500):
                a, b = sorted(int(v) for v in rng.choice(len(pts), size=2, replace=False))
                mid = 0.5 * (pts[a] + pts[b])
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                radius = float(rng.uniform(0.7, 1.5))
                cand = mid + radius * np.array([math.cos(angle), math.sin(angle)])
                span = pts[b] - pts[a]
                off = cand - pts[a]
                if 0.5 * abs(span[0] * off[1] - span[1] * off[0]) < 0.25:
                    continue
                if _min_gap(pts, cand) < 0.35:
                    continue
                steps.append(InsertionStep(
                    (a + 1, b + 1),
                    (float(np.linalg.norm(cand - pts[a])), float(np.linalg.norm(cand - pts[b]))),
                ))
                pts.append(cand)
                break
            else:
                raise RuntimeError("2-D trace sampling stalled")
        trace = ConstructionTrace(2, (float(np.linalg.norm(pts[1] - pts[0])),), tuple(steps))
        return trace, np.array(pts)

    if dim != 3:
        raise ValueError("dim must be 2 or 3")
    if n < 4:
        raise ValueError("3-D trace needs n >= 4")
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
    steps = []
    for _ in range(n - 4):
        for _attempt in range(500):
            a, b, c = triangles[int(rng.integers(len(triangles)))]
            centroid = (pts[a] + pts[b] + pts[c]) / 3.0
            cand = centroid + rng.uniform(-1.4, 1.4, size=3)
            if _min_gap(pts, cand) < 0.4:
                continue
            vol = abs(np.linalg.det(np.array([pts[b] - pts[a], pts[c] - pts[a], cand - pts[a]]))) / 6.0
            if vol < 0.3:
                continue
            new = len(pts)
            steps.append(InsertionStep(
                (a + 1, b + 1, c + 1),
                tuple(float(np.linalg.norm(cand - pts[v])) for v in (a, b, c)),
            ))
            triangles.extend([(a, b, new), (a, c, new), (b, c, new)])
            pts.append(cand)
            break
        else:
            raise RuntimeError("3-D trace sampling stalled")

    seed_pairs = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))
    seed = tuple(float(np.linalg.norm(pts[i] - pts[j])) for i, j in seed_pairs)
    trace = ConstructionTrace(3, seed, tuple(steps))
    return trace, np.array(pts)
