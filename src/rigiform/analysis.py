"""Certification of target formations: spectra and estimator placement.

The gradient flow linearized at a target framework acts on the edge errors
through an |E|-square matrix -R S2^T built from the rigidity and
tail-scatter operators.  Certifying a target means checking infinitesimal
rigidity plus a negative spectral margin for that matrix, at the fixed
RANK_TOL and HURWITZ_TOL; `certificate` alone makes that decision.  It
never forms the |E|-square matrix: with edges grouped by the strongly
connected component of their head, R and -R S2^T are block
lower-triangular, so the spectrum is the union of the diagonal blocks'
spectra, which `Framework.diagonal_blocks` takes in the same pass as the
blocks' ranks, behind one size guard.  Estimator placement rules map each
edge to the agent that runs its internal-model unit, which fixes the edge
orientations the controller uses: the construction-order rules
(`_TRACE_DIMS`) keep the trace's, the others read an owner table by pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .rigidity import (
    _SEED_EDGES,
    ConstructionTrace,
    Framework,
    FormationGraph,
    consistent_errors,
    is_infinitesimally_rigid,
    rigid_rank_target,
    rigidity_matrix,
    s2_matrix,
    trace_graph,
)

HURWITZ_TOL = 1e-9

_NOT_RIGID = ("framework is not infinitesimally rigid; the error dynamics "
              "cannot have a full negative spectrum")


def is_hurwitz(matrix) -> tuple[bool, float]:
    """(verdict, spectral margin): margin is the largest eigenvalue real part,
    and the verdict requires it below -HURWITZ_TOL."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix must be finite")
    margin = float(np.max(np.linalg.eigvals(m).real))
    return margin < -HURWITZ_TOL, margin


def _require_own_distances(framework: Framework) -> None:
    """Raise ValueError unless every edge's squared length matches its
    target's square to 1e-9 relative."""
    e = consistent_errors(framework)
    if not (np.abs(e) < 1e-9 * framework.target_distances ** 2).all():
        raise ValueError("framework does not satisfy its edge distances")


def stability_matrix(framework: Framework) -> np.ndarray:
    """|E|-square error-dynamics matrix -R S2^T at a target framework.

    Entry (k, l) couples edge k's error rate to edge l's error.  The
    framework must satisfy its own distances (each squared length within
    1e-9 relative of its target's); a rank-deficient framework only
    triggers a warning because the matrix is still well defined there.
    """
    _require_own_distances(framework)
    if not is_infinitesimally_rigid(framework)[0]:
        warnings.warn(_NOT_RIGID, RuntimeWarning, stacklevel=2)
    return -rigidity_matrix(framework) @ s2_matrix(framework).T


@dataclass(frozen=True, eq=False)
class Certificate:
    """One target's certification, keyed as `check --json`: the rigidity
    rank against the rank needed, and the verdict, margin and eigenvalues
    (read-only, sorted by real, then imaginary part) of -R S2^T."""

    rank: int
    rank_needed: int
    infinitesimally_rigid: bool
    minimally_rigid: bool
    hurwitz: bool
    margin: float
    spectrum: np.ndarray
    certified: bool

    def to_dict(self) -> dict:
        """The fields as JSON values, the spectrum as [real, imag] pairs."""
        s = self.spectrum
        return {**vars(self), "spectrum": np.column_stack((s.real, s.imag)).tolist()}


def certificate(framework: Framework) -> Certificate:
    """Certify a target framework from its diagonal blocks
    (`Framework.diagonal_blocks`), at RANK_TOL and HURWITZ_TOL.  Raises
    ValueError when the framework does not satisfy its own distances or a
    dense decomposition is over the cap."""
    _require_own_distances(framework)
    g = framework.graph
    rank, needed = framework.rigidity_rank, rigid_rank_target(g.n, framework.dim)
    rigid = rank == needed
    spectrum = np.concatenate([stack.eigenvalues for stack in framework.diagonal_blocks])
    margin = float(np.max(spectrum.real))
    hurwitz = margin < -HURWITZ_TOL
    spectrum = spectrum[np.lexsort((spectrum.imag, spectrum.real))]
    spectrum.setflags(write=False)
    return Certificate(rank, needed, rigid, rigid and g.edge_count == needed, hurwitz, margin,
                       spectrum, rigid and hurwitz)


@dataclass(frozen=True)
class AssignmentRule:
    """Which agent runs each edge's estimator unit.

    triangle_cyclic: each triangle edge is estimated by one of its own
        endpoints so that every agent owns exactly one edge.
    triangle_acyclic: the root agent owns both its edges and `third` owns
        the remaining one, leaving one agent with none.
    henneberg_2d / growth_3d: the construction order decides; each edge
        added by a vertex insertion is owned by its anchor (the endpoint
        that already existed), and seed edges by their lower-numbered
        endpoint.  New edges then share the inserted vertex as their head,
        which is what makes the error dynamics grow block-triangularly.
    tetrahedron: the complete graph on 4 vertices, each edge owned as the
        3-D construction seed orients it.
    """

    kind: str
    root: int | None = None
    third: int | None = None

    KINDS: ClassVar[tuple[str, ...]] = (
        "triangle_cyclic",
        "triangle_acyclic",
        "henneberg_2d",
        "tetrahedron",
        "growth_3d",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        if self.kind != "triangle_acyclic":
            if self.root is not None or self.third is not None:
                raise ValueError("root and third apply only to triangle_acyclic")
        else:
            for name in ("root", "third"):
                v = getattr(self, name)
                if v is not None and (not isinstance(v, int) or isinstance(v, bool)):
                    raise ValueError(f"{name} must be an int vertex label")


_TRACE_DIMS = {"henneberg_2d": 2, "growth_3d": 3}  # the construction-order rules' dimensions
# each rule's owner table: a sorted vertex pair to the agent that owns that edge
_TRIANGLE_CYCLIC = {(1, 2): 1, (1, 3): 3, (2, 3): 2}
_TETRAHEDRON = {(a, b): a for a, b in _SEED_EDGES[3].tolist()}  # the 3-D seed's tails


def _owner_table(graph: FormationGraph, rule: AssignmentRule) -> dict:
    """The rule's owner table, once the graph is the one the rule needs."""
    if rule.kind == "tetrahedron":
        if graph.n != 4 or graph.edge_count != 6:
            raise ValueError("tetrahedron rule needs 4 vertices and all 6 edges")
        return _TETRAHEDRON
    if graph.n != 3 or graph.edge_count != 3:
        raise ValueError(f"{rule.kind} needs a triangle: 3 vertices and 3 edges")
    if rule.kind == "triangle_cyclic":
        return _TRIANGLE_CYCLIC
    root = 1 if rule.root is None else rule.root
    if root not in (1, 2, 3):
        raise ValueError("root must be a triangle vertex")
    others = [v for v in (1, 2, 3) if v != root]
    third = others[0] if rule.third is None else rule.third
    if third not in others:
        raise ValueError("third must be a triangle vertex other than the root")
    return {pair: root if root in pair else third for pair in _TRIANGLE_CYCLIC}


def select_estimating_agents(source, rule: AssignmentRule) -> tuple[tuple[int, int], ...]:
    """Edges oriented so each tail is the agent estimating that edge.

    `source` is a FormationGraph for the triangle and tetrahedron rules and
    a ConstructionTrace for the construction-order rules, which return the
    edges of its `trace_graph`: that orientation already makes each anchor
    its edge's tail.  Edge order is preserved.
    """
    want = _TRACE_DIMS.get(rule.kind)
    if want:
        if not isinstance(source, ConstructionTrace):
            raise ValueError(f"{rule.kind} needs a ConstructionTrace")
        if source.dim != want:
            raise ValueError(f"{rule.kind} needs a {want}-D trace")
        return trace_graph(source).edges
    if not isinstance(source, FormationGraph):
        raise ValueError(f"{rule.kind} needs a FormationGraph")
    owners = _owner_table(source, rule)
    # keyed by the edge's own pair, an owner is an end: a pair without the root holds third
    return tuple((a, b) if owners[min(a, b), max(a, b)] == a else (b, a) for a, b in source.edges)


def _with_orientation(framework: Framework, oriented) -> Framework:
    """Same framework with its edges reordered/flipped to `oriented`."""
    by_pair = {}
    for edge, d in zip(framework.graph.edges, framework.target_distances):
        by_pair[tuple(sorted(edge))] = float(d)
    distances = []
    for edge in oriented:
        key = tuple(sorted(edge))
        if key not in by_pair:
            raise ValueError(f"assignment edge {edge} is not in the framework")
        distances.append(by_pair.pop(key))
    if by_pair:
        raise ValueError("assignment does not cover every framework edge")
    graph = FormationGraph(framework.graph.n, tuple(oriented))
    return Framework(graph, framework.dim, framework.positions, tuple(distances))


def certify(
    framework: Framework,
    rule: AssignmentRule,
    trace: ConstructionTrace | None = None,
) -> tuple[Framework, Certificate]:
    """Orient a target framework by `rule` and certify it.  Warns (rather
    than failing) when it is not infinitesimally rigid or its margin is not
    negative, so callers can still inspect the certificate."""
    by_trace = rule.kind in _TRACE_DIMS
    if by_trace and trace is None:
        raise ValueError(f"{rule.kind} needs the construction trace")
    oriented = select_estimating_agents(trace if by_trace else framework.graph, rule)
    fw = _with_orientation(framework, oriented)
    cert = certificate(fw)
    if not cert.infinitesimally_rigid:
        warnings.warn(_NOT_RIGID, RuntimeWarning, stacklevel=2)
    if not cert.hurwitz:
        message = f"error dynamics are not certified stable (margin {cert.margin:.3e})"
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return fw, cert
