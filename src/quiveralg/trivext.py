"""The trivial extension of a gentle algebra, built through its ribbon graph.

A gentle algebra determines a graph: one graph vertex per extended maximal
path, one edge per quiver vertex joining the two maximal-path occurrences
through it, with the germs around each graph vertex ordered by position
along the path.  All multiplicities are one.  The Brauer graph algebra of
that graph is the trivial extension; its quiver is the original quiver plus
one new "return" arrow per nontrivial maximal path, closing the path into a
cycle.

The module also carries a second, independent construction of the
projective modules of the trivial extension, obtained by gluing the two
maximal paths through a vertex around their return arrows.  The two
constructions are developed separately precisely so that their agreement
can be verified instance by instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .brauer import BrauerGraph, algebra_of
from .errors import InconsistencyError
from .gentle import GentleAlgebra, _gets_trivial_maximal, vertex_occurrences
from .quiver import Path, Quiver, path_sort_key, trivial_path
from .ssb import SSBPresentation


@dataclass(frozen=True)
class GentleGraph:
    """The ribbon graph of a gentle algebra, with its labelling data.

    ``vertex_labels`` maps graph vertices to the maximal paths they stand
    for; ``edge_labels`` maps edges to quiver vertices (the identity on
    names, kept explicit for consumers); all multiplicities are one.
    """

    graph: BrauerGraph
    vertex_labels: tuple[tuple[str, Path], ...]
    edge_labels: tuple[tuple[str, str], ...]

    @cached_property
    def label_of(self) -> dict[str, Path]:
        return dict(self.vertex_labels)


def _station_name(m: Path) -> str:
    if m.is_trivial():
        return f"m(e.{m.source})"
    return f"m({'.'.join(m.arrows)})"


def return_arrow_names(algebra: GentleAlgebra) -> dict[Path, str]:
    """Deterministic names for the new arrows, one per nontrivial maximal path.

    Derived from the path's arrow word; suffixed defensively in the unlikely
    event a user-chosen arrow name collides.
    """
    taken = {a.name for a in algebra.quiver.arrows}
    names: dict[Path, str] = {}
    for m in sorted(algebra.maximal_paths, key=path_sort_key):
        candidate = f"b({'.'.join(m.arrows)})"
        while candidate in taken:
            candidate = "b" + candidate
        names[m] = candidate
        taken.add(candidate)
    return names


def _leaf_germ_names(algebra: GentleAlgebra, taken: set[str]) -> dict[str, str]:
    names = {}
    for m in algebra.extended_maximal_paths:
        if m.is_trivial():
            candidate = f"t({m.source})"
            while candidate in taken:
                candidate = "t" + candidate
            names[m.source] = candidate
            taken.add(candidate)
    return names


def graph_of_gentle(algebra: GentleAlgebra) -> GentleGraph:
    """Build the graph: maximal paths become vertices, quiver vertices edges.

    Germs are named after the arrows of the trivial extension they will
    induce: slot ``k`` on a nontrivial maximal path is the path's ``k``-th
    arrow, the last slot is the return arrow, and the single germ of a
    trivial maximal path is silent.  One maximal path visiting a quiver
    vertex twice yields a loop.
    """
    betas = return_arrow_names(algebra)
    taken = {a.name for a in algebra.quiver.arrows} | set(betas.values())
    leaf_names = _leaf_germ_names(algebra, taken)

    def germ(m: Path, slot: int) -> str:
        if m.is_trivial():
            return leaf_names[m.source]
        if slot < len(m.arrows):
            return m.arrows[slot]
        return betas[m]

    multiplicities = {_station_name(m): 1 for m in algebra.extended_maximal_paths}
    rotations = {
        _station_name(m): tuple(germ(m, k) for k in range(len(m.arrows) + 1))
        for m in algebra.extended_maximal_paths
    }
    edges: dict[str, tuple[str, str]] = {}
    for v, occ in vertex_occurrences(algebra).items():
        (m1, k1), (m2, k2) = sorted(occ, key=lambda it: (path_sort_key(it[0]), it[1]))
        edges[v] = (germ(m1, k1), germ(m2, k2))
    graph = BrauerGraph(multiplicities, edges, rotations)
    return GentleGraph(
        graph,
        tuple(sorted((_station_name(m), m) for m in algebra.extended_maximal_paths)),
        tuple((v, v) for v in algebra.quiver.vertices),
    )


def extended_quiver(algebra: GentleAlgebra) -> Quiver:
    """The original quiver plus one return arrow per nontrivial maximal path."""
    betas = return_arrow_names(algebra)
    extra = [(betas[m], m.target, m.source) for m in algebra.maximal_paths]
    return Quiver(
        algebra.quiver.vertices,
        [(a.name, a.source, a.target) for a in algebra.quiver.arrows] + extra,
    )


def trivial_extension(algebra: GentleAlgebra) -> SSBPresentation:
    """The trivial extension, as the Brauer graph algebra of the gentle graph.

    The germ naming in :func:`graph_of_gentle` makes the resulting quiver
    literally equal to :func:`extended_quiver`; this is asserted rather than
    trusted.
    """
    ssb = algebra_of(graph_of_gentle(algebra).graph)
    if ssb.quiver != extended_quiver(algebra):
        raise InconsistencyError(
            "trivial extension quiver does not match the extended quiver"
        )
    return ssb


def projectives_oracle(algebra: GentleAlgebra, vertex: str) -> tuple[Path, ...]:
    """Projective basis at ``vertex`` of the trivial extension, by string gluing.

    Independent of the Brauer-graph route: for each of the two maximal-path
    occurrences ``m = q . r`` through the vertex (recomputing here which
    trivial paths count as maximal rather than reusing the cached extended
    set), the glued cycle is ``r * return(m) * q``; the basis consists of
    the trivial path, the proper prefixes of the one or two glued cycles,
    and the socle.  Must agree with
    :func:`~quiveralg.ssb.projective_basis` on
    :func:`trivial_extension` at every vertex.
    """
    occurrences: list[tuple[Path, int] | None] = []
    for m in algebra.maximal_paths:
        for slot, v in enumerate(m.vertices):
            if v == vertex:
                occurrences.append((m, slot))
    if _gets_trivial_maximal(algebra.presentation, vertex):
        occurrences.append(None)
    if len(occurrences) != 2:
        raise InconsistencyError(
            f"vertex {vertex!r} lies on {len(occurrences)} maximal-path slots"
        )

    betas = return_arrow_names(algebra)

    def glued(m: Path, slot: int) -> Path:
        vertices = m.vertices[slot:] + m.vertices[: slot + 1]
        arrows = m.arrows[slot:] + (betas[m],) + m.arrows[:slot]
        return Path(vertices, arrows)

    cycles = [glued(*occ) for occ in occurrences if occ is not None]
    basis: set[Path] = {trivial_path(vertex)}
    for w in cycles:
        for k in range(1, len(w.arrows)):
            basis.add(w.prefix(k))
    basis.add(min(cycles, key=path_sort_key))
    return tuple(sorted(basis, key=path_sort_key))

