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
can be verified instance by instance.  Both give each projective basis in
one view: its sorted keys ``(length, arrow word, itinerary)``, each the
:func:`~quiveralg.quiver.path_sort_key` of its path, so that they are
compared without building a ``Path``.
"""

from __future__ import annotations

from .brauer import BrauerGraph, algebra_of
from .errors import InconsistencyError
from .gentle import GentleAlgebra, _gets_trivial_maximal
from .quiver import Path
from .ssb import SSBPresentation


def _station_name(m: Path) -> str:
    if m.is_trivial():
        return f"m(e.{m.source})"
    return f"m({'.'.join(m.arrows)})"


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


def graph_of_gentle(algebra: GentleAlgebra) -> BrauerGraph:
    """Build the graph: maximal paths become vertices, quiver vertices edges.

    The graph vertex of a maximal path ``m`` is named :func:`_station_name`
    of ``m``, and each edge after its quiver vertex; all multiplicities are
    one.  Germs are named after the arrows of the trivial extension they
    will induce: slot ``k`` on a nontrivial maximal path is the path's
    ``k``-th arrow, the last slot is the return arrow, and the single germ
    of a trivial maximal path is silent.  One maximal path visiting a quiver
    vertex twice yields a loop.  The germs of every path are written out
    once; read with the paths in :func:`~quiveralg.quiver.path_sort_key`
    order, they give each edge its two germs in order.
    """
    betas = algebra.return_arrow_names
    taken = {a.name for a in algebra.quiver.arrows} | set(betas.values())
    leaf_names = _leaf_germ_names(algebra, taken)
    rotations: dict[str, tuple[str, ...]] = {}
    slots = []  # path_sort_key of each maximal path, with its germs
    for m in algebra.extended_maximal_paths:
        station = _station_name(m)
        if m.arrows:
            germs = m.arrows + (betas[m],)
        else:
            germs = (leaf_names[m.source],)
        rotations[station] = germs
        slots.append((len(m.arrows), m.arrows, m.vertices, germs))
    slots.sort()
    at: dict[str, list[str]] = {v: [] for v in algebra.quiver.vertices}
    for _, _, itinerary, germs in slots:
        for v, germ in zip(itinerary, germs):
            at[v].append(germ)
    edges = {v: (g1, g2) for v, (g1, g2) in at.items()}
    return BrauerGraph(dict.fromkeys(rotations, 1), edges, rotations)


def _extended_arrows(algebra: GentleAlgebra) -> list[tuple[str, str, str]]:
    """The arrows of the quiver of the trivial extension, as ``(name,
    source, target)`` triples in name order: those of ``algebra``, and a
    return arrow from the target to the source of each nontrivial maximal
    path."""
    betas = algebra.return_arrow_names
    arrows = [(a.name, a.source, a.target) for a in algebra.quiver.arrows]
    arrows += [(betas[m], m.target, m.source) for m in algebra.maximal_paths]
    arrows.sort()
    return arrows


def trivial_extension(algebra: GentleAlgebra) -> SSBPresentation:
    """The trivial extension, as the Brauer graph algebra of the gentle graph.

    The germ naming in :func:`graph_of_gentle` makes the resulting quiver
    literally the quiver of ``algebra`` with its return arrows added
    (:func:`_extended_arrows`); this is asserted rather than trusted.  Both
    read the algebra's cached return arrow names, so the names are computed
    once.
    """
    return extension_of_graph(algebra, graph_of_gentle(algebra))


def extension_of_graph(algebra: GentleAlgebra, graph: BrauerGraph) -> SSBPresentation:
    """:func:`trivial_extension` from the already built gentle graph
    ``graph`` of ``algebra``, for callers that need the graph too.

    The quiver of the result is compared, without building a second
    ``Quiver``, with the extended quiver: its vertices with those of
    ``algebra``, and its arrows with :func:`_extended_arrows`.
    """
    ssb = algebra_of(graph)
    found = ssb.quiver
    if found.vertices != algebra.quiver.vertices or _extended_arrows(algebra) != [
        (a.name, a.source, a.target) for a in found.arrows
    ]:
        raise InconsistencyError(
            "trivial extension quiver does not match the extended quiver"
        )
    return ssb


def projectives_oracle(algebra: GentleAlgebra, vertex: str) -> list[tuple]:
    """Projective basis at ``vertex`` of the trivial extension, by string
    gluing, as sorted keys ``(length, arrow word, itinerary)``, each
    :func:`~quiveralg.quiver.path_sort_key` of its path.  Must equal
    :func:`~quiveralg.ssb.projective_basis` of :func:`trivial_extension` at
    every vertex.

    Independent of the Brauer-graph route: for each of the two maximal-path
    occurrences ``m = q . r`` through the vertex (recomputing here which
    trivial paths count as maximal rather than reusing the cached extended
    set), the glued cycle is ``r * return(m) * q``; the basis consists of
    the trivial path, the proper prefixes of the one or two glued cycles,
    and the socle.  The keys are distinct, since the glued cycles start
    with distinct arrows (the maximal paths partition the arrows, and each
    has its own return arrow), and they are sorted once.
    """
    betas = algebra.return_arrow_names
    keys = [(0, (), (vertex,))]
    socle = None  # the key of the smallest glued cycle
    quiver = algebra.quiver
    count = _gets_trivial_maximal(
        quiver.arrows_into[vertex], quiver.arrows_from[vertex],
        algebra.presentation.quadratic_monomials,
    )
    for m in algebra.maximal_paths:
        vertices = m.vertices
        if vertex not in vertices:
            continue
        arrows = m.arrows
        for slot, v in enumerate(vertices):
            if v != vertex:
                continue
            count += 1
            itinerary = vertices[slot:] + vertices[: slot + 1]
            word = arrows[slot:] + (betas[m],) + arrows[:slot]
            for k in range(1, len(word)):
                keys.append((k, word[:k], itinerary[: k + 1]))
            key = (len(word), word, itinerary)
            if socle is None or key < socle:
                socle = key
    if count != 2:
        raise InconsistencyError(f"vertex {vertex!r} lies on {count} maximal-path slots")
    keys.append(socle)
    keys.sort()
    return keys
