"""Exhaustive enumeration of small instances, up to isomorphism.

Brauer graph shapes come from connected rooted maps, generated directly as
breadth-first codes: germs are numbered in the discovery order of
``brauer.discovery_code``, and the code grows one germ at a time by
choosing its successor and partner among the numbered germs still free or
the next new germ.  Each finished code is one rooted map (2, 10, 74, 706,
8162 and 110,410 of them for 1 to 6 edges).  Generation is orderly (Read,
1978; McKay, 1998): a rooted map is kept only when its root has the least
code among all roots of the map, which holds for exactly one rooted map
per shape, and the roots that tie with it are the automorphisms of the
shape.
Multiplicity assignments are layered on top of each shape, keeping those
that are lexicographically least among their images under the
automorphisms.  No set of earlier classes is kept and nothing is sorted:
classes come out in generation order, one at a time.

Gentle algebras come from the same shapes, as admissible cuts.  By the
paper's Theorem 1.3 and cut surjectivity (Schroll, "Brauer graph
algebras", arXiv:1612.00061, section 6), every connected gentle algebra
with n vertices and a arrows is a cut of the algebra of a
multiplicity-one Brauer graph with n edges and 2n - a vertices, and two
cuts give isomorphic algebras exactly when an automorphism of the graph
maps one cutting set to the other.  A cutting set takes one germ from
every vertex of valency at least two, so the census keeps, per shape, the
choices whose sorted germs are least among their images under the shape's
automorphisms.  Nothing is keyed and nothing is held between classes.  An
arrow bound a is the lower bound 2n - a on the maps' vertex counts, and
the rooted-map walk abandons the codes that cannot reach it.  The census
also comes out grouped by map (``_cuts_by_map``): per map, the number of
its cuts and a generator that builds the map's algebra and then its cuts
when first read, so that a sharded suite run makes only the cuts it
checks.  Each cut comes with the map and the algebra it was cut from,
which the trivial-extension suite checks it against.

``canonical_presentation_key`` is an isomorphism key for any presentation,
by colour refinement and the permutations inside each colour class.  The
census does not use it; the tests compare presentations with it.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, NamedTuple

from .brauer import BrauerGraph, _first_step, algebra_of, discovery_code
from .cut import CuttingSet, admissible_cut
from .gentle import GentleAlgebra
from .quiver import Monomial, Presentation
from .ssb import SSBPresentation


def rooted_maps(
    n_edges: int, min_vertices: int = 1
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every connected rooted map with ``n_edges`` edges and at least
    ``min_vertices`` vertices, once each.

    A map is given by its breadth-first code: germs are numbered in the
    discovery order of ``brauer.discovery_code`` from the root germ 0
    (successor first, then partner), and the code is the pair
    ``(succ, partner)`` of tuples over those numbers.  The code grows one
    germ at a time: the successor of germ ``i`` is a numbered germ that is
    not yet a successor image, or the next new germ; its partner, unless
    already set, is a numbered germ without a partner, or the next new germ.
    A code is finished when all ``2 * n_edges`` germs are numbered and
    processed, and distinct codes are distinct rooted maps.

    The vertices are the cycles of ``succ``.  A partial code has closed
    some cycles, and every germ without a successor yet, numbered or not,
    ends one open successor chain; each open chain closes into at most one
    more cycle.  A partial code whose closed cycles and open chains
    together fall below ``min_vertices`` is abandoned (the orderly idea of
    McKay, 1998, applied to the vertex count), so the walk yields the full
    walk's codes with enough vertices, in the same order.  With the
    default bound nothing is abandoned.
    """
    size = 2 * n_edges
    succ = [-1] * size
    partner = [-1] * size
    is_image = [False] * size
    # the open successor chains: head[e] starts the chain ending at e,
    # tail[h] ends the chain starting at h; a germ alone is its own chain
    head = list(range(size))
    tail = list(range(size))

    def grow(
        i: int, count: int, closed: int
    ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if i == count:
            if count == size:
                yield tuple(succ), tuple(partner)
            return  # otherwise the numbered germs form a closed component
        start = head[i]
        for s in range(min(count + 1, size)):
            if is_image[s]:
                continue
            closes = s == start
            if closed + closes + size - i - 1 < min_vertices:
                continue  # too few cycles left to close
            end = tail[s]
            succ[i] = s
            is_image[s] = True
            if not closes:
                head[end], tail[start] = start, end
            numbered = max(count, s + 1)
            if partner[i] >= 0:
                yield from grow(i + 1, numbered, closed + closes)
            else:
                for p in range(i + 1, min(numbered + 1, size)):
                    if partner[p] >= 0:
                        continue
                    partner[i], partner[p] = p, i
                    yield from grow(i + 1, max(numbered, p + 1), closed + closes)
                    partner[p] = -1
                partner[i] = -1
            if not closes:
                head[end], tail[start] = s, i
            is_image[s] = False

    yield from grow(0, 1, 0)


def _automorphisms(
    succ: tuple[int, ...], partner: tuple[int, ...]
) -> list[list[int]] | None:
    """The nontrivial automorphisms of a rooted map whose root has the least
    code, or None when another root has a smaller one.

    The code from germ 0 is ``(succ, partner)`` itself, zipped with a
    constant label; the code from any other root is
    :func:`~quiveralg.brauer.discovery_code` bounded by germ 0's, walked
    only when the root's first code step ties germ 0's (a smaller one
    rejects the map before any walk).  A root whose code ties is an
    automorphism, given as its discovery order (germ ``i`` goes to
    ``order[i]``): a map automorphism is fixed by the image of one germ, so
    these roots are the whole group.
    """
    least = _first_step(0, succ[0], partner[0], 0)
    ties = []
    for root in range(1, len(succ)):  # every first step before any walk
        step = _first_step(root, succ[root], partner[root], 0)
        if step < least:
            return None  # that root's code is smaller
        if step == least:
            ties.append(root)
    label = (0,) * len(succ)
    root_code = tuple(zip(succ, partner, label))
    found = []
    for root in ties:
        tie = discovery_code(succ, partner, label, root, root_code)
        if tie is not None:
            if tie[0] != root_code:
                return None
            found.append(tie[1])
    return found


def _cycles_of(succ: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(succ)
    cycles = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        h = succ[start]
        while h != start:
            cycle.append(h)
            seen[h] = True
            h = succ[h]
        cycles.append(cycle)
    return cycles


def _shape_of(cycles: list[list[int]], partner: tuple[int, ...]) -> BrauerGraph:
    """The multiplicity-one Brauer graph of a map given by the cycles of its
    successor permutation and its partner involution on germs."""
    pairs = [(h, p) for h, p in enumerate(partner) if h < p]
    return BrauerGraph(
        multiplicities={f"v{i}": 1 for i in range(len(cycles))},
        edges={f"E{i}": (f"h{h}", f"h{p}") for i, (h, p) in enumerate(pairs)},
        rotations={
            f"v{i}": tuple(f"h{h}" for h in cycle) for i, cycle in enumerate(cycles)
        },
    )


def _canonical_maps(
    n_edges: int, vertex_counts: range | None = None
) -> Iterator[tuple[list, tuple, list]]:
    """For each map with ``n_edges`` edges, once: the vertex cycles and
    partner of its rooted map of least code, and its nontrivial
    automorphisms as discovery orders (germ ``h`` goes to ``order[h]``).
    Given ``vertex_counts``, only maps whose number of vertices is in it
    are read: the rooted-map walk abandons the codes with fewer vertices
    than its start (see :func:`rooted_maps`), and a rooted map with more
    than it holds is dropped before its automorphisms are sought."""
    min_vertices = 1 if vertex_counts is None else vertex_counts.start
    for succ, partner in rooted_maps(n_edges, min_vertices):
        cycles = _cycles_of(succ)
        if vertex_counts is not None and len(cycles) not in vertex_counts:
            continue
        automorphisms = _automorphisms(succ, partner)
        if automorphisms is not None:
            yield cycles, partner, automorphisms


def connected_brauer_graphs(max_edges: int, max_mult: int) -> Iterator[BrauerGraph]:
    """All connected Brauer graphs with at most the given edges and multiplicities.

    One representative per isomorphism class, excluding the two degenerate
    shapes that the algebra correspondence rejects.  Each shape comes with
    the multiplicity assignments that are lexicographically least among
    their images under its automorphisms, read as vertex permutations
    (vertex ``v`` goes to ``perm[v]``).  Deterministic generation order
    (by edge count, then shape, then assignment), not sorted; nothing is
    held between classes.
    """
    for n_edges in range(1, max_edges + 1):
        for cycles, partner, automorphisms in _canonical_maps(n_edges):
            vertex_of = {h: v for v, cycle in enumerate(cycles) for h in cycle}
            perms = {
                tuple(vertex_of[order[cycle[0]]] for cycle in cycles)
                for order in automorphisms
            }
            perms.discard(tuple(range(len(cycles))))
            shape = _shape_of(cycles, partner)
            vertices = list(shape.multiplicities)
            for mults in product(range(1, max_mult + 1), repeat=len(vertices)):
                if n_edges == 1 and mults == (1, 1):
                    continue  # single edge with two multiplicity-one endpoints
                if all(mults <= tuple(mults[v] for v in perm) for perm in perms):
                    yield BrauerGraph(dict(zip(vertices, mults)), shape.edges, shape.rotations)


class _Cut(NamedTuple):
    """An admissible cut with the map and the algebra it was cut from."""

    algebra: GentleAlgebra  # admissible_cut(ssb, cut)
    ssb: SSBPresentation  # algebra_of(graph), shared by the map's cuts
    graph: BrauerGraph  # the map, multiplicity one, its germs named as the arrows of ssb
    cut: CuttingSet  # one germ of every vertex of valency at least two


def _cuts(
    cycles: list[list[int]], partner: tuple[int, ...], cutting_sets: list[tuple[int, ...]]
) -> Iterator[_Cut]:
    """The admissible cuts of one map at the given cutting sets of its
    germs.  The map and its algebra are built on the first ``next()``,
    once for all its cuts."""
    graph = _shape_of(cycles, partner)
    ssb = algebra_of(graph)
    for germs in cutting_sets:
        cut = CuttingSet(f"h{h}" for h in germs)
        yield _Cut(admissible_cut(ssb, cut), ssb, graph, cut)


def _cuts_by_map(max_vertices: int, max_arrows: int) -> Iterator[tuple[int, Iterator[_Cut]]]:
    """The census of :func:`gentle_algebras`, in its order, one group per
    kept map: the number of its orbit-least cutting sets and a generator
    over their cuts, each with its map and the map's algebra.  Walking the
    stream builds nothing; a map's algebra is built only when its generator
    is read."""
    for n in range(1, max_vertices + 1):
        yield from _map_groups(n, range(max(1, 2 * n - max_arrows), 2 * n))


def _map_groups(n_edges: int, vertex_counts: range) -> Iterator[tuple[int, Iterator[_Cut]]]:
    """The groups of :func:`_cuts_by_map` for the maps with ``n_edges``
    edges and a number of vertices in ``vertex_counts``; their cuts have
    ``n_edges`` vertices and ``2 * n_edges - v`` arrows on a map with ``v``
    vertices."""
    for cycles, partner, automorphisms in _canonical_maps(n_edges, vertex_counts):
        cutting_sets = []
        for germs in product(*(cycle for cycle in cycles if len(cycle) > 1)):
            code = sorted(germs)
            if all(code <= sorted(order[h] for h in germs) for order in automorphisms):
                cutting_sets.append(germs)
        yield len(cutting_sets), _cuts(cycles, partner, cutting_sets)


def gentle_algebras(max_vertices: int, max_arrows: int) -> Iterator[GentleAlgebra]:
    """All connected gentle algebras within the bounds, one per isomorphism
    class, as admissible cuts (see the module docstring).

    The algebras with ``n`` vertices and ``a`` arrows are the cuts of the
    maps with ``n`` edges and ``2n - a`` vertices, so only maps with at
    least ``2n - max_arrows`` vertices and at most ``2n - 1`` are read: the
    single edge, with two vertices, has no arrow and no algebra.  A map has
    at least one vertex, so no connected gentle algebra with ``n`` vertices
    has more than ``2n - 1`` arrows, whatever ``max_arrows`` is.  Each kept
    map's algebra is built once; a cutting set, one germ per vertex cycle of
    length at least two, is cut when its sorted germs are least among their
    images under the map's automorphisms.  Deterministic generation order
    (by vertex count, map, cutting set), not sorted.  The algebras are
    those of the groups of :func:`_cuts_by_map`, read in turn.
    """
    for _, cuts in _cuts_by_map(max_vertices, max_arrows):
        for cut in cuts:
            yield cut.algebra


def _rank(colours: dict[str, tuple]) -> dict[str, int]:
    """Replace colours by their positions in the sorted list of distinct colours."""
    order = {c: i for i, c in enumerate(sorted(set(colours.values())))}
    return {v: order[c] for v, c in colours.items()}


def _colour_classes(pres: Presentation) -> list[list[str]]:
    """Vertices split into colour-refinement classes, ordered by colour.

    The initial colour uses name-free data only: out-degree, in-degree, loop
    count, and how many relation paths start at, end at or pass through the
    vertex.  Each round recolours a vertex by its own colour with the sorted
    colours of its out- and in-neighbours (one entry per arrow), re-ranked
    to ints, until the number of classes stops growing.  Every step is
    invariant under isomorphism, so an isomorphism maps each class onto the
    class of the same colour.
    """
    quiver = pres.quiver
    stats = {v: [0, 0, 0, 0, 0, 0] for v in quiver.vertices}
    for a in quiver.arrows:
        stats[a.source][0] += 1
        stats[a.target][1] += 1
        if a.source == a.target:
            stats[a.source][2] += 1
    for r in pres.relations:
        for p in r.paths():
            stats[p.source][3] += 1
            stats[p.target][4] += 1
            for v in p.vertices[1:-1]:
                stats[v][5] += 1
    colour = _rank({v: tuple(s) for v, s in stats.items()})
    count = len(set(colour.values()))
    while count < len(colour):
        colour = _rank(
            {
                v: (
                    colour[v],
                    tuple(sorted(colour[a.target] for a in quiver.arrows_from[v])),
                    tuple(sorted(colour[a.source] for a in quiver.arrows_into[v])),
                )
                for v in quiver.vertices
            }
        )
        refined = len(set(colour.values()))
        if refined == count:
            break
        count = refined
    classes: list[list[str]] = [[] for _ in range(count)]
    for v in quiver.vertices:
        classes[colour[v]].append(v)
    return classes


def _class_labelings(classes: list[list[str]]) -> Iterator[dict[str, int]]:
    """Vertex labelings giving each class its own block of consecutive labels,
    permuted only inside the block."""
    blocks = []
    start = 0
    for members in classes:
        blocks.append(permutations(range(start, start + len(members))))
        start += len(members)
    for labels in product(*blocks):
        yield {
            v: i
            for members, block in zip(classes, labels)
            for v, i in zip(members, block)
        }


def _labelled_codes(pres: Presentation) -> Iterator[tuple[tuple, dict[str, int]]]:
    """The structure relabelled by every admissible labelling, with the arrow
    labelling (arrow name to position) that gives it.

    Vertices are split into colour-refinement classes (see
    ``_colour_classes``) and labelled blockwise, permuting only inside each
    class; parallel arrows (which a vertex bijection cannot separate) run
    over their orderings.  Arrows are then renamed positionally, so each
    code is independent of all names.
    """
    quiver = pres.quiver
    n = len(quiver.vertices)
    for vmap in _class_labelings(_colour_classes(pres)):
        groups: dict[tuple[int, int], list[str]] = {}
        for a in quiver.arrows:
            groups.setdefault((vmap[a.source], vmap[a.target]), []).append(a.name)
        group_keys = sorted(groups)
        orderings = [permutations(groups[gk]) for gk in group_keys]
        for arrangement in product(*orderings):
            amap: dict[str, int] = {}
            idx = 0
            endpoints = []
            for gk, names in zip(group_keys, arrangement):
                for name in names:
                    amap[name] = idx
                    endpoints.append(gk)
                    idx += 1
            rels = []
            for r in pres.relations:
                if isinstance(r, Monomial):
                    rels.append((0, tuple(amap[x] for x in r.path.arrows)))
                else:
                    sides = sorted(
                        tuple(amap[x] for x in p.arrows) for p in r.paths()
                    )
                    rels.append((1, tuple(sides[0]), tuple(sides[1])))
            yield (n, tuple(endpoints), tuple(sorted(rels))), amap


def canonical_presentation_key(pres: Presentation):
    """Isomorphism-invariant key: minimum over admissible relabelings of the structure.

    The relabelings are those of ``_labelled_codes``.  Isomorphic
    presentations have the same admissible labelings up to the isomorphism,
    hence the same minimum, and an equal minimum encodes one labelled
    presentation isomorphic to both.
    """
    return min(code for code, _ in _labelled_codes(pres))
