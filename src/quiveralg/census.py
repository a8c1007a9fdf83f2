"""Exhaustive enumeration of small instances, up to isomorphism.

Brauer graph shapes come from connected rooted maps, generated directly as
breadth-first codes: germs are numbered in the discovery order of
``brauer.discovery_code``, and the code grows one germ at a time by
choosing its successor and partner among the numbered germs still free or
the next new germ.  Each finished code is one rooted map (2, 10, 74, 706
and 8162 of them for 1 to 5 edges).  Generation is orderly (Read, 1978;
McKay, 1998): a rooted map is kept only when its root has the least code
among all roots of the map, which holds for exactly one rooted map per
shape, and the roots that tie with it are the automorphisms of the shape.
Multiplicity assignments are layered on top of each shape, keeping those
that are lexicographically least among their images under the
automorphisms.  No set of earlier classes is kept and nothing is sorted:
classes come out in generation order, one at a time.

Gentle presentations are generated per quiver and per relation choice.
Quivers come from connected endpoint multisets with the degree bounds of the
special biserial conditions, and only from degree-sorted labellings: the
vertex labels must be in nonincreasing order of (out-degree, in-degree, loop
count).  Every quiver has such a labelling, so no class is lost, and the
key below is computed on a few labellings per class instead of on all of
them (an orderly-generation filter in the sense of Read, 1978).  A canonical
key dedupes the quivers: vertices are split into classes by colour
refinement (degrees, loops and relation incidence, refined by neighbour
colours), each class gets its own block of labels, and the key is the
minimum encoding over the permutations inside each class and the orderings
of parallel arrows; the labellings that tie at the minimum give the quiver's
automorphisms.  At each vertex the admissible choices of which compositions
vanish form a partial matching between incoming and outgoing arrows whose
complement is again a partial matching.  A product of these choices is kept
only when its sorted arrow-index code is least among its images under the
automorphisms and it has no relation-free oriented cycle; no algebra is
keyed, and classes come out in generation order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterator

from .brauer import BrauerGraph, _first_step, discovery_code
from .gentle import GentleAlgebra, _has_relation_free_cycle, validate_gentle
from .quiver import Monomial, Presentation, Quiver


def rooted_maps(n_edges: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every connected rooted map with ``n_edges`` edges, once each.

    A map is given by its breadth-first code: germs are numbered in the
    discovery order of ``brauer.discovery_code`` from the root germ 0
    (successor first, then partner), and the code is the pair
    ``(succ, partner)`` of tuples over those numbers.  The code grows one
    germ at a time: the successor of germ ``i`` is a numbered germ that is
    not yet a successor image, or the next new germ; its partner, unless
    already set, is a numbered germ without a partner, or the next new germ.
    A code is finished when all ``2 * n_edges`` germs are numbered and
    processed, and distinct codes are distinct rooted maps.
    """
    size = 2 * n_edges
    succ = [-1] * size
    partner = [-1] * size
    is_image = [False] * size

    def grow(i: int, count: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if i == count:
            if count == size:
                yield tuple(succ), tuple(partner)
            return  # otherwise the numbered germs form a closed component
        for s in range(min(count + 1, size)):
            if is_image[s]:
                continue
            succ[i] = s
            is_image[s] = True
            numbered = max(count, s + 1)
            if partner[i] >= 0:
                yield from grow(i + 1, numbered)
            else:
                for p in range(i + 1, min(numbered + 1, size)):
                    if partner[p] >= 0:
                        continue
                    partner[i], partner[p] = p, i
                    yield from grow(i + 1, max(numbered, p + 1))
                    partner[p] = -1
                partner[i] = -1
            is_image[s] = False

    yield from grow(0, 1)


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


def _canonical_maps(n_edges: int) -> Iterator[tuple[list, tuple, set]]:
    """For each map with ``n_edges`` edges, once: the vertex cycles and
    partner of its rooted map of least code, and its nontrivial
    automorphisms as vertex permutations (vertex ``v`` goes to ``perm[v]``)."""
    for succ, partner in rooted_maps(n_edges):
        automorphisms = _automorphisms(succ, partner)
        if automorphisms is None:
            continue
        cycles = _cycles_of(succ)
        vertex_of = {h: v for v, cycle in enumerate(cycles) for h in cycle}
        perms = {
            tuple(vertex_of[order[cycle[0]]] for cycle in cycles) for order in automorphisms
        }
        perms.discard(tuple(range(len(cycles))))
        yield cycles, partner, perms


def connected_brauer_graphs(max_edges: int, max_mult: int) -> Iterator[BrauerGraph]:
    """All connected Brauer graphs with at most the given edges and multiplicities.

    One representative per isomorphism class, excluding the two degenerate
    shapes that the algebra correspondence rejects.  Each shape comes with
    the multiplicity assignments that are lexicographically least among
    their images under its automorphisms.  Deterministic generation order
    (by edge count, then shape, then assignment), not sorted; nothing is
    held between classes.
    """
    for n_edges in range(1, max_edges + 1):
        for cycles, partner, perms in _canonical_maps(n_edges):
            shape = _shape_of(cycles, partner)
            vertices = list(shape.multiplicities)
            for mults in product(range(1, max_mult + 1), repeat=len(vertices)):
                if n_edges == 1 and mults == (1, 1):
                    continue  # single edge with two multiplicity-one endpoints
                if all(mults <= tuple(mults[v] for v in perm) for perm in perms):
                    yield BrauerGraph(dict(zip(vertices, mults)), shape.edges, shape.rotations)


@lru_cache(maxsize=None)
def _relation_choices(n_in: int, n_out: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Vanishing-composition choices at a vertex with ``n_in`` incoming and
    ``n_out`` outgoing arrows, as (incoming, outgoing) index pairs.

    A choice and its complement must both be partial matchings between the
    incoming and outgoing arrows (the forbidden- and the allowed-successor
    conditions respectively).  They depend only on the two degrees, which
    take nine values, so each sweep runs once.
    """
    pairs = list(product(range(n_in), range(n_out)))

    def matching(group) -> bool:
        return len({a for a, _ in group}) == len(group) == len({b for _, b in group})

    return tuple(
        chosen
        for k in range(len(pairs) + 1)
        for chosen in combinations(pairs, k)
        if matching(chosen) and matching([p for p in pairs if p not in chosen])
    )


def _endpoint_multisets(
    n_vertices: int, count: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Nondecreasing endpoint sequences over the vertices ``0..n_vertices-1``
    with out- and in-degrees at most two and out-degrees nonincreasing in the
    vertex label.

    Pairs come in source-major order, so the out-degree of a source is final
    once the sequence moves past it: an arrow at source ``s > 0`` is added
    only while ``s`` has fewer arrows than ``s - 1``.  Prunes as it builds,
    which matters at five vertices.
    """
    pairs = [(s, t) for s in range(n_vertices) for t in range(n_vertices)]
    out_deg = [0] * n_vertices
    in_deg = [0] * n_vertices
    acc: list[tuple[int, int]] = []

    def rec(start: int, remaining: int) -> Iterator[tuple[tuple[int, int], ...]]:
        if remaining == 0:
            yield tuple(acc)
            return
        for i in range(start, len(pairs)):
            s, t = pairs[i]
            if out_deg[s] >= (out_deg[s - 1] if s else 2) or in_deg[t] >= 2:
                continue
            out_deg[s] += 1
            in_deg[t] += 1
            acc.append(pairs[i])
            yield from rec(i, remaining - 1)
            acc.pop()
            out_deg[s] -= 1
            in_deg[t] -= 1

    yield from rec(0, count)


def _degree_sorted(n_vertices: int, endpoints: tuple[tuple[int, int], ...]) -> bool:
    """Whether the labels ``0..n_vertices-1`` are in nonincreasing order of
    (out-degree, in-degree, loop count).  Sorting the vertices of any quiver
    by this name-free triple gives such a labelling, so keeping only these
    loses no isomorphism class."""
    degrees = [[0, 0, 0] for _ in range(n_vertices)]
    for s, t in endpoints:
        degrees[s][0] += 1
        degrees[t][1] += 1
        if s == t:
            degrees[s][2] += 1
    return all(degrees[v - 1] >= degrees[v] for v in range(1, n_vertices))


def _connects(n_vertices: int, endpoints: tuple[tuple[int, int], ...]) -> bool:
    """Whether arrows with these endpoints join the vertices ``0..n_vertices-1``
    into one undirected component; a union-find on the raw pairs, so that no
    ``Quiver`` is built for a disconnected multiset."""
    root = list(range(n_vertices))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    components = n_vertices
    for s, t in endpoints:
        rs, rt = find(s), find(t)
        if rs != rt:
            root[rs] = rt
            components -= 1
    return components == 1


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


def canonical_presentation_key(pres: Presentation, ties: list | None = None):
    """Isomorphism-invariant key: minimum over admissible relabelings of the structure.

    Vertices are split into colour-refinement classes (see
    ``_colour_classes``) and labelled blockwise, permuting only inside each
    class; parallel arrows (which a vertex bijection cannot separate) run
    over their orderings.  Arrows are then renamed positionally, so the key
    is independent of all names.  Isomorphic presentations have the same
    admissible labelings up to the isomorphism, hence the same minimum, and
    an equal minimum encodes one labelled presentation isomorphic to both.

    When a list ``ties`` is given, it receives the arrow labellings (arrow
    name to position) that reach the minimum.  Composing an admissible
    labelling with an automorphism gives another one with the same code, so
    the ties are one labelling composed with each automorphism, once each.
    """
    quiver = pres.quiver
    n = len(quiver.vertices)
    best = None
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
            key = (n, tuple(endpoints), tuple(sorted(rels)))
            if best is None or key < best:
                best = key
                if ties is not None:
                    ties[:] = [amap]
            elif ties is not None and key == best:
                ties.append(amap)
    return best


def gentle_quivers(
    n_vertices: int, max_arrows: int
) -> Iterator[tuple[Quiver, list[tuple[int, ...]]]]:
    """Connected quivers on ``n_vertices`` vertices with at most ``max_arrows``
    arrows and out- and in-degrees at most two, one per isomorphism class, in
    the order they are first generated, each with its nontrivial
    automorphisms as arrow permutations (arrow ``i``, named ``a<i>``, goes
    to ``perm[i]``).

    The arrows stop at ``2 * n_vertices - 1`` whatever ``max_arrows`` is.
    With ``2 * n_vertices`` arrows every out-degree is two, so every arrow
    has a relation-free continuation and no relation set gives a
    finite-dimensional algebra.

    Only degree-sorted labellings are generated (see ``_endpoint_multisets``
    and ``_degree_sorted``), so the isomorphism key is computed on a few
    candidates per class rather than on every labelled endpoint multiset.
    The automorphisms come from the labellings that tie at the minimum of
    the key: with ``first`` one of them, each other tie ``L`` gives the
    automorphism that sends an arrow ``x`` to the arrow that ``L`` puts
    where ``first`` puts ``x``.
    """
    vertices = [str(i) for i in range(n_vertices)]
    seen: set = set()
    for na in range(max(1, n_vertices - 1), min(max_arrows, 2 * n_vertices - 1) + 1):
        names = [f"a{i}" for i in range(na)]
        for endpoints in _endpoint_multisets(n_vertices, na):
            if not _degree_sorted(n_vertices, endpoints):
                continue
            if not _connects(n_vertices, endpoints):
                continue
            quiver = Quiver(
                vertices,
                [(name, vertices[s], vertices[t]) for name, (s, t) in zip(names, endpoints)],
            )
            ties: list = []
            key = canonical_presentation_key(Presentation(quiver, ()), ties)
            if key in seen:
                continue
            seen.add(key)
            first = [ties[0][name] for name in names]
            perms = []
            for labelling in ties[1:]:
                at = [0] * na
                for i, name in enumerate(names):
                    at[labelling[name]] = i
                perms.append(tuple(at[position] for position in first))
            yield quiver, perms


def gentle_algebras(max_vertices: int, max_arrows: int) -> Iterator[GentleAlgebra]:
    """All gentle algebras within the bounds, one per isomorphism class.

    On each quiver class, a product of the per-vertex relation choices,
    written as a sorted code of (arrow, arrow) index pairs, is kept only
    when its code is least among its images under the quiver's
    automorphisms: one set per isomorphism class of presentations on that
    quiver.  A kept set with a relation-free oriented cycle is dropped on
    its raw pairs, and every other one goes through the full validator.
    Deterministic generation order (by vertex count, quiver, relation set),
    not sorted; only the keys of the quiver classes are held.
    """
    for nv in range(1, max_vertices + 1):
        for quiver, automorphisms in gentle_quivers(nv, max_arrows):
            # numeric order, as in the automorphisms: a9 before a10
            names = [f"a{i}" for i in range(len(quiver.arrows))]
            index = {name: i for i, name in enumerate(names)}
            per_vertex = []
            for v in quiver.vertices:
                ins = [index[a.name] for a in quiver.arrows_into[v]]
                outs = [index[a.name] for a in quiver.arrows_from[v]]
                per_vertex.append(
                    [
                        [(ins[i], outs[j]) for i, j in choice]
                        for choice in _relation_choices(len(ins), len(outs))
                    ]
                )
            for combo in product(*per_vertex):
                code = sorted(pair for choice in combo for pair in choice)
                if any(
                    code > sorted((perm[a], perm[b]) for a, b in code)
                    for perm in automorphisms
                ):
                    continue
                pairs = [(names[a], names[b]) for a, b in code]
                if _has_relation_free_cycle(quiver, set(pairs)):
                    continue
                relations = [Monomial(quiver.path(pair)) for pair in pairs]
                report = validate_gentle(Presentation(quiver, relations))
                if report.algebra is not None:
                    yield report.algebra
