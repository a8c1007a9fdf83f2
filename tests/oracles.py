"""Independent brute-force oracles used by the test suite.

The dimension oracle works directly on a presentation: it enumerates the
paths avoiding the zero relations up to a certified length cap, then
quotients by all two-sided multiples of the commutativity relations.  Every
such multiple is either an identification of two paths or the vanishing of
one, so the quotient is a union-find computation instead of Gaussian
elimination.  The computation refuses (raises) rather than return an
uncertified number: it requires every surviving path of maximal enumerated
length to be provably zero, which bounds all longer paths.

The gentle nonzero-path oracle grows every path by composing one-arrow
paths, and the socle oracle tests every arrow of the quiver on both sides
of every such path, composing where the ends meet; they share only the
presentation's relation pairs and zero test with the library.

The reference gentle census enumerates quivers and relations, where the
library's census reads admissible cuts of Brauer graphs; the two share the
gentle validator and nothing of their enumeration.  Its quiver layer
generates connected endpoint multisets with the degree bounds of the
special biserial conditions, only in degree-sorted labellings (vertex
labels in nonincreasing order of out-degree, in-degree and loop count), and
dedups them by the library's ``canonical_presentation_key``, which the
library's census does not use; the labellings that tie at the minimum of
the key give the quiver's automorphisms.  At each vertex the admissible
choices of which compositions vanish form a partial matching between
incoming and outgoing arrows whose complement is again a partial matching,
and a product of these choices is kept when its sorted arrow-index code is
least among its images under the automorphisms.

The presentation key oracle tries every vertex bijection, with no
refinement into classes, so it decides isomorphism by exhaustion.  The
quiver-class oracle keys every connected labelled endpoint multiset, with no
pruning by labelling, and its relation-layer twin keys every set of
length-two zero relations on each of them that the gentle validator
accepts.  The ribbon-graph shape oracle sweeps every
permutation of the half-edges as a rotation system, on plain integers, and
the Brauer canonical-form oracle takes the full minimum over all start
germs, on the integers of the raw rotations, edges and multiplicities.
The reference traversal builds the full discovery code from every start
germ, with no early exit, and the isomorphism oracle zips the discovery
orders of two starts whose full codes agree.  The symmetric special
biserial isomorphism oracle tries every vertex bijection and every
endpoint-respecting arrow bijection.  The Brauer census oracle dedups every
rooted map and every multiplicity assignment through a set of canonical
forms, and the gentle dedup census validates every product of per-vertex
relation choices on the reference quiver layer and dedups through a set of
presentation keys.

Apart from the census oracles and the isomorphism oracle, nothing here
inspects descriptors, cycles, graphs or any other structure the library
derives; only the raw quiver and relation list, or plain integer
permutations.  The isomorphism oracle reads the library's projective
descriptors but builds the bases from them itself, as sets of paths, in
place of the library's comparison of maximal words, and replaces its
search; the Brauer census oracle shares the library's rooted-map codes and
``canonical_form`` and replaces only its orderly filter.

The reference symmetric special biserial validator is the library's
validator as it was before each of its checks was first decided by an
exact test on arrow words: every check by its worded loop, cycles
decomposed by scanning every period and every rotation, and the relations
sorted by kind from the raw relation list.  Likewise the reference gentle
validator is the library's validator as it was before it decided
gentleness by counts, with its DFS for relation-free cycles, and the two
reference projective bases are the library's builds as they were before
their keys, one ``Path`` per prefix sorted by ``path_sort_key``; they read
the library's maximal paths, return-arrow names and projective
descriptors, and their ``path_sort_key`` keys are compared with the keyed
builds that replaced them.  The
reference zero test is the library's monomial zero test as it was written
on paths, with ``is_subpath``; ``zero_test_mismatches`` compares it with
the word-level test that replaced it.

The trivial extension T(A) = A ⋉ DA is built from its definition, on the
nonzero paths of A and their duals, and a presentation is checked to
present it under a given arrow map (``semidirect_mismatches``); it reads
the library's return-arrow names only to send each return arrow to the
dual of its maximal path.  The route by which the suites once checked
T(A), building it through the gentle graph and comparing it with the map's
algebra, is kept as ``extension_route_failures``, the differential oracle
of the suites' renaming.

The remaining helpers serve the tests and check nothing by themselves: the
census shapes one per class, the presentations broken in one place that
the validators are compared on, presentation isomorphism by the library's
key, the renaming of a presentation, the source vertices of a cycle's
simple cycle (``p_cycle``), and the triangulations of a convex polygon.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from typing import Iterator, Sequence

from quiveralg.brauer import BrauerGraph, canonical_form
from quiveralg.census import (
    _canonical_maps,
    _cycles_of,
    _labelled_codes,
    _shape_of,
    canonical_presentation_key,
    rooted_maps,
)
from quiveralg.gentle import (
    GentleAlgebra,
    _gets_trivial_maximal,
    validate_gentle,
    validate_special_biserial,
    vertex_occurrences,
)
from quiveralg.quiver import (
    Binomial,
    Monomial,
    Path,
    Presentation,
    Problem,
    Quiver,
    Validation,
    compose,
    is_subpath,
    path_sort_key,
    rotate,
    trivial_path,
)
from quiveralg.ssb import ProjectiveDescriptor, SSBPresentation, _least_period
from quiveralg.surface import Triangulation


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        parent = self.parent
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x, y) -> bool:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


_ZERO = "0"


def _clean_paths(pres: Presentation, cap: int, limit: int) -> list[Path]:
    """Paths of length <= cap avoiding every monomial relation as a subword."""
    quiver = pres.quiver
    monomials = [m.arrows for m in pres.monomials]

    def extension_clean(p: Path, arrow: str) -> bool:
        for word in monomials:
            k = len(word)
            if len(p.arrows) >= k - 1 and p.arrows[len(p.arrows) - k + 1 :] + (arrow,) == word:
                return False
        return True

    out: list[Path] = [trivial_path(v) for v in quiver.vertices]
    frontier: list[Path] = [quiver.path([a.name]) for a in quiver.arrows]
    while frontier:
        p = frontier.pop()
        out.append(p)
        if len(out) > limit:
            raise RuntimeError("path enumeration exploded; presentation unbounded?")
        if len(p.arrows) >= cap:
            continue
        for a in quiver.arrows_from[p.target]:
            if extension_clean(p, a.name):
                frontier.append(compose(p, quiver.path([a.name])))
    return out


def quotient_dimension(pres: Presentation, cap: int | None = None, limit: int = 60000) -> int:
    """Dimension of the presented algebra, by enumeration and identification.

    Raises ``RuntimeError`` if the result cannot be certified at any tried
    cap (an unbounded algebra, or relations too weak to close the count).
    """
    base_cap = max([len(r.path) for r in pres.relations if isinstance(r, Monomial)]
                   + [len(p) for r in pres.relations if isinstance(r, Binomial) for p in r.paths()]
                   + [2])
    tried = cap or base_cap + 2
    for _ in range(4):
        result = _try_dimension(pres, tried, limit)
        if result is not None:
            return result
        tried *= 2
    raise RuntimeError(f"dimension not certified up to cap {tried // 2}")


def _try_dimension(pres: Presentation, cap: int, limit: int) -> int | None:
    clean = _clean_paths(pres, cap, limit)
    clean_set = {(p.source, p.arrows) for p in clean}
    by_target: dict[str, list[Path]] = {}
    by_source: dict[str, list[Path]] = {}
    for p in clean:
        by_target.setdefault(p.target, []).append(p)
        by_source.setdefault(p.source, []).append(p)

    uf = _UnionFind()
    words_by_length: dict[int, set[tuple[str, ...]]] = {}
    for m in pres.monomials:
        words_by_length.setdefault(len(m.arrows), set()).add(m.arrows)

    def contains_monomial(arrows: tuple[str, ...]) -> bool:
        return any(
            arrows[i : i + k] in words
            for k, words in words_by_length.items()
            for i in range(len(arrows) - k + 1)
        )

    def evaluate(u: Path, mid: Path, v: Path):
        """The class of u*mid*v: a clean path key, _ZERO, or None (unresolved)."""
        arrows = u.arrows + mid.arrows + v.arrows
        if contains_monomial(arrows):
            return _ZERO
        if len(arrows) <= cap:
            return (u.source, arrows)
        prefix = arrows[:cap]
        if contains_monomial(prefix):
            return _ZERO
        if uf.find((u.source, prefix)) == uf.find(_ZERO):
            return _ZERO
        return None

    binomials = [r for r in pres.relations if isinstance(r, Binomial)]
    pending: list[tuple[Path, Binomial, Path]] = []
    for r in binomials:
        shorter = min(len(r.left), len(r.right))
        for u in by_target.get(r.left.source, []):
            for v in by_source.get(r.left.target, []):
                if len(u) + shorter + len(v) > cap:
                    continue
                pending.append((u, r, v))

    progress = True
    while progress:
        progress = False
        remaining = []
        for u, r, v in pending:
            left = evaluate(u, r.left, v)
            right = evaluate(u, r.right, v)
            if left is None or right is None:
                remaining.append((u, r, v))
                continue
            if left == right:
                continue
            if uf.union(left, right):
                progress = True
        pending = remaining

    zero_root = uf.find(_ZERO)
    for p in clean:
        if len(p.arrows) == cap and uf.find((p.source, p.arrows)) != zero_root:
            return None  # cannot certify that longer paths vanish
    if pending:
        return None
    classes = {uf.find(key) for key in clean_set}
    classes.discard(zero_root)
    return len(classes)


def gentle_dimension_by_walk(pres: Presentation, limit: int = 60000) -> int:
    """Dimension of a monomial presentation: count the relation-avoiding paths."""
    if any(isinstance(r, Binomial) for r in pres.relations):
        raise ValueError("only monomial presentations are counted by walking")
    return len(_clean_paths(pres, limit, limit))


def nonzero_paths_by_compose(algebra: GentleAlgebra) -> list[Path]:
    """The nonzero paths of a gentle algebra, grown by :func:`compose` with
    a one-arrow path for every outgoing arrow whose pair with the last arrow
    is not a zero relation."""
    pres = algebra.presentation
    quiver = pres.quiver
    out: list[Path] = [trivial_path(v) for v in quiver.vertices]
    frontier: list[Path] = [quiver.path([a.name]) for a in quiver.arrows]
    while frontier:
        p = frontier.pop()
        out.append(p)
        for nxt in quiver.arrows_from[p.target]:
            if (p.arrows[-1], nxt.name) not in pres.quadratic_monomials:
                frontier.append(compose(p, quiver.path([nxt.name])))
    return sorted(out, key=path_sort_key)


def socle_by_all_arrows(algebra: GentleAlgebra) -> list[Path]:
    """The nonzero paths that every arrow of the quiver kills on both
    sides: an arrow whose end does not meet the path kills it, and any
    other is composed with it and the composite given to the zero test."""
    pres = algebra.presentation
    quiver = pres.quiver

    def is_zero_extension(p: Path, a, on_left: bool) -> bool:
        if on_left:
            if a.target != p.source:
                return True
            extended = compose(quiver.path([a.name]), p)
        else:
            if p.target != a.source:
                return True
            extended = compose(p, quiver.path([a.name]))
        return not pres.word_is_nonzero_monomially(extended.arrows)

    basis = [
        p
        for p in nonzero_paths_by_compose(algebra)
        if all(is_zero_extension(p, a, True) for a in quiver.arrows)
        and all(is_zero_extension(p, a, False) for a in quiver.arrows)
    ]
    return sorted(basis, key=path_sort_key)


def brute_force_presentation_key(pres: Presentation):
    """Isomorphism-invariant key by exhaustion: all n! vertex bijections.

    Parallel arrows run over their orderings and arrows are renamed
    positionally, exactly as in ``census.canonical_presentation_key``, whose
    value this is not required to equal; only the partition it induces on
    presentations must agree.
    """
    quiver = pres.quiver
    vertices = quiver.vertices
    best = None
    for perm in permutations(range(len(vertices))):
        vmap = {v: i for v, i in zip(vertices, perm)}
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
            key = (len(vertices), tuple(endpoints), tuple(sorted(rels)))
            if best is None or key < best:
                best = key
    return best


def _labelled_quivers(n_vertices: int, max_arrows: int):
    """Every connected labelled quiver on ``n_vertices`` vertices with
    ``n_vertices - 1`` (at least 1) to ``max_arrows`` arrows and out- and
    in-degrees at most two, arrows named ``a0, a1, ...``."""
    vertices = [str(i) for i in range(n_vertices)]
    pairs = [(s, t) for s in vertices for t in vertices]
    for count in range(max(1, n_vertices - 1), max_arrows + 1):
        for endpoints in combinations_with_replacement(pairs, count):
            if any(
                sum(1 for s, _ in endpoints if s == v) > 2
                or sum(1 for _, t in endpoints if t == v) > 2
                for v in vertices
            ):
                continue
            quiver = Quiver(vertices, [(f"a{i}", s, t) for i, (s, t) in enumerate(endpoints)])
            if quiver.is_connected():
                yield quiver


def brute_force_quiver_keys(n_vertices: int, max_arrows: int, key) -> set:
    """``key`` of every connected quiver on ``n_vertices`` vertices with
    ``n_vertices - 1`` (at least 1) to ``max_arrows`` arrows and out- and
    in-degrees at most two: a sweep over all labelled endpoint multisets, so
    every isomorphism class is reached."""
    return {key(Presentation(quiver, ())) for quiver in _labelled_quivers(n_vertices, max_arrows)}


def brute_force_gentle_keys(n_vertices: int, max_arrows: int, key) -> set:
    """``key`` of every gentle presentation on ``n_vertices`` vertices with at
    most ``max_arrows`` arrows: every set of length-two zero relations on
    every labelled quiver of :func:`brute_force_quiver_keys`, kept when
    ``validate_gentle`` accepts it, so every isomorphism class is reached."""
    keys = set()
    for quiver in _labelled_quivers(n_vertices, max_arrows):
        composable = [
            (a.name, b.name) for a in quiver.arrows for b in quiver.arrows_from[a.target]
        ]
        for count in range(len(composable) + 1):
            for chosen in combinations(composable, count):
                pres = Presentation(quiver, [Monomial(quiver.path(p)) for p in chosen])
                if validate_gentle(pres).ok:
                    keys.add(key(pres))
    return keys


def _minimum_code(
    succ: Sequence[int], partner: Sequence[int], mult: Sequence[int] | None = None
) -> tuple | None:
    """Minimum over every start germ of the full discovery code, with no
    early exit; None for disconnected systems.

    From every start, germs are numbered in breadth-first discovery order
    (successor first, then partner); the code lists, per germ in that order,
    the numbers of both neighbours and, when ``mult`` is given, the germ's
    multiplicity.
    """
    n = len(succ)
    codes = []
    for start in range(n):
        number = {start: 0}
        order = [start]
        for h in order:
            for nb in (succ[h], partner[h]):
                if nb not in number:
                    number[nb] = len(order)
                    order.append(nb)
        if len(order) < n:
            return None  # disconnected; the same holds from every start
        codes.append(
            tuple(
                (number[succ[h]], number[partner[h]])
                + (() if mult is None else (mult[h],))
                for h in order
            )
        )
    return min(codes)


def _shape_key(succ: tuple[int, ...]) -> tuple | None:
    """Canonical encoding of a rotation system over half-edges 0..2n-1 with
    the pairing fixed as ``h ^ 1``."""
    return _minimum_code(succ, [h ^ 1 for h in range(len(succ))])


def canonical_form_oracle(g: BrauerGraph) -> tuple | None:
    """The Brauer canonical form as a plain minimum over all start germs.

    Reads only the raw rotations, edges and multiplicities; germs become the
    integers of their sorted order.
    """
    germs = sorted(h for seq in g.rotations.values() for h in seq)
    index = {h: i for i, h in enumerate(germs)}
    succ, partner, mult = [0] * len(germs), [0] * len(germs), [0] * len(germs)
    for v, seq in g.rotations.items():
        for h, nxt in zip(seq, seq[1:] + seq[:1]):
            succ[index[h]] = index[nxt]
            mult[index[h]] = g.multiplicity(v)
    for h, k in g.edges.values():
        partner[index[h]], partner[index[k]] = index[k], index[h]
    return _minimum_code(succ, partner, mult)


def bfs_order(g: BrauerGraph, start: str) -> list[str]:
    """The germs of ``g`` in breadth-first discovery order from ``start``,
    the successor explored first and then the partner."""
    succ, partner = g.successor_of, g.partner
    seen = {start}
    order = [start]
    for h in order:
        for nb in (succ[h], partner[h]):
            if nb not in seen:
                seen.add(nb)
                order.append(nb)
    return order


def bfs_encoding(g: BrauerGraph, start: str) -> tuple:
    """The full discovery code from ``start``, with no early exit: per germ
    in :func:`bfs_order`, the numbers of its successor and partner and the
    multiplicity at its vertex."""
    order = bfs_order(g, start)
    number = {h: i for i, h in enumerate(order)}
    succ, partner, vertex_of = g.successor_of, g.partner, g.vertex_of
    return tuple(
        (number[succ[h]], number[partner[h]], g.multiplicity(vertex_of[h])) for h in order
    )


def isomorphism_oracle(g1: BrauerGraph, g2: BrauerGraph) -> dict[str, str] | None:
    """The half-edge bijection by full codes: the discovery order of the
    first start of ``g1`` in name order with the least code, zipped with
    that of the first start of ``g2`` in name order with the same code."""
    if len(g1.half_edges) != len(g2.half_edges):
        return None
    code1, start1 = min((bfs_encoding(g1, h), h) for h in g1.half_edges)
    for start2 in g2.half_edges:
        if bfs_encoding(g2, start2) == code1:
            return dict(zip(bfs_order(g1, start1), bfs_order(g2, start2)))
    return None


def brauer_shapes(n_edges: int) -> list[BrauerGraph]:
    """Connected multiplicity-one Brauer graphs with ``n_edges`` edges, one
    per isomorphism class (the two-vertex single edge included), each at its
    rooted map of least code, in generation order."""
    return [_shape_of(cycles, partner) for cycles, partner, _ in _canonical_maps(n_edges)]


def brute_force_shape_keys(n_edges: int) -> set[tuple]:
    """Keys of the connected ribbon graphs with ``n_edges`` edges, by a sweep
    over all (2n)! successor permutations with the pairing held fixed; every
    isomorphism class is reached, so the distinct keys are the classes."""
    keys = {_shape_key(succ) for succ in permutations(range(2 * n_edges))}
    keys.discard(None)
    return keys


def dedup_brauer_graphs(max_edges: int, max_mult: int) -> list[BrauerGraph]:
    """The Brauer census by canonical-form dedup: every rooted map becomes a
    shape, a shape is kept when its canonical form is new, and every
    multiplicity assignment on a kept shape is kept when the canonical form
    of the weighted graph is new.  Shares the rooted-map codes and the
    canonical form with the library and replaces its orderly filter."""
    graphs = []
    for n_edges in range(1, max_edges + 1):
        shapes: set[tuple] = set()
        seen: set[tuple] = set()
        for succ, partner in rooted_maps(n_edges):
            shape = _shape_of(_cycles_of(succ), partner)
            key = canonical_form(shape)
            if key in shapes:
                continue
            shapes.add(key)
            vertices = list(shape.multiplicities)
            for mults in product(range(1, max_mult + 1), repeat=len(vertices)):
                if n_edges == 1 and mults == (1, 1):
                    continue
                g = BrauerGraph(dict(zip(vertices, mults)), shape.edges, shape.rotations)
                key = canonical_form(g)
                if key not in seen:
                    seen.add(key)
                    graphs.append(g)
    return graphs


# ---------------------------------------------------------------------------
# The reference gentle census: quiver classes by a presentation key, then the
# relation sets on each quiver class
# ---------------------------------------------------------------------------


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
    The automorphisms come from the labellings of ``census._labelled_codes``
    that tie at the minimum of the key.  Composing an admissible labelling
    with an automorphism gives another one with the same code, so the ties
    are one labelling composed with each automorphism, once each: with
    ``first`` one of them, each other tie ``L`` gives the automorphism that
    sends an arrow ``x`` to the arrow that ``L`` puts where ``first`` puts
    ``x``.
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
            codes = list(_labelled_codes(Presentation(quiver, ())))
            key = min(code for code, _ in codes)
            if key in seen:
                continue
            seen.add(key)
            ties = [amap for code, amap in codes if code == key]
            first = [ties[0][name] for name in names]
            perms = []
            for labelling in ties[1:]:
                at = [0] * na
                for i, name in enumerate(names):
                    at[labelling[name]] = i
                perms.append(tuple(at[position] for position in first))
            yield quiver, perms


def _has_relation_free_cycle(quiver: Quiver, zero) -> bool:
    """Whether an oriented cycle of arrows avoids ``zero``, the length-two
    zero relations as pairs of arrow names: DFS over the allowed-successor
    graph on arrows (three-color marking), on the raw pairs, so that a
    relation choice is dropped before its presentation is built."""
    color: dict[str, int] = {}

    def dfs(arrow) -> bool:
        color[arrow.name] = 1
        for nxt in quiver.arrows_from[arrow.target]:
            if (arrow.name, nxt.name) in zero:
                continue
            c = color.get(nxt.name, 0)
            if c == 1:
                return True
            if c == 0 and dfs(nxt):
                return True
        color[arrow.name] = 2
        return False

    return any(color.get(a.name, 0) == 0 and dfs(a) for a in quiver.arrows)


def reference_gentle_algebras(max_vertices: int, max_arrows: int) -> Iterator[GentleAlgebra]:
    """All gentle algebras within the bounds, one per isomorphism class, by
    the quiver layer and an orderly relation layer.

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


def relation_products(quiver: Quiver) -> Iterator[Presentation]:
    """The presentation of every product of the per-vertex relation choices
    on ``quiver``, valid or not, with no reduction by automorphisms."""
    per_vertex = []
    for v in quiver.vertices:
        ins = [a.name for a in quiver.arrows_into[v]]
        outs = [a.name for a in quiver.arrows_from[v]]
        per_vertex.append(
            [
                [(ins[i], outs[j]) for i, j in choice]
                for choice in _relation_choices(len(ins), len(outs))
            ]
        )
    for combo in product(*per_vertex):
        yield Presentation(quiver, [Monomial(quiver.path(p)) for choice in combo for p in choice])


def one_place_breaks(pres: Presentation) -> Iterator[Presentation]:
    """``pres`` with one thing changed: each relation deleted, each allowed
    composition made zero, a zero relation of length three, a commutativity
    relation, an arrow that takes a degree to three, and a vertex apart."""
    quiver, relations = pres.quiver, list(pres.relations)
    outs, ins = quiver.arrows_from, quiver.arrows_into
    for i in range(len(relations)):
        yield Presentation(quiver, relations[:i] + relations[i + 1 :])
    steps = [(a, b) for a in quiver.arrows for b in outs[a.target]]
    for a, b in steps:
        if (a.name, b.name) not in pres.quadratic_monomials:
            yield Presentation(quiver, relations + [Monomial(quiver.path([a.name, b.name]))])
    long = next(((a, b, c) for a, b in steps for c in outs[b.target]), None)
    if long is not None:
        path = quiver.path([x.name for x in long])
        yield Presentation(quiver, relations + [Monomial(path)])
    paths = [quiver.path([a.name]) for a in quiver.arrows]
    paths += [quiver.path([a.name, b.name]) for a, b in steps]
    sides = next(
        (
            (p, q)
            for p, q in combinations(paths, 2)
            if (p.source, p.target) == (q.source, q.target) and p.arrows[0] != q.arrows[0]
        ),
        None,
    )
    if sides is not None:
        yield Presentation(quiver, relations + [Binomial(*sides)])
    for v in quiver.vertices:
        if len(outs[v]) == 2 or len(ins[v]) == 2:
            ends = (v, quiver.vertices[0]) if len(outs[v]) == 2 else (quiver.vertices[0], v)
            name = "x"
            while name in quiver.arrow_map:  # a presentation broken before
                name += "'"
            extra = Quiver(quiver.vertices, [*quiver.arrows, (name, *ends)])
            yield Presentation(extra, relations)
            break
    yield Presentation(Quiver([*quiver.vertices, "z"], quiver.arrows), relations)


def dedup_gentle_algebras(max_vertices: int, max_arrows: int) -> list[GentleAlgebra]:
    """The gentle census by presentation-key dedup: on every quiver class,
    every product of the per-vertex relation choices is validated, and a
    valid presentation is kept when its key is new among those with the same
    vertex count.  Shares the quiver layer, the relation choices and the key
    with :func:`reference_gentle_algebras` and replaces its orderly filter."""
    algebras = []
    for nv in range(1, max_vertices + 1):
        seen: set = set()
        for quiver, _ in gentle_quivers(nv, max_arrows):
            for pres in relation_products(quiver):
                algebra = validate_gentle(pres).algebra
                if algebra is None:
                    continue
                key = canonical_presentation_key(pres)
                if key not in seen:
                    seen.add(key)
                    algebras.append(algebra)
    return algebras


def presentations_isomorphic(p1: Presentation, p2: Presentation) -> bool:
    """Exact isomorphism of presentations (vertex/arrow bijection matching
    relations), by the library's presentation key."""
    if len(p1.quiver.vertices) != len(p2.quiver.vertices):
        return False
    if len(p1.quiver.arrows) != len(p2.quiver.arrows):
        return False
    return canonical_presentation_key(p1) == canonical_presentation_key(p2)


def relabel_presentation(
    pres: Presentation,
    vertex_map: dict[str, str] | None = None,
    arrow_map: dict[str, str] | None = None,
) -> Presentation:
    """Rename vertices and arrows throughout a presentation.

    Maps may be partial; unmentioned identifiers are kept.  The renamed
    identifiers must remain pairwise distinct.
    """
    vmap = dict(vertex_map or {})
    amap = dict(arrow_map or {})
    rv = lambda v: vmap.get(v, v)
    ra = lambda a: amap.get(a, a)
    quiver = Quiver(
        (rv(v) for v in pres.quiver.vertices),
        ((ra(a.name), rv(a.source), rv(a.target)) for a in pres.quiver.arrows),
    )

    def rp(p: Path) -> Path:
        return Path(tuple(rv(v) for v in p.vertices), tuple(ra(a) for a in p.arrows))

    relations: list[Monomial | Binomial] = []
    for r in pres.relations:
        if isinstance(r, Monomial):
            relations.append(Monomial(rp(r.path)))
        else:
            relations.append(Binomial(rp(r.left), rp(r.right)))
    return Presentation(quiver, relations)


def carries_bases(a: SSBPresentation, b: SSBPresentation, witness) -> bool:
    """Whether ``witness``, a ``(vertex map, arrow map)`` pair, is a pair of
    bijections carrying each projective basis of ``a`` (as a set of paths)
    onto the basis of ``b`` at the image vertex."""
    vmap, amap = witness
    qa, qb = a.quiver, b.quiver
    if sorted(vmap) != list(qa.vertices) or sorted(vmap.values()) != list(qb.vertices):
        return False
    if sorted(amap) != [x.name for x in qa.arrows] or sorted(amap.values()) != [
        x.name for x in qb.arrows
    ]:
        return False
    return _carries_sets(_basis_path_sets(a), _basis_path_sets(b), vmap, amap)


def _carries_sets(sets_a, sets_b, vmap, amap) -> bool:
    return all(
        frozenset(
            Path(tuple(vmap[u] for u in p.vertices), tuple(amap[n] for n in p.arrows))
            for p in paths
        )
        == sets_b[vmap[v]]
        for v, paths in sets_a.items()
    )


def _basis_path_sets(ssb: SSBPresentation) -> dict[str, frozenset[Path]]:
    """Per vertex, the paths spanning its projective: the trivial path and
    every prefix of the two maximal paths, both socle representatives
    included, so that the sets do not depend on a choice between them."""
    out = {}
    for d in ssb.projectives:
        paths = {trivial_path(d.vertex)}
        for w in d.paths():
            paths.update(w.prefix(k) for k in range(1, len(w) + 1))
        out[d.vertex] = frozenset(paths)
    return out


def brute_force_ssb_isomorphism(a: SSBPresentation, b: SSBPresentation):
    """The first ``(vertex map, arrow map)`` over every vertex bijection and,
    within it, every endpoint-respecting arrow bijection that satisfies
    :func:`carries_bases`; None when there is none."""
    return next(ssb_isomorphisms(a, b), None)


def ssb_isomorphisms(a: SSBPresentation, b: SSBPresentation):
    """Every ``(vertex map, arrow map)`` that satisfies :func:`carries_bases`,
    over every vertex bijection and, within it, every endpoint-respecting
    arrow bijection."""
    qa, qb = a.quiver, b.quiver
    if len(qa.vertices) != len(qb.vertices) or len(qa.arrows) != len(qb.arrows):
        return
    sets_a, sets_b = _basis_path_sets(a), _basis_path_sets(b)
    between_b: dict[tuple[str, str], list[str]] = {}
    for x in qb.arrows:
        between_b.setdefault((x.source, x.target), []).append(x.name)
    for images in permutations(qb.vertices):
        vmap = dict(zip(qa.vertices, images))
        between_a: dict[tuple[str, str], list[str]] = {}
        for x in qa.arrows:
            between_a.setdefault((vmap[x.source], vmap[x.target]), []).append(x.name)
        if any(len(names) != len(between_b.get(ends, ())) for ends, names in between_a.items()):
            continue
        groups = sorted(between_a.items())
        for arrangement in product(*(permutations(between_b[ends]) for ends, _ in groups)):
            amap = {
                name: image
                for (_, names), perm in zip(groups, arrangement)
                for name, image in zip(names, perm)
            }
            if _carries_sets(sets_a, sets_b, vmap, amap):
                yield vmap, amap


def reference_validate_ssb(pres: Presentation) -> Validation[SSBPresentation]:
    """The symmetric special biserial validator as it was before its checks
    were merged into one pass over arrow words: every check by its worded
    loop, the relations sorted by kind here from ``pres.relations``, cycles
    decomposed by scanning every period and every rotation, and the
    special-biserial conditions by the library's worded
    ``validate_special_biserial``."""
    problems: list[Problem] = []
    quiver = pres.quiver
    monomials = [r.path for r in pres.relations if isinstance(r, Monomial)]
    binomials = [r for r in pres.relations if isinstance(r, Binomial)]
    quadratic = {p.arrows for p in monomials if len(p) == 2}
    long_monomials = [p for p in monomials if len(p) > 2]

    def nonzero(p: Path) -> bool:
        return quadratic.isdisjoint(zip(p.arrows, p.arrows[1:])) and not any(
            is_subpath(m, p) for m in long_monomials if len(m) <= len(p)
        )

    def least_rotation(p: Path) -> Path:
        arrows = p.arrows
        return rotate(p, min(range(len(arrows)), key=lambda k: arrows[k:] + arrows[:k]))

    if not quiver.vertices:
        return Validation((Problem("degenerate", "empty quiver"),), None)
    if len(quiver.vertices) == 1 and not quiver.arrows:
        return Validation(
            (Problem("degenerate", "one vertex and no arrows (the ground field)"),), None
        )
    if (
        len(quiver.vertices) == 1
        and len(quiver.arrows) == 1
        and quiver.arrows[0].is_loop()
        and len(pres.relations) == 1
        and len(monomials) == 1
        and len(monomials[0]) == 2
    ):
        return Validation(
            (
                Problem(
                    "degenerate",
                    "one loop with a quadratic zero relation (dual numbers); "
                    "excluded from the Brauer graph correspondence",
                ),
            ),
            None,
        )
    if not quiver.is_connected():
        problems.append(Problem("connected", "quiver is not connected"))
    problems.extend(validate_special_biserial(pres))

    socle_steps: list[Path] = []
    for w in long_monomials:
        if w.vertices[-2] == w.vertices[0] and w.arrows[-1] == w.arrows[0]:
            socle_steps.append(w)
        else:
            problems.append(
                Problem(
                    "normal-form",
                    f"monomial {w.label()!r} is neither quadratic nor a cycle power "
                    "followed by its first arrow",
                )
            )
    for r in binomials:
        for side in r.paths():
            if not side.is_cyclic():
                problems.append(
                    Problem("normal-form", f"binomial side {side.label()!r} is not a cycle")
                )
            if not nonzero(side):
                problems.append(
                    Problem(
                        "normal-form", f"binomial side {side.label()!r} contains a zero relation"
                    )
                )
    if problems:
        return Validation(tuple(problems), None)

    based: dict[str, list[ProjectiveDescriptor]] = {v: [] for v in quiver.vertices}
    for r in binomials:
        v = r.left.source
        first, second = sorted((r.left, r.right), key=path_sort_key)
        based[v].append(ProjectiveDescriptor(v, first, second))
    for w in socle_steps:
        v = w.source
        based[v].append(ProjectiveDescriptor(v, w.prefix(len(w) - 1), trivial_path(v)))
    descriptors: list[ProjectiveDescriptor] = []
    for v in quiver.vertices:
        if len(based[v]) != 1:
            problems.append(
                Problem(
                    "projectives",
                    f"vertex {v!r} is the base of {len(based[v])} socle relations "
                    "instead of exactly one",
                )
            )
        else:
            descriptors.append(based[v][0])
    if problems:
        return Validation(tuple(problems), None)

    outs, ins = quiver.arrows_from, quiver.arrows_into
    for d in descriptors:
        words = [w.arrows for w in d.paths() if w.arrows]
        firsts, lasts = {w[0] for w in words}, {w[-1] for w in words}
        if len(words) == 2 and (len(firsts) != 2 or len(lasts) != 2):
            problems.append(
                Problem(
                    "projectives", f"the two cycles at {d.vertex!r} share a first or last arrow"
                )
            )
        here = {a.name for a in outs[d.vertex]}, {a.name for a in ins[d.vertex]}
        if (firsts, lasts) != here:
            problems.append(
                Problem(
                    "projectives", f"cycles at {d.vertex!r} do not account for all arrows there"
                )
            )

    families: dict[Path, int] = {}
    for d in descriptors:
        for w in d.paths():
            if w.is_trivial():
                continue
            n = len(w)
            period = next(
                p for p in range(1, n + 1) if n % p == 0 and w.arrows == w.arrows[:p] * (n // p)
            )
            rep = least_rotation(w.prefix(period))
            if families.setdefault(rep, n // period) != n // period:
                problems.append(
                    Problem(
                        "cycles", f"cycle {rep.label()!r} appears with two different exponents"
                    )
                )
    arrow_uses = {a.name: 0 for a in quiver.arrows}
    for rep in families:
        for name in rep.arrows:
            arrow_uses[name] += 1
    bad = sorted(n for n, c in arrow_uses.items() if c != 1)
    if bad:
        problems.append(
            Problem("cycles", f"arrows not on exactly one vertex cycle: {', '.join(bad)}")
        )
    if problems:
        return Validation(tuple(problems), None)

    successor = {}
    for rep in families:
        successor.update(zip(rep.arrows, rep.arrows[1:] + rep.arrows[:1]))
    for a in quiver.arrows:
        for b in outs[a.target]:
            on_cycle = successor[a.name] == b.name
            if on_cycle == ((a.name, b.name) in quadratic):
                where = (
                    "lies on a vertex cycle but is declared zero"
                    if on_cycle
                    else "is off-cycle but has no zero relation"
                )
                problems.append(Problem("normal-form", f"composition {a.name} {b.name} {where}"))
    if problems:
        return Validation(tuple(problems), None)
    cycle_families = tuple(sorted(families.items(), key=lambda it: path_sort_key(it[0])))
    return Validation((), SSBPresentation(pres, tuple(descriptors), cycle_families))


def reference_validate_gentle(pres: Presentation) -> Validation[GentleAlgebra]:
    """The gentle validator as it was before it decided gentleness by
    counts: every check by its worded loop, the relation-free cycles by a
    DFS over the allowed successors, the maximal paths as the chains of
    the allowed-successor map, and the maximal-path slots of every vertex
    counted on the built algebra."""
    problems: list[Problem] = []
    quiver = pres.quiver
    if not quiver.vertices:
        problems.append(Problem("degenerate", "empty quiver"))
    elif len(quiver.vertices) == 1 and not quiver.arrows:
        problems.append(Problem("degenerate", "one vertex and no arrows (the ground field)"))
    if quiver.vertices and not quiver.is_connected():
        problems.append(Problem("connected", "quiver is not connected"))
    for r in pres.relations:
        if isinstance(r, Monomial):
            if len(r.path) != 2:
                problems.append(
                    Problem("S3", f"monomial relation {r.path.label()!r} has length != 2")
                )
        else:
            problems.append(
                Problem("S3", f"binomial relation {r!r} is not allowed in a gentle presentation")
            )
    problems.extend(validate_special_biserial(pres))
    monomials = [r.path for r in pres.relations if isinstance(r, Monomial)]
    zero = {p.arrows for p in monomials if len(p) == 2}
    arrows, outs, ins = quiver.arrows, quiver.arrows_from, quiver.arrows_into
    after = {a.name: [b for b in outs[a.target] if (a.name, b.name) not in zero] for a in arrows}
    before = {a.name: [b for b in ins[a.source] if (b.name, a.name) not in zero] for a in arrows}
    for a in quiver.arrows:
        if len(outs[a.target]) - len(after[a.name]) > 1:
            problems.append(Problem("S4", f"arrow {a.name!r} has several forbidden successors"))
        if len(ins[a.source]) - len(before[a.name]) > 1:
            problems.append(Problem("S4", f"arrow {a.name!r} has several forbidden predecessors"))
    if not problems and _has_relation_free_cycle(quiver, zero):
        problems.append(
            Problem(
                "finite",
                "an oriented cycle avoids all relations; the algebra is infinite-dimensional",
            )
        )
    if problems:
        return Validation(tuple(problems), None)

    chains = []
    for start in (a for a in quiver.arrows if not before[a.name]):
        chain = [start]
        while after[chain[-1].name]:
            chain.append(after[chain[-1].name][0])
        names = tuple(a.name for a in chain)
        chains.append(Path((start.source, *(a.target for a in chain)), names))
    maximal = tuple(sorted(chains, key=path_sort_key))
    extended = maximal + tuple(
        trivial_path(v)
        for v in quiver.vertices
        if _gets_trivial_maximal(quiver.arrows_into[v], quiver.arrows_from[v], zero)
    )
    algebra = GentleAlgebra(pres, maximal, extended)
    for v, occ in vertex_occurrences(algebra).items():
        if len(occ) != 2:
            problems.append(
                Problem(
                    "occurrences",
                    f"vertex {v!r} lies on {len(occ)} maximal-path slots instead of 2",
                )
            )
    if problems:
        return Validation(tuple(problems), None)
    return Validation((), algebra)


def reference_projectives_oracle(algebra: GentleAlgebra, vertex: str) -> tuple[Path, ...]:
    """The glued projective basis at ``vertex`` as it was built before its
    keys: a ``Path`` per prefix of each glued cycle, in a set, sorted by
    ``path_sort_key``."""
    occurrences = []
    for m in algebra.maximal_paths:
        for slot, v in enumerate(m.vertices):
            if v == vertex:
                occurrences.append((m, slot))
    quiver = algebra.quiver
    zero = algebra.presentation.quadratic_monomials
    if _gets_trivial_maximal(quiver.arrows_into[vertex], quiver.arrows_from[vertex], zero):
        occurrences.append(None)
    assert len(occurrences) == 2
    betas = algebra.return_arrow_names

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


def reference_projective_basis(ssb: SSBPresentation, vertex: str) -> tuple[Path, ...]:
    """The projective basis at ``vertex`` as it was built before its keys:
    a ``Path`` per prefix of each maximal path, sorted by ``path_sort_key``."""
    d = ssb.projective_at[vertex]
    basis = [trivial_path(vertex)]
    for w in d.paths():
        basis.extend(w.prefix(k) for k in range(1, len(w)))
    basis.append(min(d.paths(), key=path_sort_key) if not d.is_uniserial() else d.first)
    return tuple(sorted(basis, key=path_sort_key))


def reference_path_is_nonzero(pres: Presentation, p: Path) -> bool:
    """The monomial zero test as it was written on paths: each pair of
    consecutive arrows looked up among the length-two relations, and every
    longer relation path tested with ``is_subpath``."""
    arrows = p.arrows
    if any(pair in pres.quadratic_monomials for pair in zip(arrows, arrows[1:])):
        return False
    return not any(is_subpath(m, p) for m in pres.long_monomials)


def _with_one_arrow_more(quiver: Quiver, paths) -> Iterator[Path]:
    """Each path, then each of its extensions by one arrow on the left and
    on the right."""
    for p in paths:
        yield p
        for a in quiver.arrows_into[p.source]:
            yield Path((a.source,) + p.vertices, (a.name,) + p.arrows)
        for a in quiver.arrows_from[p.target]:
            yield Path(p.vertices + (a.target,), p.arrows + (a.name,))


def zero_test_mismatches(algebra: GentleAlgebra) -> tuple[list[Path], int]:
    """The paths on which the word-level zero test differs from the
    reference test on paths, and how many of the paths tested meet a
    relation of length three or more.

    Tested: every nonzero path of ``algebra`` and every projective basis
    element of its trivial extension (whose socle relations are long
    monomials), each read from its key and extended by one arrow on either
    side.
    """
    from quiveralg.ssb import projective_basis
    from quiveralg.trivext import trivial_extension

    ext = trivial_extension(algebra)
    ext_keys = [key for v in ext.quiver.vertices for key in projective_basis(ext, v)]
    found, long_hits = [], 0
    for pres, keys in (
        (algebra.presentation, algebra._nonzero_keys),
        (ext.presentation, ext_keys),
    ):
        paths = [Path(itinerary, word) for _, word, itinerary in keys]
        for p in _with_one_arrow_more(pres.quiver, paths):
            if pres.word_is_nonzero_monomially(p.arrows) != reference_path_is_nonzero(pres, p):
                found.append(p)
            long_hits += any(is_subpath(m, p) for m in pres.long_monomials)
    return found, long_hits


def p_cycle(p: Path) -> tuple[str, ...]:
    """Source vertices of the arrows of the simple cycle underlying ``p``;
    a trivial path gives its one vertex."""
    if p.is_trivial():
        return (p.source,)
    return p.vertices[: _least_period(p.arrows)]


def polygon_triangulations(n: int) -> Iterator[Triangulation]:
    """Every triangulation of the convex ``n``-gon on the points ``m0`` to
    ``m(n-1)``: boundary segment ``s_i`` runs from ``m_i`` to
    ``m_(i+1 mod n)``, diagonal ``d_i.j`` joins ``m_i`` to ``m_j``, and the
    triangle on ``i < j < k`` has the sides ``(i, j), (j, k), (i, k)``.
    There are Catalan(n - 2) of them."""

    def side(i: int, j: int) -> str:
        return f"s{i}" if j == i + 1 else f"s{j}" if (i, j) == (0, n - 1) else f"d{i}.{j}"

    def triples(i: int, k: int) -> Iterator[list[tuple[int, int, int]]]:
        """The triangulations of the polygon on the points ``i`` to ``k``."""
        if k - i < 2:
            yield []
            return
        for j in range(i + 1, k):
            for below in triples(i, j):
                for above in triples(j, k):
                    yield [*below, (i, j, k), *above]

    points = [f"m{i}" for i in range(n)]
    bsegs = {f"s{i}": (f"m{i}", f"m{(i + 1) % n}") for i in range(n)}
    for found in triples(0, n - 1):
        triangles = {
            f"t{i}.{j}.{k}": (side(i, j), side(j, k), side(i, k)) for i, j, k in found
        }
        arcs = {
            side(a, b): (f"m{a}", f"m{b}")
            for i, j, k in found
            for a, b in ((i, j), (j, k), (i, k))
            if side(a, b).startswith("d")
        }
        yield Triangulation(points, bsegs, arcs, triangles)


def semidirect_mismatches(
    algebra: GentleAlgebra,
    pres: Presentation,
    rename: dict[str, str] | None = None,
    classes: int | None = None,
) -> list[str]:
    """How ``pres`` fails to present the trivial extension T(A) = A ⋉ DA of
    the gentle algebra A = ``algebra``, built here from its definition.

    The basis of A ⋉ DA is the nonzero paths p of A (by enumeration, as
    :func:`_clean_paths`) and their duals p*.  A path times a path is
    their concatenation when that is nonzero; p·q* = z* when z·p = q, and
    q*·p = z* when p·z = q; every other product of two basis elements is
    zero.  A dual p* runs from the target of p to its source.  An arrow x
    of ``pres`` goes to the element named ``rename.get(x, x)``: an arrow of
    A to itself, and the return arrow of a maximal path m of A (its name in
    ``algebra.return_arrow_names``) to m*.  The map is an isomorphism when
    the quivers have the same vertices, each arrow has an image between
    its own two vertices, every relation maps to zero or has equal sides,
    the images of the paths of ``pres`` hit all 2·dim A basis elements,
    and ``pres`` has 2·dim A classes: ``classes``, when the caller has
    counted them already, or :func:`quotient_dimension`.  An empty list
    means all of that holds.
    """
    rename = rename or {}
    quiver = algebra.quiver
    nonzero = {(p.source, p.arrows) for p in _clean_paths(algebra.presentation, 10**6, 10**6)}
    duals = {name: m for m, name in algebra.return_arrow_names.items()}

    def target(source: str, word: tuple[str, ...]) -> str:
        return quiver.arrow_map[word[-1]].target if word else source

    def ends(x) -> tuple[str, str]:  # x = (is_dual, source of the path, word)
        dual, source, word = x
        return (target(source, word), source) if dual else (source, target(source, word))

    def times(x, y):
        if x is None or y is None or ends(x)[1] != ends(y)[0]:
            return None
        (x_dual, x_source, x_word), (y_dual, y_source, y_word) = x, y
        if not x_dual and not y_dual:
            word = x_word + y_word
            return (False, x_source, word) if (x_source, word) in nonzero else None
        if x_dual and y_dual:
            return None
        if y_dual:  # p·q* with q = z·p
            cut = len(y_word) - len(x_word)
            return (True, y_source, y_word[:cut]) if y_word[cut:] == x_word else None
        # q*·p with q = p·z
        if y_word == x_word[: len(y_word)]:
            return (True, target(y_source, y_word), x_word[len(y_word) :])
        return None

    images, problems = {}, []
    if pres.quiver.vertices != quiver.vertices:
        problems.append("the vertices differ")
        return problems
    for a in pres.quiver.arrows:
        name = rename.get(a.name, a.name)
        if name in quiver.arrow_map:
            image = (False, quiver.arrow_map[name].source, (name,))
        elif name in duals:
            image = (True, duals[name].source, duals[name].arrows)
        else:
            problems.append(f"arrow {a.name} has no image")
            continue
        if ends(image) != (a.source, a.target):
            problems.append(f"arrow {a.name} goes to an element between other vertices")
        images[a.name] = image
    if problems:
        return problems

    def image_of(p: Path):
        x = (False, p.source, ())
        for name in p.arrows:
            x = times(x, images[name])
        return x

    for r in pres.relations:
        if isinstance(r, Monomial):
            if image_of(r.path) is not None:
                problems.append(f"relation {r.path.label()} does not map to zero")
        elif image_of(r.left) != image_of(r.right):
            problems.append(f"relation {r.left.label()} = {r.right.label()} has unequal sides")
    hit = set()
    frontier = [(a.target, images[a.name]) for a in pres.quiver.arrows]
    frontier += [(v, (False, v, ())) for v in quiver.vertices]
    while frontier:  # every arrow goes into the radical, which is nilpotent
        end, x = frontier.pop()
        hit.add(x)
        for a in pres.quiver.arrows_from[end]:
            y = times(x, images[a.name])
            if y is not None:
                frontier.append((a.target, y))
    basis = {(dual, source, word) for source, word in nonzero for dual in (False, True)}
    if hit != basis:
        problems.append(f"the images hit {len(hit & basis)} of {len(basis)} basis elements")
    if classes is None:
        classes = quotient_dimension(pres)
    if classes != len(basis):
        problems.append(f"{classes} classes, {len(basis)} basis elements")
    return problems


def extension_route_failures(algebra: GentleAlgebra, ssb: SSBPresentation) -> list[str]:
    """The properties of the trivial-extension suite that fail on the route
    that builds T(A): the glued projective bases against those of
    ``trivial_extension(algebra)`` at every vertex, the graph of T(A)
    against the gentle graph up to isomorphism, the dimension of T(A)
    against twice that of ``algebra``, and, as ``roundtrip``, T(A) against
    ``ssb`` by ``is_isomorphic_ssb``."""
    from quiveralg.brauer import is_isomorphic
    from quiveralg.ssb import graph_of_ssb, is_isomorphic_ssb, projective_basis
    from quiveralg.trivext import extension_of_graph, graph_of_gentle, projectives_oracle

    graph = graph_of_gentle(algebra)
    ext = extension_of_graph(algebra, graph)
    failed = []
    vertices = algebra.quiver.vertices
    if any(projectives_oracle(algebra, v) != projective_basis(ext, v) for v in vertices):
        failed.append("projective-gluing")
    if not is_isomorphic(graph_of_ssb(ext), graph):
        failed.append("graph-of-extension")
    if ext.dimension != 2 * algebra.dimension:
        failed.append("dimension-doubling")
    if not is_isomorphic_ssb(ext, ssb):
        failed.append("roundtrip")
    return failed
