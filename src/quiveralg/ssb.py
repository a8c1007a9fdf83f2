"""Symmetric special biserial presentations in Brauer-normalized form.

A normalized presentation has three kinds of relations: length-two zero
relations, zero relations of the shape ``C^e * first(C)`` for a cycle ``C``
(one step past the socle of a uniserial projective), and commutativity
relations between two cycle powers based at a common vertex.  From these the
validator derives, for every quiver vertex, the descriptor ``P_v(p, q)`` of
its projective: the two maximal cyclic paths through ``v``, one of which may
be trivial.

The descriptors carry everything this module computes: explicit bases of
the projectives, the decomposition of the arrows into vertex cycles, and
the ribbon graph whose vertices are the rotation classes of the maximal
cyclic paths, with one edge per quiver vertex joining its two occurrences.
Building that graph and comparing it with a starting Brauer graph is the
roundtrip exercised by the verification suites.  Two such algebras are
compared by propagating a map from one arrow along the vertex cycles and
checking it against the descriptors: a projective's basis is the set of
prefixes of its two maximal paths, so a map carries bases onto bases
exactly when it carries each vertex's set of maximal words onto the set at
the image vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brauer import BrauerGraph, discovery_code
from .errors import InconsistencyError, RotationError, ValidationError
from .quiver import (
    Monomial,
    Path,
    Presentation,
    Problem,
    Validation,
    cached_property,
    path_sort_key,
    rotate,
    trivial_path,
)
from .gentle import validate_special_biserial


@dataclass(frozen=True, slots=True)
class SimpleCycleDecomp:
    """A cyclic path written as the smallest repeating cycle and its exponent."""

    primitive: Path
    exponent: int


@dataclass(frozen=True, slots=True)
class ProjectiveDescriptor:
    """The two maximal cyclic paths through a vertex; ``second`` may be trivial."""

    vertex: str
    first: Path
    second: Path

    def paths(self) -> tuple[Path, ...]:
        return (self.first, self.second)

    def is_uniserial(self) -> bool:
        return self.second.is_trivial()


@dataclass(frozen=True)
class SSBPresentation:
    presentation: Presentation
    projectives: tuple[ProjectiveDescriptor, ...]
    # the distinct vertex cycles (canonical rotations) with their exponents
    cycle_families: tuple[tuple[Path, int], ...]

    @property
    def quiver(self):
        return self.presentation.quiver

    @cached_property
    def projective_at(self) -> dict[str, ProjectiveDescriptor]:
        return {d.vertex: d for d in self.projectives}

    @cached_property
    def dimension(self) -> int:
        return sum(projective_dimension(self, v) for v in self.quiver.vertices)

    @cached_property
    def arrow_codes(self) -> tuple[tuple[tuple, list[str]], ...]:
        """Per arrow in name order, its discovery code and order (see
        :func:`find_ssb_isomorphism`); an algebra compared with many others
        builds them once."""
        links = _arrow_links(self)
        return tuple(discovery_code(*links, x.name) for x in self.quiver.arrows)


def simple_cycle_decomposition(p: Path) -> SimpleCycleDecomp:
    """Smallest-period decomposition ``p = p0^m`` of a nontrivial cycle."""
    if p.is_trivial() or not p.is_cyclic():
        raise RotationError(f"{p!r} is not a nontrivial cycle")
    n = len(p.arrows)
    for d in range(1, n + 1):
        if n % d == 0 and p.arrows == p.arrows[:d] * (n // d):
            return SimpleCycleDecomp(p.prefix(d), n // d)
    raise AssertionError("unreachable: every word has a period")


def p_cycle(p: Path) -> tuple[str, ...]:
    """Source vertices of the arrows of the simple cycle underlying ``p``.

    Trivial maximal paths are allowed and give the one-entry sequence.
    """
    if p.is_trivial():
        return (p.source,)
    return simple_cycle_decomposition(p).primitive.vertices[:-1]


def rotation_class(p: Path) -> Path:
    """Canonical representative: the lexicographically least rotation."""
    if p.is_trivial():
        return p
    if not p.is_cyclic():
        raise RotationError(f"{p!r} is not a cycle")
    arrows = p.arrows
    return rotate(p, min(range(len(arrows)), key=lambda k: arrows[k:] + arrows[:k]))


def _looks_like_dual_numbers(pres: Presentation) -> bool:
    q = pres.quiver
    return (
        len(q.vertices) == 1
        and len(q.arrows) == 1
        and q.arrows[0].is_loop()
        and all(isinstance(r, Monomial) and len(r.path) == 2 for r in pres.relations)
        and len(pres.relations) == 1
    )


def validate_ssb(pres: Presentation) -> Validation[SSBPresentation]:
    """Check normalized form and derive the projective descriptors.

    The validator refuses to guess: every structural fact the construction
    of the graph relies on (one relation based at each vertex, each arrow on
    exactly one vertex cycle, zero relations exactly at the out-of-cycle
    compositions) is checked and reported rather than assumed.
    """
    problems: list[Problem] = []
    quiver = pres.quiver

    if not quiver.vertices:
        return Validation((Problem("degenerate", "empty quiver"),), None)
    if len(quiver.vertices) == 1 and not quiver.arrows:
        return Validation(
            (Problem("degenerate", "one vertex and no arrows (the ground field)"),),
            None,
        )
    if _looks_like_dual_numbers(pres):
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

    socle_steps: list[Path] = []  # monomials C^e * first(C)
    binomials = pres.binomials
    for w in pres.long_monomials:
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
            if not pres.path_is_nonzero_monomially(side):
                problems.append(
                    Problem(
                        "normal-form",
                        f"binomial side {side.label()!r} contains a zero relation",
                    )
                )

    if problems:
        return Validation(tuple(problems), None)

    # exactly one socle-defining relation based at every vertex
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
                    "projectives",
                    f"the two cycles at {d.vertex!r} share a first or last arrow",
                )
            )
        here = {a.name for a in outs[d.vertex]}, {a.name for a in ins[d.vertex]}
        if (firsts, lasts) != here:
            problems.append(
                Problem(
                    "projectives",
                    f"cycles at {d.vertex!r} do not account for all arrows there",
                )
            )

    # Each vertex cycle is decomposed once; a further path that spells a
    # known cycle's power from one of its arrows has that cycle and exponent,
    # and any other path goes through the full decomposition.
    families: dict[Path, int] = {}
    power_from: dict[str, tuple[str, ...]] = {}  # arrow -> its cycle's power read from it
    for d in descriptors:
        for w in d.paths():
            if w.is_trivial() or power_from.get(w.arrows[0]) == w.arrows:
                continue
            dec = simple_cycle_decomposition(w)
            rep = rotation_class(dec.primitive)
            if families.setdefault(rep, dec.exponent) != dec.exponent:
                problems.append(
                    Problem(
                        "cycles",
                        f"cycle {rep.label()!r} appears with two different exponents",
                    )
                )
            word = rep.arrows
            for i, name in enumerate(word):
                power_from.setdefault(name, (word[i:] + word[:i]) * families[rep])
    arrow_uses: dict[str, int] = {a.name: 0 for a in quiver.arrows}
    for rep in families:
        for name in rep.arrows:
            if name in arrow_uses:
                arrow_uses[name] += 1
    bad = sorted(n for n, c in arrow_uses.items() if c != 1)
    if bad:
        problems.append(
            Problem(
                "cycles",
                f"arrows not on exactly one vertex cycle: {', '.join(bad)}",
            )
        )
    if problems:
        return Validation(tuple(problems), None)

    # zero relations must sit exactly at the out-of-cycle compositions; every
    # arrow now lies once on one cycle, so its cycle successor is unique
    successor = {}
    for rep in families:
        for x, y in zip(rep.arrows, rep.arrows[1:] + rep.arrows[:1]):
            successor[x] = y
    quadratic = pres.quadratic_monomials
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


def ssb_presentation(pres: Presentation) -> SSBPresentation:
    report = validate_ssb(pres)
    if report.algebra is None:
        raise ValidationError(report.problems)
    return report.algebra


def projective_basis(ssb: SSBPresentation, vertex: str) -> tuple[Path, ...]:
    """Explicit basis of the projective at ``vertex``.

    The trivial path, the proper prefixes of both cycles, and one canonical
    representative of the socle (the two full cycles are identified in the
    algebra, so only the smaller one is listed); the length of the result is
    the dimension of the projective.
    """
    d = ssb.projective_at[vertex]
    basis = [trivial_path(vertex)]  # the two cycles start with distinct arrows
    for w in d.paths():
        basis.extend(w.prefix(k) for k in range(1, len(w)))
    basis.append(min(d.paths(), key=path_sort_key) if not d.is_uniserial() else d.first)
    return tuple(sorted(basis, key=path_sort_key))


def projective_dimension(ssb: SSBPresentation, vertex: str) -> int:
    """``len(projective_basis(ssb, vertex))``, counted without building it:
    the trivial path, the socle, and the proper nontrivial prefixes of each
    nontrivial maximal path."""
    return 2 + sum(len(w) - 1 for w in ssb.projective_at[vertex].paths() if w.arrows)


def graph_of_ssb(ssb: SSBPresentation) -> BrauerGraph:
    """The ribbon graph of a normalized symmetric special biserial algebra.

    Graph vertices are the rotation classes of the maximal cyclic paths
    (plus one vertex per trivial maximal path), carrying the exponent of
    their simple cycle as multiplicity.  The vertex sequence of each simple
    cycle lays out germs in cyclic order; each quiver vertex occurs exactly
    twice among all germs and its two occurrences are joined into the edge
    named after it.  A double occurrence inside one cycle closes up into a
    loop.
    """
    stations: list[tuple[str, int, tuple[str, ...]]] = []  # (vertex id, mult, mu)
    for rep, exponent in ssb.cycle_families:
        stations.append((f"c({'.'.join(rep.arrows)})", exponent, rep.vertices[:-1]))
    for d in ssb.projectives:
        if d.is_uniserial():
            stations.append((f"t({d.vertex})", 1, (d.vertex,)))

    occurrences: dict[str, list[tuple[str, int]]] = {}
    for gv, _, mu in stations:
        for idx, qv in enumerate(mu):
            occurrences.setdefault(qv, []).append((gv, idx))
    for qv, occ in sorted(occurrences.items()):
        if len(occ) != 2:
            raise InconsistencyError(
                f"quiver vertex {qv!r} has {len(occ)} germ occurrences instead of 2; "
                "the presentation is not genuinely normalized"
            )
    germ_name: dict[tuple[str, int], str] = {}
    edges: dict[str, tuple[str, str]] = {}
    for qv, occ in occurrences.items():
        occ = sorted(occ)
        for side, place in enumerate(occ):
            germ_name[place] = f"{qv}.{side}"
        edges[qv] = (germ_name[occ[0]], germ_name[occ[1]])

    multiplicities = {gv: mult for gv, mult, _ in stations}
    rotations = {
        gv: tuple(germ_name[(gv, idx)] for idx in range(len(mu)))
        for gv, _, mu in stations
    }
    return BrauerGraph(multiplicities, edges, rotations)


# ---------------------------------------------------------------------------
# Isomorphism by propagation from one arrow
# ---------------------------------------------------------------------------


def _arrow_links(ssb: SSBPresentation) -> tuple[dict, dict, dict]:
    """Per arrow: its successor on its vertex cycle, the other arrow with the
    same source or, when there is none, the arrow itself (which no other
    arrow at a source ever is), and a constant label."""
    successor = {}
    for rep, _ in ssb.cycle_families:
        word = rep.arrows
        successor.update(zip(word, word[1:] + word[:1]))
    outs = ssb.quiver.arrows_from
    partner = {
        x.name: next((y.name for y in outs[x.source] if y.name != x.name), x.name)
        for x in ssb.quiver.arrows
    }
    return successor, partner, dict.fromkeys(successor, 0)


def find_ssb_isomorphism(
    a: SSBPresentation, b: SSBPresentation
) -> tuple[dict[str, str], dict[str, str]] | None:
    """Search for a quiver isomorphism matching all projective bases, by
    propagation from one arrow.

    An isomorphism that carries bases onto bases keeps, for every arrow, its
    successor on its vertex cycle and the other arrow at its source; these
    two links reach every arrow, so the isomorphism is fixed by the image of
    one arrow.  Each arrow of ``b`` in turn is tried as the image of the
    first arrow of ``a``.  Where the two discovery orders link up alike,
    zipping them gives the arrow map and the arrow sources give the vertex
    map; the candidate is accepted when, at every vertex of ``a``, it carries
    the set of arrow words of the two maximal paths onto the set at the
    image vertex in ``b``.  A projective basis is the set of prefixes of
    those paths, and neither is a prefix of the other, so this is the same
    verdict as comparing the bases as sets of paths.  The first accepted
    candidate is returned, so an algebra's map to itself is the identity.
    """
    qa, qb = a.quiver, b.quiver
    words_b = {d.vertex: {w.arrows for w in d.paths()} for d in b.projectives}
    code_a, order_a = discovery_code(*_arrow_links(a), qa.arrows[0].name)
    for code_b, order_b in b.arrow_codes:
        if code_b != code_a:
            continue
        amap = dict(zip(order_a, order_b))
        vmap = {x.source: qb.arrow_map[amap[x.name]].source for x in qa.arrows}
        if all(
            {tuple(amap[x] for x in w.arrows) for w in d.paths()} == words_b[vmap[d.vertex]]
            for d in a.projectives
        ):
            return vmap, amap
    return None


def is_isomorphic_ssb(a: SSBPresentation, b: SSBPresentation) -> bool:
    return find_ssb_isomorphism(a, b) is not None


def distinguishing_invariant(a: SSBPresentation, b: SSBPresentation) -> str:
    """A human-readable reason two algebras differ, for reporting."""
    if a.dimension != b.dimension:
        return f"dimensions differ: {a.dimension} != {b.dimension}"
    dims_a = sorted(projective_dimension(a, v) for v in a.quiver.vertices)
    dims_b = sorted(projective_dimension(b, v) for v in b.quiver.vertices)
    if dims_a != dims_b:
        return f"projective dimension multisets differ: {dims_a} != {dims_b}"
    if len(a.quiver.arrows) != len(b.quiver.arrows):
        return (
            f"arrow counts differ: {len(a.quiver.arrows)} != {len(b.quiver.arrows)}"
        )
    return "no quiver bijection matches the projective bases"
