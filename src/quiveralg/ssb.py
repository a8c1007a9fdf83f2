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
from .errors import InconsistencyError, ValidationError
from .quiver import (
    Monomial,
    Path,
    Presentation,
    Problem,
    Validation,
    cached_property,
    is_subpath,
    trivial_path,
)
from .gentle import _allowed_walk, validate_special_biserial


@dataclass(frozen=True, slots=True, init=False)
class ProjectiveDescriptor:
    """The two maximal cyclic paths through a vertex; ``second`` may be trivial."""

    vertex: str
    first: Path
    second: Path

    def __init__(self, vertex: str, first: Path, second: Path):
        _set = object.__setattr__
        _set(self, "vertex", vertex)
        _set(self, "first", first)
        _set(self, "second", second)

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
    def quadratic_relations(self) -> tuple[Monomial, ...]:
        """The length-two zero relations, once each, in the order of their
        arrow words; every admissible cut of the algebra keeps those on its
        surviving arrows, so an algebra cut many times sorts them once."""
        by_word = {
            r.path.arrows: r
            for r in self.presentation.relations
            if isinstance(r, Monomial) and len(r.path.arrows) == 2
        }
        return tuple([by_word[word] for word in sorted(by_word)])

    @cached_property
    def arrow_codes(self) -> tuple[tuple[tuple, list[str]], ...]:
        """Per arrow in name order, its discovery code and order (see
        :func:`find_ssb_isomorphism`); an algebra compared with many others
        builds them once."""
        links = _arrow_links(self)
        return tuple(discovery_code(*links, x.name) for x in self.quiver.arrows)


def _least_period(word: tuple[str, ...]) -> int:
    """The least ``d`` with ``word == word[:d] * (len(word) // d)``.

    Every such ``d`` short of the length is a recurrence of the first
    letter, so the first recurrence is tried first; only when it is not a
    period does the scan go on past it.
    """
    n, first = len(word), word[0]
    d = 0
    for _ in range(word.count(first) - 1):
        d = word.index(first, d + 1)
        if n % d == 0 and word == word[:d] * (n // d):
            return d
    return n


def _least_rotation(word: tuple[str, ...]) -> int:
    """Where the lexicographically least rotation of ``word`` starts: at its
    least letter when that occurs once, otherwise found by comparing every
    rotation (the first of equal ones)."""
    least = min(word)
    if word.count(least) == 1:
        return word.index(least)
    return min(range(len(word)), key=lambda k: word[k:] + word[:k])


def validate_ssb(pres: Presentation) -> Validation[SSBPresentation]:
    """Check normalized form and derive the projective descriptors.

    The validator refuses to guess: every structural fact the construction
    of the graph relies on (one relation based at each vertex, each arrow on
    exactly one vertex cycle, zero relations exactly at the out-of-cycle
    compositions) is checked and reported rather than assumed.

    Every check is made once, in the same order as always, on arrow words.
    Where a check has a test that decides it exactly without naming what
    fails, that test comes first, and the worded form of the check runs
    only when the test fails; so a presentation in normal form passes no
    worded loop, and any other gets the problems, in the order, that the
    worded checks alone would give.  The tests: the special-biserial
    conditions by the walk along the allowed successors that the gentle
    validator runs too (:func:`~quiveralg.gentle._allowed_walk`), which also
    fails on S4, where the worded check finds nothing (a normalized
    presentation passes S4, each arrow's one allowed successor being its
    cycle successor); the binomial sides as cycles free of zero pairs; one
    socle relation per vertex from the number of base vertices; the first
    and the last arrows of the maximal paths, which start and end at their
    vertex, as many as the arrows and all distinct; each arrow on exactly
    one cycle from the cycles' letter count and the arrows they pass; and,
    with at most one allowed successor per arrow, the zero pairs from the
    cycle-successor table that the decomposition fills.  A cycle is
    decomposed once: a later path that spells its known power from the
    path's first arrow has its cycle and exponent.
    """
    quiver = pres.quiver
    vertices, arrows = quiver.vertices, quiver.arrows

    if not vertices:
        return Validation((Problem("degenerate", "empty quiver"),), None)
    if len(vertices) == 1 and not arrows:
        return Validation(
            (Problem("degenerate", "one vertex and no arrows (the ground field)"),),
            None,
        )
    # one vertex, so its one arrow is a loop, and one quadratic zero relation
    if len(vertices) == len(arrows) == len(pres.relations) == 1 and pres.quadratic_monomials:
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
    problems: list[Problem] = []
    if not quiver.is_connected():
        problems.append(Problem("connected", "quiver is not connected"))
    if _allowed_walk(pres) is None:
        problems.extend(validate_special_biserial(pres))

    zero, longer, binomials = pres.quadratic_monomials, pres.long_monomials, pres.binomials
    socle_steps: list[Path] = []  # monomials C^e * first(C)
    for w in longer:
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
    # One pass over the binomials: their sides are cycles free of zero
    # relations, and each is based at its own vertex, with its smaller side
    # (in path_sort_key order) first; the first and the last arrows of the
    # maximal paths are collected on the way.
    regular = True
    based: dict[str, ProjectiveDescriptor] = {}
    firsts: set[str] = set()
    lasts: set[str] = set()
    for r in binomials:
        first, second = r.left, r.right
        a, b = first.arrows, second.arrows
        at, bt = first.vertices, second.vertices
        if (
            at[0] != at[-1]
            or bt[0] != bt[-1]
            or not zero.isdisjoint(zip(a, a[1:]))
            or not zero.isdisjoint(zip(b, b[1:]))
        ):
            regular = False
        if len(b) < len(a) or len(b) == len(a) and (b, bt) < (a, at):
            first, second, a, b = second, first, b, a
        based[at[0]] = ProjectiveDescriptor(at[0], first, second)
        firsts.add(a[0])
        firsts.add(b[0])
        lasts.add(a[-1])
        lasts.add(b[-1])
    if longer and regular:  # the sides avoid the long zero relations too
        regular = not any(
            is_subpath(m, side)
            for r in binomials
            for side in (r.left, r.right)
            for m in longer
            if len(m.arrows) <= len(side.arrows) and m.arrows[0] in side.arrows
        )
    if not regular:
        problems.extend(_irregular_sides(pres))
    if problems:
        return Validation(tuple(problems), None)

    # exactly one socle-defining relation based at every vertex
    for w in socle_steps:
        v, word = w.vertices[0], w.arrows
        power = Path(w.vertices[:-1], word[:-1])
        based[v] = ProjectiveDescriptor(v, power, trivial_path(v))
        firsts.add(word[0])
        lasts.add(word[-2])
    if not len(based) == len(binomials) + len(socle_steps) == len(vertices):
        return Validation(_unbased_vertices(pres, socle_steps), None)
    descriptors = [based[v] for v in vertices]

    # every maximal path at a vertex starts and ends there, so the paths
    # account for the arrows at every vertex when there are as many of them
    # as arrows and no two share a first or a last arrow
    n_arrows = len(arrows)
    if not 2 * len(binomials) + len(socle_steps) == len(firsts) == len(lasts) == n_arrows:
        problems.extend(_unaccounted_arrows(quiver, descriptors))

    # Each vertex cycle is decomposed once, from the first path that spells
    # one of its powers; a further path that spells the known power from
    # its first arrow has that cycle and exponent.
    families: dict[tuple[str, ...], int] = {}  # least rotation -> exponent
    cycles: dict[tuple[str, ...], Path] = {}  # least rotation -> its path
    power_from: dict[str, tuple[str, ...]] = {}  # arrow -> a known power read from it
    successor: dict[str, str] = {}  # arrow -> the next arrow on its cycle
    for d in descriptors:
        for w in (d.first, d.second):
            word = w.arrows
            if not word or power_from.get(word[0]) == word:
                continue
            n, period = len(word), _least_period(word)
            primitive = word[:period]
            k = _least_rotation(primitive)
            rep = primitive[k:] + primitive[:k]
            exponent = families.setdefault(rep, n // period)
            if exponent != n // period:
                problems.append(
                    Problem(
                        "cycles",
                        f"cycle {' '.join(rep)!r} appears with two different exponents",
                    )
                )
            elif rep not in cycles:  # a new cycle: is one of its steps zero?
                cycles[rep] = (
                    w  # the path is its own least rotation
                    if period == n and k == 0
                    else Path(w.vertices[k : period + 1] + w.vertices[1 : k + 1], rep)
                )
                successor.update(zip(rep, rep[1:] + rep[:1]))
            powers, length = rep * (exponent + 1), period * exponent
            for i, name in enumerate(rep):
                power_from[name] = powers[i : i + length]
    # power_from has an entry for each arrow on a cycle
    if sum(map(len, families)) != n_arrows or len(power_from) != n_arrows:
        arrow_uses: dict[str, int] = {a.name: 0 for a in arrows}
        for rep in families:
            for name in rep:
                arrow_uses[name] += 1
        bad = sorted(n for n, c in arrow_uses.items() if c != 1)
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
    if not zero.isdisjoint(successor.items()):
        return Validation(_misplaced_zeros(pres, successor), None)

    ranked = sorted([(len(rep), rep) for rep in families])  # path_sort_key of the cycles
    cycle_families = tuple([(cycles[rep], families[rep]) for _, rep in ranked])
    return Validation((), SSBPresentation(pres, tuple(descriptors), cycle_families))


def _irregular_sides(pres: Presentation) -> list[Problem]:
    """The worded check that every side of a binomial is a cycle and
    contains no zero relation."""
    problems = []
    for r in pres.binomials:
        for side in (r.left, r.right):
            if not side.is_cyclic():
                problems.append(
                    Problem("normal-form", f"binomial side {side.label()!r} is not a cycle")
                )
            if not pres.word_is_nonzero_monomially(side.arrows):
                problems.append(
                    Problem(
                        "normal-form",
                        f"binomial side {side.label()!r} contains a zero relation",
                    )
                )
    return problems


def _unbased_vertices(pres: Presentation, socle_steps: list[Path]) -> tuple[Problem, ...]:
    """The worded check that every vertex is the base of exactly one socle
    relation: a binomial or one of the ``socle_steps``."""
    count = dict.fromkeys(pres.quiver.vertices, 0)
    for r in pres.binomials:
        count[r.left.vertices[0]] += 1
    for w in socle_steps:
        count[w.vertices[0]] += 1
    return tuple(
        Problem(
            "projectives",
            f"vertex {v!r} is the base of {n} socle relations instead of exactly one",
        )
        for v, n in count.items()
        if n != 1
    )


def _unaccounted_arrows(quiver, descriptors: list[ProjectiveDescriptor]) -> list[Problem]:
    """The worded check that the maximal paths at every vertex start with
    distinct arrows and end with distinct arrows, and start with all the
    arrows out of the vertex and end with all the arrows into it."""
    problems = []
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
    return problems


def _misplaced_zeros(pres: Presentation, successor: dict[str, str]) -> tuple[Problem, ...]:
    """The worded check of the zero pairs against ``successor``, the next
    arrow on the one vertex cycle through each arrow."""
    quadratic, outs = pres.quadratic_monomials, pres.quiver.arrows_from
    problems = []
    for a in pres.quiver.arrows:
        for b in outs[a.target]:
            on_cycle = successor[a.name] == b.name
            if on_cycle == ((a.name, b.name) in quadratic):
                where = (
                    "lies on a vertex cycle but is declared zero"
                    if on_cycle
                    else "is off-cycle but has no zero relation"
                )
                problems.append(Problem("normal-form", f"composition {a.name} {b.name} {where}"))
    return tuple(problems)


def ssb_presentation(pres: Presentation) -> SSBPresentation:
    report = validate_ssb(pres)
    if report.algebra is None:
        raise ValidationError(report.problems)
    return report.algebra


def projective_basis(ssb: SSBPresentation, vertex: str) -> list[tuple]:
    """Explicit basis of the projective at ``vertex``, as the keys
    ``(length, arrow word, itinerary)`` of its elements, each
    :func:`~quiveralg.quiver.path_sort_key` of its path, in order.

    The trivial path, the proper prefixes of both cycles, and one canonical
    representative of the socle (the two full cycles are identified in the
    algebra, so only the smaller one is listed); the length of the result is
    the dimension of the projective.  The keys are written out by length
    with no sort: the two cycles start with distinct arrows, so at every
    length the prefix of the cycle with the smaller first arrow comes
    first, and on a tie in length that cycle is the socle.
    """
    d = ssb.projective_at[vertex]
    a, b = d.first, d.second
    return _basis_from_words(vertex, a.arrows, a.vertices, b.arrows, b.vertices)


def _basis_from_words(vertex: str, a_word, a_itinerary, b_word, b_itinerary) -> list[tuple]:
    """The keys of :func:`projective_basis` at ``vertex`` from the arrow
    words and itineraries of its two maximal paths, the second possibly
    trivial: read from the descriptor, or renamed by a caller."""
    if b_word and b_word[0] < a_word[0]:
        a_word, a_itinerary, b_word, b_itinerary = b_word, b_itinerary, a_word, a_itinerary
    a_is_socle = not b_word or len(a_word) <= len(b_word)
    last_a = len(a_word) - (not a_is_socle)  # the longest element from each
    last_b = len(b_word) - a_is_socle
    keys = [(0, (), (vertex,))]
    for k in range(1, max(last_a, last_b) + 1):
        if k <= last_a:
            keys.append((k, a_word[:k], a_itinerary[: k + 1]))
        if k <= last_b:
            keys.append((k, b_word[:k], b_itinerary[: k + 1]))
    return keys


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
    rotations = {gv: [""] * len(mu) for gv, _, mu in stations}
    edges: dict[str, tuple[str, str]] = {}
    for qv, occ in occurrences.items():
        if len(occ) != 2:
            qv, occ = min((q, o) for q, o in occurrences.items() if len(o) != 2)
            raise InconsistencyError(
                f"quiver vertex {qv!r} has {len(occ)} germ occurrences instead of 2; "
                "the presentation is not genuinely normalized"
            )
        edges[qv] = germs = (f"{qv}.0", f"{qv}.1")
        for (gv, idx), germ in zip(sorted(occ), germs):
            rotations[gv][idx] = germ
    multiplicities = {gv: mult for gv, mult, _ in stations}
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
