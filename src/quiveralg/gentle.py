"""Recognition of special biserial and gentle presentations.

Gentle algebras are presented by a quiver with only quadratic monomial
relations, subject to the local conditions: at most two arrows in and out of
every vertex, at most one allowed continuation and one forbidden
continuation on either side of every arrow.  One walk, :func:`_allowed_walk`,
reads these conditions for both this validator and the symmetric special
biserial one, and gives the allowed successors along which the maximal
paths are chained.  The validator makes each check once, in one pass: a
count decides it, and the check words its problems only when that count
fails; the two maximal-path slots at every vertex follow and are not
checked.  On a validated presentation this module computes the maximal paths,
the extended maximal-path set used by the trivial-extension construction,
the nonzero paths and the socle basis.  The nonzero paths have one view:
their sorted keys ``(length, arrow word, itinerary)``, each the
:func:`~quiveralg.quiver.path_sort_key` of its path, enumerated once per
algebra by extending each path with the allowed successors of its last
arrow; no ``Path`` is built for them.  The socle comes from the
annihilation definition: a nonzero path is in it when every arrow
multiplies it to zero on both sides.  Only the arrows into its source and
out of its target can compose with it, so only those are tested, each with
the generic zero test of the presentation on arrow words; the maximal-path
chains are never consulted, so that their equality with the socle is a
checkable fact rather than a definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .quiver import (
    Arrow,
    Monomial,
    Path,
    Presentation,
    Problem,
    Validation,
    cached_property,
    path_sort_key,
    trivial_path,
)


@dataclass(frozen=True)
class GentleAlgebra:
    """A gentle presentation with its maximal-path data cached.

    ``maximal_paths`` is the set of nonzero nontrivial paths that no arrow
    extends on either side; ``extended_maximal_paths`` additionally contains
    the trivial paths at the vertices singled out by the three local rules
    of :func:`_gets_trivial_maximal`.  Instances are produced by
    :func:`validate_gentle` / :func:`gentle_algebra`.
    """

    presentation: Presentation
    maximal_paths: tuple[Path, ...]
    extended_maximal_paths: tuple[Path, ...]

    @property
    def quiver(self):
        return self.presentation.quiver

    @cached_property
    def _nonzero_keys(self) -> list[tuple]:
        """The paths avoiding the relations, trivial paths included, as
        sorted keys ``(length, arrow word, itinerary)``, each
        :func:`path_sort_key` of its path: a basis of the algebra, walked
        once per algebra.

        Every single arrow is nonzero, and a longer nonzero path extends a
        shorter one by an allowed successor of its last arrow, so this
        reaches each path exactly once; finiteness is guaranteed by the
        relation-free cycle rejection in :func:`validate_gentle`.  The list
        is shared, so callers must not modify it.
        """
        outs, zero = self.quiver.arrows_from, self.presentation.quadratic_monomials
        keys = [(0, (), (v,)) for v in self.quiver.vertices]
        frontier = [((a.name,), (a.source, a.target)) for a in self.quiver.arrows]
        while frontier:
            word, itinerary = frontier.pop()
            keys.append((len(word), word, itinerary))
            last = word[-1]
            for a in outs[itinerary[-1]]:
                if (last, a.name) not in zero:
                    frontier.append((word + (a.name,), itinerary + (a.target,)))
        keys.sort()
        return keys

    @cached_property
    def dimension(self) -> int:
        """The number of :attr:`_nonzero_keys`; no ``Path`` is built."""
        return len(self._nonzero_keys)

    @cached_property
    def return_arrow_names(self) -> dict[Path, str]:
        """Deterministic names for the return arrows of the trivial
        extension, one per nontrivial maximal path, computed once per
        algebra: each is derived from its path's arrow word, and prefixed
        defensively in the unlikely event that it collides with an arrow
        name.  The dict is shared, so callers must not modify it."""
        taken = {a.name for a in self.quiver.arrows}
        names: dict[Path, str] = {}
        for m in sorted(self.maximal_paths, key=path_sort_key):
            candidate = f"b({'.'.join(m.arrows)})"
            while candidate in taken:
                candidate = "b" + candidate
            names[m] = candidate
            taken.add(candidate)
        return names


def validate_special_biserial(pres: Presentation) -> list[Problem]:
    """Check the two local special-biserial conditions.

    Violations are returned as data; an empty list means both conditions
    hold.  Membership of a length-two path in the ideal is read off the
    quadratic monomial relations, which is exact for presentations in which
    longer relations never reduce a length-two path to zero (monomial
    ideals, and the normalized symmetric special biserial form).
    """
    problems = []
    quiver = pres.quiver
    outs, ins, zero = quiver.arrows_from, quiver.arrows_into, pres.quadratic_monomials
    for v in quiver.vertices:
        if len(outs[v]) > 2:
            problems.append(Problem("S1", f"vertex {v!r} is the source of more than two arrows"))
        if len(ins[v]) > 2:
            problems.append(Problem("S1", f"vertex {v!r} is the target of more than two arrows"))
    for a in quiver.arrows:
        succ = [b.name for b in outs[a.target] if (a.name, b.name) not in zero]
        if len(succ) > 1:
            message = f"arrow {a.name!r} has several allowed successors: {', '.join(succ)}"
            problems.append(Problem("S2", message))
        pred = [b.name for b in ins[a.source] if (b.name, a.name) not in zero]
        if len(pred) > 1:
            message = f"arrow {a.name!r} has several allowed predecessors: {', '.join(pred)}"
            problems.append(Problem("S2", message))
    return problems


def _allowed_walk(pres: Presentation) -> tuple[dict[str, Arrow], list[Arrow]] | None:
    """The allowed successor of each arrow that has one, by arrow name, and
    the arrows with no allowed predecessor, which start the maximal paths;
    None exactly when S1, S2 or S4 fails.

    Every relation path is a path of the quiver, so the forbidden successors
    of an arrow are the zero pairs that start with it, and its allowed ones
    the other arrows out of its target; likewise for predecessors.  The
    conditions then read: no vertex has more than two arrows in or out,
    ``dict(zero)`` and its inverse are as long as ``zero`` (at most one
    forbidden neighbour on either side), and each arrow has at most one
    allowed neighbour on either side (its degree less its forbidden one).
    """
    quiver, zero = pres.quiver, pres.quadratic_monomials
    outs, ins = quiver.arrows_from, quiver.arrows_into
    banned_after = dict(zero)
    banned_before = {b: a for a, b in zero}
    if not len(banned_after) == len(banned_before) == len(zero):
        return None
    successor: dict[str, Arrow] = {}
    starts: list[Arrow] = []
    for a in quiver.arrows:  # each degree is read at the arrows it counts
        name, after = a.name, outs[a.target]
        if len(outs[a.source]) > 2 or len(ins[a.target]) > 2:
            return None
        banned = banned_after.get(name)
        allowed = len(after) - (banned is not None)
        before = len(ins[a.source]) - (name in banned_before)
        if allowed > 1 or before > 1:
            return None
        if allowed:
            successor[name] = after[1] if after[0].name == banned else after[0]
        if not before:
            starts.append(a)
    return successor, starts


def validate_gentle(pres: Presentation) -> Validation[GentleAlgebra]:
    """Full gentle validation; on success the returned report carries the algebra.

    Beyond the special biserial conditions and the quadratic-monomial shape
    of the relation set, this rejects relation-free oriented cycles
    (infinite-dimensional algebras), disconnected quivers, and the two
    degenerate algebras: the empty quiver and the one-vertex, zero-arrow
    quiver.

    Every check is made once, in this order: degenerate, connected, S3, the
    special-biserial conditions S1 and S2 with S4, finite.  Each first runs
    a test that decides it exactly without naming what fails, and its
    worded loop runs only when that test fails; so a gentle presentation
    passes no worded loop, and any other gets the problems, in the order and
    with the messages, that the worded loops alone would give.  The tests:
    S3 from the number of quadratic monomials; S1, S2 and S4 together by
    :func:`_allowed_walk`, the one reading of the local rules, shared with
    :func:`~quiveralg.ssb.validate_ssb`; and finite by following its allowed
    successors from the arrows it gives as starts, which covers every arrow
    exactly when no cycle avoids the relations, and gives the maximal paths.

    The checks imply that every vertex lies on two extended maximal-path
    slots.  Each arrow lies on one maximal path, so a vertex has one slot
    per arrow in, one per arrow out with no allowed predecessor, and one if
    :func:`_gets_trivial_maximal` makes its trivial path maximal.  No vertex
    is isolated, none has more than two arrows in or out (S1), and an arrow
    with two neighbours on one side has one allowed and one forbidden there
    (S2, S4).  So by (in, out) degree the slots are: (0, 1), (1, 0): the
    arrow and the trivial path; (0, 2), (2, 0): the arrows; (1, 1): the
    arrow in, and the trivial path or, if the composition is zero, the arrow
    out; (1, 2): the arrow in and the arrow out that may not follow it;
    (2, 1), (2, 2): the arrows in.
    """
    quiver = pres.quiver
    vertices, arrows = quiver.vertices, quiver.arrows
    problems: list[Problem] = []
    if not vertices:
        problems.append(Problem("degenerate", "empty quiver"))
    elif len(vertices) == 1 and not arrows:
        problems.append(Problem("degenerate", "one vertex and no arrows (the ground field)"))
    if vertices and not quiver.is_connected():
        problems.append(Problem("connected", "quiver is not connected"))

    if pres.long_monomials or len(pres.monomials) != len(pres.relations):
        for r in pres.relations:
            if not isinstance(r, Monomial):
                message = f"binomial relation {r!r} is not allowed in a gentle presentation"
                problems.append(Problem("S3", message))
            elif len(r.path) != 2:
                message = f"monomial relation {r.path.label()!r} has length != 2"
                problems.append(Problem("S3", message))

    ins, outs, zero = quiver.arrows_into, quiver.arrows_from, pres.quadratic_monomials
    walk = _allowed_walk(pres)
    if walk is None:
        problems.extend(validate_special_biserial(pres))
        for a in arrows:
            if sum((a.name, b.name) in zero for b in outs[a.target]) > 1:
                message = f"arrow {a.name!r} has several forbidden successors"
                problems.append(Problem("S4", message))
            if sum((b.name, a.name) in zero for b in ins[a.source]) > 1:
                message = f"arrow {a.name!r} has several forbidden predecessors"
                problems.append(Problem("S4", message))
    if problems:
        return Validation(tuple(problems), None)

    successor, starts = walk
    maximal = _maximal_path_chains(starts, successor, len(arrows))
    if maximal is None:
        message = "an oriented cycle avoids all relations; the algebra is infinite-dimensional"
        return Validation((Problem("finite", message),), None)
    trivial = [trivial_path(v) for v in vertices if _gets_trivial_maximal(ins[v], outs[v], zero)]
    return Validation((), GentleAlgebra(pres, maximal, maximal + tuple(trivial)))


def gentle_algebra(pres: Presentation) -> GentleAlgebra:
    """Validate and return the algebra, raising on any problem."""
    report = validate_gentle(pres)
    if report.algebra is None:
        raise ValidationError(report.problems)
    return report.algebra


def _maximal_path_chains(
    starts: list[Arrow], successor: dict[str, Arrow], n_arrows: int
) -> tuple[Path, ...] | None:
    """Maximal paths as the chains of the allowed-successor map on arrows,
    in :func:`path_sort_key` order, from the arrows with no allowed
    predecessor; None when the chains miss one of the ``n_arrows`` arrows,
    which then lies on an oriented cycle that avoids the relations.

    With at most one allowed successor and predecessor per arrow, the
    chains are disjoint; each, read in order, is one maximal path.  Each
    step is taken from ``successor`` once, and removed, so that the walk
    ends on any map.
    """
    chains = []
    covered = 0
    for a in starts:
        names, itinerary = [a.name], [a.source, a.target]
        b = successor.pop(a.name, None)
        while b is not None:
            names.append(b.name)
            itinerary.append(b.target)
            b = successor.pop(b.name, None)
        covered += len(names)
        chains.append((len(names), tuple(names), tuple(itinerary)))
    if covered != n_arrows:
        return None
    chains.sort()  # path_sort_key order
    return tuple([Path(itinerary, names) for _, names, itinerary in chains])


def _gets_trivial_maximal(
    ins: tuple[Arrow, ...], outs: tuple[Arrow, ...], zero: frozenset[tuple[str, str]]
) -> bool:
    """Whether the trivial path at a vertex joins the extended maximal
    paths, given the arrows ``ins`` into it and ``outs`` out of it and the
    quadratic zero relations ``zero``.

    Three local shapes qualify: a sink with a single incoming arrow, a
    source with a single outgoing arrow, and a vertex with exactly one
    incoming and one outgoing arrow whose composition avoids the ideal.
    """
    if len(ins) == len(outs) == 1:
        return (ins[0].name, outs[0].name) not in zero
    return len(ins) + len(outs) == 1


def vertex_occurrences(algebra: GentleAlgebra) -> dict[str, list[tuple[Path, int]]]:
    """Occurrences of each quiver vertex along the extended maximal paths.

    An occurrence is a pair (path, slot) where slot indexes the vertex
    itinerary of the path; one path may visit a vertex twice and then
    contributes two occurrences.  Every vertex has exactly two.
    """
    occ: dict[str, list[tuple[Path, int]]] = {v: [] for v in algebra.quiver.vertices}
    for m in algebra.extended_maximal_paths:
        for slot, v in enumerate(m.vertices):
            occ[v].append((m, slot))
    return occ


def nonzero_paths(algebra: GentleAlgebra) -> list[tuple]:
    """All paths avoiding the relations, trivial paths included, as the
    sorted keys of :attr:`~GentleAlgebra._nonzero_keys`, in a new list."""
    return list(algebra._nonzero_keys)


def socle_basis(algebra: GentleAlgebra) -> list[Path]:
    """Nonzero paths killed by every arrow on both sides, sorted.

    An arrow that does not end at ``p.source`` (on the left) or start at
    ``p.target`` (on the right) multiplies ``p`` to zero in the quiver
    alone, so only ``arrows_into[p.source]`` and ``arrows_from[p.target]``
    are tested, each by extending the arrow word of ``p`` and applying the
    generic zero test of the presentation to it
    (:meth:`~quiveralg.quiver.Presentation.word_is_nonzero_monomially`:
    relation pairs looked up, longer relations scanned as subwords).  The
    nonzero paths are read as keys, and a ``Path`` is built only for an
    element of the socle.  This is the annihilation definition, not the
    maximal-path chain decomposition; agreement with
    ``GentleAlgebra.maximal_paths`` is therefore a meaningful check.
    """
    pres = algebra.presentation
    ins, outs = pres.quiver.arrows_into, pres.quiver.arrows_from
    nonzero = pres.word_is_nonzero_monomially
    basis = []
    for _, word, itinerary in algebra._nonzero_keys:
        for a in ins[itinerary[0]]:
            if nonzero((a.name,) + word):
                break  # a nonzero left multiple
        else:
            for a in outs[itinerary[-1]]:
                if nonzero(word + (a.name,)):
                    break  # a nonzero right multiple
            else:
                basis.append(Path(itinerary, word))
    return basis
