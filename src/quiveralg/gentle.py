"""Recognition of special biserial and gentle presentations.

Gentle algebras are presented by a quiver with only quadratic monomial
relations, subject to the local conditions: at most two arrows in and out of
every vertex, at most one allowed continuation and one forbidden
continuation on either side of every arrow.  The validator makes each check
once, in one pass: a count decides it (the degrees, the zero pairs that
start and end with each arrow, one walk along the allowed successors that
both rules out relation-free cycles and yields the maximal paths, and the
number of maximal-path slots at each vertex), and the check words its
problems only when that count fails.  On a validated presentation
this module computes the maximal paths, the extended maximal-path set used
by the trivial-extension construction, the nonzero paths (enumerated once
per algebra, by extending each path with the allowed successors of its last
arrow) and the socle basis.  The socle comes from the annihilation
definition: a nonzero path is in it when every arrow multiplies it to zero
on both sides.  Only the arrows into its source and out of its target can
compose with it, so only those are tested, each with the generic zero test
of the presentation; the maximal-path chains are never consulted, so that
their equality with the socle is a checkable fact rather than a definition.
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
    def nonzero_basis(self) -> tuple[Path, ...]:
        """The paths avoiding the relations, trivial paths included, in
        :func:`path_sort_key` order: a basis of the algebra.

        Every single arrow is nonzero, and a longer nonzero path extends a
        shorter one by an allowed successor of its last arrow, so this
        reaches each path exactly once; finiteness is guaranteed by the
        relation-free cycle rejection in :func:`validate_gentle`.
        """
        outs, zero = self.quiver.arrows_from, self.presentation.quadratic_monomials
        out = [trivial_path(v) for v in self.quiver.vertices]
        frontier = [Path((a.source, a.target), (a.name,)) for a in self.quiver.arrows]
        while frontier:
            p = frontier.pop()
            out.append(p)
            last = p.arrows[-1]
            for a in outs[p.target]:
                if (last, a.name) not in zero:
                    frontier.append(Path(p.vertices + (a.target,), p.arrows + (a.name,)))
        return tuple(sorted(out, key=path_sort_key))

    @cached_property
    def dimension(self) -> int:
        return len(self.nonzero_basis)

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


def _is_special_biserial(pres: Presentation) -> bool:
    """Whether :func:`validate_special_biserial` finds nothing, decided
    without naming what fails.

    Every relation path is a path of the quiver, so a zero pair ``(a, b)``
    has ``b`` among the arrows out of the target of ``a``.  With at most two
    arrows out of every vertex, arrow ``a`` then has at most one allowed
    successor exactly when its target has one arrow out, or some zero pair
    starts with ``a``; and likewise for predecessors.
    """
    quiver = pres.quiver
    if not quiver.vertices:
        return True
    out_degree = dict.fromkeys(quiver.vertices, 0)
    in_degree = out_degree.copy()
    for a in quiver.arrows:
        out_degree[a.source] += 1
        in_degree[a.target] += 1
    if max(out_degree.values()) > 2 or max(in_degree.values()) > 2:
        return False
    zero = pres.quadratic_monomials
    starts, ends = {a for a, _ in zero}, {b for _, b in zero}
    for a in quiver.arrows:
        if out_degree[a.target] == 2 and a.name not in starts:
            return False
        if in_degree[a.source] == 2 and a.name not in ends:
            return False
    return True


def validate_gentle(pres: Presentation) -> Validation[GentleAlgebra]:
    """Full gentle validation; on success the returned report carries the algebra.

    Beyond the special biserial conditions and the quadratic-monomial shape
    of the relation set, this rejects relation-free oriented cycles
    (infinite-dimensional algebras), disconnected quivers, and the two
    degenerate algebras: the empty quiver and the one-vertex, zero-arrow
    quiver.

    Every check is made once, in this order: degenerate, connected, S3, the
    special-biserial conditions S1 and S2 with S4, finite, occurrences.
    Each first runs a test that decides it exactly without naming what
    fails, and its worded loop runs only when that test fails; so a gentle
    presentation passes no worded loop, and any other gets the problems, in
    the order and with the messages, that the worded loops alone would give.
    The tests: S3 from the number of quadratic monomials; S1, S2 and S4
    together from the degrees, the zero pairs that start and end with each
    arrow (at most one forbidden successor and predecessor) and the arrows
    on either side less the forbidden one (at most one allowed); finite by
    one walk along the allowed successors, which covers every arrow exactly
    when no cycle avoids the relations, and gives the maximal paths; and
    occurrences by counting the maximal-path slots at every vertex.
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

    # Every relation path is a path of the quiver, so the forbidden
    # successors of an arrow are the zero pairs that start with it, and its
    # allowed ones the other arrows out of its target; likewise for
    # predecessors.  Each allowed successor is recorded on the way, and the
    # arrows with no allowed predecessor start the maximal paths.
    zero = pres.quadratic_monomials
    banned_after = dict(zero)
    banned_before = {b: a for a, b in zero}
    outs, ins = quiver.arrows_from, quiver.arrows_into
    biserial = len(banned_after) == len(banned_before) == len(zero)
    successor: dict[str, Arrow] = {}  # the allowed successor, by arrow name
    starts: list[Arrow] = []
    for a in arrows:
        name, after = a.name, outs[a.target]
        banned = banned_after.get(name)
        allowed = len(after) - (banned is not None)
        if allowed == 1:
            successor[name] = after[1] if after[0].name == banned else after[0]
        before = len(ins[a.source]) - (name in banned_before)
        if allowed > 1 or before > 1:
            biserial = False
        elif not before:
            starts.append(a)
    # A vertex lies on as many maximal-path slots as there are maximal
    # paths starting at it and arrows ending at it, plus one if its trivial
    # path is maximal.
    starts_at = dict.fromkeys(vertices, 0)
    for a in starts:
        starts_at[a.source] += 1
    trivial, slots = [], True
    for v in vertices:
        into, out = ins[v], outs[v]
        if len(into) > 2 or len(out) > 2:
            biserial = False
        gets = len(into) + len(out) == 1 or (
            len(into) == len(out) == 1 and (into[0].name, out[0].name) not in zero
        )
        if gets:
            trivial.append(trivial_path(v))
        if len(into) + starts_at[v] + gets != 2:
            slots = False
    if not biserial:
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

    maximal = _maximal_path_chains(starts, successor, len(arrows))
    if maximal is None:
        message = "an oriented cycle avoids all relations; the algebra is infinite-dimensional"
        return Validation((Problem("finite", message),), None)
    algebra = GentleAlgebra(pres, maximal, maximal + tuple(trivial))
    if not slots:  # pragma: no cover - unreachable for inputs passing the checks above
        for v, occ in vertex_occurrences(algebra).items():
            if len(occ) != 2:
                message = f"vertex {v!r} lies on {len(occ)} maximal-path slots instead of 2"
                problems.append(Problem("occurrences", message))
        return Validation(tuple(problems), None)
    return Validation((), algebra)


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


def _gets_trivial_maximal(pres: Presentation, v: str) -> bool:
    """Whether the trivial path at ``v`` joins the extended maximal paths.

    Three local shapes qualify: a sink with a single incoming arrow, a
    source with a single outgoing arrow, and a vertex with exactly one
    incoming and one outgoing arrow whose composition avoids the ideal.
    """
    ins = pres.quiver.arrows_into[v]
    outs = pres.quiver.arrows_from[v]
    if len(ins) == 1 and not outs:
        return True
    if len(outs) == 1 and not ins:
        return True
    if len(ins) == 1 and len(outs) == 1:
        return (ins[0].name, outs[0].name) not in pres.quadratic_monomials
    return False


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


def nonzero_paths(algebra: GentleAlgebra) -> list[Path]:
    """All paths avoiding the relations, trivial paths included: the
    algebra's :attr:`~GentleAlgebra.nonzero_basis`, sorted."""
    return list(algebra.nonzero_basis)


def socle_basis(algebra: GentleAlgebra) -> list[Path]:
    """Nonzero paths killed by every arrow on both sides, sorted.

    An arrow that does not end at ``p.source`` (on the left) or start at
    ``p.target`` (on the right) multiplies ``p`` to zero in the quiver
    alone, so only ``arrows_into[p.source]`` and ``arrows_from[p.target]``
    are tested, each by extending ``p`` and applying the generic zero test
    of the presentation (relation pairs looked up, longer relations scanned
    as subpaths).  This is the annihilation definition, not the
    maximal-path chain decomposition; agreement with
    ``GentleAlgebra.maximal_paths`` is therefore a meaningful check.
    """
    pres = algebra.presentation
    ins, outs = pres.quiver.arrows_into, pres.quiver.arrows_from
    nonzero = pres.path_is_nonzero_monomially
    basis = []
    for p in algebra.nonzero_basis:
        vertices, arrows = p.vertices, p.arrows
        for a in ins[vertices[0]]:
            if nonzero(Path((a.source,) + vertices, (a.name,) + arrows)):
                break  # a nonzero left multiple
        else:
            for a in outs[vertices[-1]]:
                if nonzero(Path(vertices + (a.target,), arrows + (a.name,))):
                    break  # a nonzero right multiple
            else:
                basis.append(p)
    return basis
