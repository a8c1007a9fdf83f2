"""Admissible cuts of multiplicity-one Brauer graph algebras.

The arrows of such an algebra partition into vertex cycles, one per graph
vertex.  A cutting set picks exactly one arrow from every cycle; deleting
it leaves a gentle algebra, and the trivial extension of that gentle
algebra is the original algebra again.  Cycle-power and commutativity
relations always die under a cut (each cycle word loses exactly one arrow),
so the cut algebra keeps precisely the quadratic zero relations supported
on surviving arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .errors import CuttingSetError, MultiplicityError
from .gentle import GentleAlgebra, gentle_algebra
from .quiver import Presentation, Quiver
from .ssb import SSBPresentation, is_isomorphic_ssb
from .trivext import trivial_extension


@dataclass(frozen=True)
class CuttingSet:
    arrows: tuple[str, ...]

    def __init__(self, arrows: Iterable[str]):
        object.__setattr__(self, "arrows", tuple(sorted(arrows)))

    def __contains__(self, name: str) -> bool:
        return name in self.arrows


def vertex_cycles(ssb: SSBPresentation) -> list[tuple[str, ...]]:
    """The arrow cycles, one per graph vertex, as canonical rotations.

    Together they cover every arrow exactly once; this is validated when
    the presentation is built.
    """
    return [rep.arrows for rep, _ in ssb.cycle_families]


def enumerate_cutting_sets(ssb: SSBPresentation) -> list[CuttingSet]:
    """All cutting sets, lexicographically; one per choice of arrow per cycle."""
    exponents = [exp for _, exp in ssb.cycle_families]
    if any(e != 1 for e in exponents):
        raise MultiplicityError(
            "cutting requires multiplicity one at every graph vertex; "
            f"found exponents {sorted(set(exponents))}"
        )
    choices = [sorted(cycle) for cycle in vertex_cycles(ssb)]
    return sorted(
        (CuttingSet(combo) for combo in product(*choices)),
        key=lambda c: c.arrows,
    )


def _check_cutting_set(cycles: list[tuple[str, ...]], removed: set[str]) -> None:
    """Raise unless ``removed`` takes exactly one arrow from every cycle.

    The cycles partition the arrows, so this holds exactly when there are
    as many arrows as cycles and no cycle misses them all; the worded
    checks run only when that test fails, and name the first fault.
    """
    if len(removed) == len(cycles) and not any(removed.isdisjoint(c) for c in cycles):
        return
    on_cycles = {a for cycle in cycles for a in cycle}
    stray = sorted(removed - on_cycles)
    if stray:
        raise CuttingSetError(f"arrows not on any vertex cycle: {', '.join(stray)}")
    for cycle in cycles:
        hits = [a for a in cycle if a in removed]
        if len(hits) != 1:
            word = " ".join(cycle)
            verb = "uncut" if not hits else f"cut {len(hits)} times"
            raise CuttingSetError(f"vertex cycle ({word}) is {verb}")


def admissible_cut(ssb: SSBPresentation, cut: CuttingSet) -> GentleAlgebra:
    """Delete the cutting set; the survivors present a gentle algebra.

    The cutting set is checked against the vertex cycles, the surviving
    quiver and the surviving quadratic zero relations (the algebra's own,
    in arrow-word order: :attr:`SSBPresentation.quadratic_relations`) are
    built through their checking constructors, and the cut is validated as
    gentle, on every call: the statement that every cut is gentle rests on
    that validation, which decides it by counts
    (:func:`~quiveralg.gentle.validate_gentle`).
    """
    if any(e != 1 for _, e in ssb.cycle_families):
        raise MultiplicityError("cutting requires multiplicity one at every graph vertex")
    removed = set(cut.arrows)
    _check_cutting_set(vertex_cycles(ssb), removed)
    quiver = ssb.quiver
    remaining = Quiver(
        quiver.vertices,
        [a for a in quiver.arrows if a.name not in removed],
    )
    relations = [  # Presentation checks each relation path
        r
        for r in ssb.quadratic_relations
        if r.path.arrows[0] not in removed and r.path.arrows[1] not in removed
    ]
    return gentle_algebra(Presentation(remaining, relations))


def verify_roundtrip(ssb: SSBPresentation, cut_algebra: GentleAlgebra) -> bool:
    """Whether the trivial extension of a cut algebra (from
    :func:`admissible_cut`) recovers the original algebra."""
    return is_isomorphic_ssb(trivial_extension(cut_algebra), ssb)
