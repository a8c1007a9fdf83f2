"""Ideal triangulations of marked surfaces with boundary, combinatorially.

A triangulation is given by marked points, directed boundary segments
forming cyclic boundary components, arcs between marked points, and
triangles listed as cyclic triples of sides (the cyclic order encodes the
surface orientation).  A triangle's corners are read by one walk along its
sides, and are unique when the sides close up.  Gluing is validated: each
arc lies on two triangles, traversed in opposite directions.

Two constructions are derived.  The quiver of the triangulation has one
vertex per arc and one arrow per pair of consecutive arc sides in a
triangle, pointing from an arc to its orientation-successor at the shared
marked point, with quadratic zero relations around internal triangles
(all three sides arcs); this presents a gentle algebra.  Independently, the
arcs around each marked point inherit a cyclic order from the orientation,
turning the triangulation itself into a multiplicity-one Brauer graph.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .brauer import BrauerGraph
from .errors import InconsistencyError, ParseError, ValidationError
from .gentle import GentleAlgebra, gentle_algebra
from .quiver import Monomial, Presentation, Problem, Quiver, _declare, cached_property


class Triangulation:
    """Combinatorial triangulation data; immutable after construction."""

    def __init__(
        self,
        points: Sequence[str],
        boundary_segments: Mapping[str, tuple[str, str]],
        arcs: Mapping[str, tuple[str, str]],
        triangles: Mapping[str, tuple[str, str, str]],
    ):
        self._points = tuple(sorted(set(points)))
        self._bsegs = {s: (e[0], e[1]) for s, e in boundary_segments.items()}
        self._arcs = {a: (e[0], e[1]) for a, e in arcs.items()}
        self._triangles = {t: (s[0], s[1], s[2]) for t, s in triangles.items()}

    @property
    def points(self) -> tuple[str, ...]:
        return self._points

    @property
    def boundary_segments(self) -> dict[str, tuple[str, str]]:
        return dict(self._bsegs)

    @property
    def arcs(self) -> dict[str, tuple[str, str]]:
        return dict(self._arcs)

    @property
    def triangles(self) -> dict[str, tuple[str, str, str]]:
        return dict(self._triangles)

    def side_endpoints(self, side: str) -> tuple[str, str]:
        if side in self._arcs:
            return self._arcs[side]
        return self._bsegs[side]

    def is_arc(self, side: str) -> bool:
        return side in self._arcs

    @cached_property
    def triangle_order(self) -> tuple[str, ...]:
        return tuple(sorted(self._triangles))

    def __repr__(self):
        return (
            f"Triangulation({len(self._points)} points, {len(self._arcs)} arcs, "
            f"{len(self._triangles)} triangles)"
        )


def _corners(t: Triangulation, sides: tuple[str, str, str]) -> tuple[str, str, str] | None:
    """The corners of one triangle, or None when its sides do not close up.

    ``corners[i]`` is the marked point between side ``i`` and side ``i+1``,
    so side ``i`` joins ``corners[i-1]`` to ``corners[i]``.  From a point
    that sides 0 and 1 share, the walk follows side 1 and then side 2 to
    their other ends (a loop returns to its base point) and accepts when
    side 0 joins the last corner back to the first.  The start fixes the
    other two corners, and two starts cannot both close (side 2 would be a
    loop at each of them), so an assignment is unique when it exists.
    """

    def other_end(side: str, point: str | None) -> str | None:
        u, v = t.side_endpoints(side)
        return v if point == u else u if point == v else None

    s0, s1, s2 = sides
    for c0 in sorted(set(t.side_endpoints(s0)) & set(t.side_endpoints(s1))):
        c1 = other_end(s1, c0)
        c2 = other_end(s2, c1)
        if other_end(s0, c2) == c0:
            return c0, c1, c2
    return None


def _side_traversals(
    t: Triangulation,
) -> tuple[dict[str, tuple[str, str, str]], dict[str, list[tuple[str, str, str, int]]]]:
    """Corners per triangle, and per side its (triangle, entry point, exit
    point, position) occurrences."""
    corners: dict[str, tuple[str, str, str]] = {}
    traversals: dict[str, list[tuple[str, str, str, int]]] = {}
    for tri, sides in sorted(t.triangles.items()):
        cs = corners[tri] = _corners(t, sides)
        if cs is None:
            raise InconsistencyError(f"triangle {tri!r} admits no corner assignment")
        for i, s in enumerate(sides):
            traversals.setdefault(s, []).append((tri, cs[i - 1], cs[i], i))
    return corners, traversals


def validate_triangulation(t: Triangulation) -> list[Problem]:
    arcs, bsegs = t.arcs, t.boundary_segments
    kinds = (("arc", arcs, 2), ("boundary segment", bsegs, 1))  # with their side uses
    problems: list[Problem] = []
    if not arcs:
        problems.append(Problem("arcs", "triangulation declares no arcs"))
    overlap = set(arcs) & set(bsegs)
    if overlap:
        problems.append(
            Problem("sides", f"ids used both as arc and boundary segment: {sorted(overlap)}")
        )

    declared = set(t.points)
    for kind, ends, _ in kinds:
        for s, pair in sorted(ends.items()):
            problems += [
                Problem("points", f"{kind} {s!r} ends at unknown point {p!r}")
                for p in pair
                if p not in declared
            ]
    if problems:
        return problems

    outgoing: dict[str, list[str]] = {p: [] for p in t.points}
    incoming: dict[str, list[str]] = {p: [] for p in t.points}
    for s, (u, v) in bsegs.items():
        outgoing[u].append(s)
        incoming[v].append(s)
    for p in t.points:
        if len(outgoing[p]) != 1 or len(incoming[p]) != 1:
            problems.append(
                Problem(
                    "boundary",
                    f"point {p!r} has {len(outgoing[p])} outgoing and "
                    f"{len(incoming[p])} incoming boundary segments (needs 1 and 1)",
                )
            )

    count: dict[str, int] = {}
    for tri, sides in t.triangles.items():
        for s in sides:
            if s not in arcs and s not in bsegs:
                problems.append(Problem("sides", f"triangle {tri!r} uses unknown side {s!r}"))
            count[s] = count.get(s, 0) + 1
        for a in sorted({s for s in sides if sides.count(s) > 1 and s in arcs}):
            message = f"triangle {tri!r} has arc {a!r} on two sides, which needs a puncture"
            problems.append(Problem("self-folded", message))
    for kind, ends, uses in kinds:
        for s in sorted(ends):
            if count.get(s, 0) != uses:
                message = f"{kind} {s!r} lies on {count.get(s, 0)} triangle sides, not {uses}"
                problems.append(Problem("gluing", message))
    if problems:
        return problems

    try:
        _, traversals = _side_traversals(t)
    except InconsistencyError as exc:
        problems.append(Problem("corners", str(exc)))
        return problems
    for a, (u, v) in sorted(arcs.items()):
        if u == v:
            continue  # loop arcs: direction is a germ choice, checked nowhere
        dirs = {(entry, exit_) for _, entry, exit_, _ in traversals[a]}
        if dirs != {(u, v), (v, u)}:
            problems.append(
                Problem(
                    "orientation",
                    f"arc {a!r} is not traversed once in each direction "
                    f"(found {sorted(dirs)})",
                )
            )
    return problems


def _validated(t: Triangulation) -> None:
    problems = validate_triangulation(t)
    if problems:
        raise ValidationError(problems)


def jacobian_presentation(t: Triangulation, convention: str = "successor") -> Presentation:
    """Quiver on the arcs with arrows at shared corners, relations in internal triangles.

    With the default ``successor`` convention an arrow runs from an arc to
    the next arc at their shared marked point, following the triangle's
    cyclic order; ``predecessor`` reverses every arrow (the opposite
    algebra).  Quadratic zero relations are exactly the compositions of
    consecutive arrows inside triangles whose three sides are all arcs.
    Arrows and relations come in sorted triangle order, corners in cyclic
    position order.
    """
    if convention not in ("successor", "predecessor"):
        raise ValueError(f"unknown arrow convention {convention!r}")
    _validated(t)
    flip = convention == "predecessor"
    arrows = []
    zero_pairs = []
    name_uses: dict[str, int] = {}
    for _, sides in sorted(t.triangles.items()):
        names = []
        for s, s_next in zip(sides, sides[1:] + sides[:1]):
            if not (t.is_arc(s) and t.is_arc(s_next)):
                continue
            src, tgt = (s_next, s) if flip else (s, s_next)
            base = f"{src}>{tgt}"
            name_uses[base] = name_uses.get(base, 0) + 1
            names.append(base if name_uses[base] == 1 else f"{base}#{name_uses[base]}")
            arrows.append((names[-1], src, tgt))
        if len(names) == 3:  # an internal triangle: every corner joins two arcs
            for a, b in zip(names, names[1:] + names[:1]):
                zero_pairs.append((b, a) if flip else (a, b))

    quiver = Quiver(sorted(t.arcs), arrows)
    return Presentation(quiver, [Monomial(quiver.path(pair)) for pair in zero_pairs])


def jacobian_algebra(t: Triangulation, convention: str = "successor") -> GentleAlgebra:
    """The gentle algebra of the triangulation; raises on degenerate results.

    A triangulation whose quiver has no arrows at all (a single dividing
    arc) presents the ground field, which the gentle validator excludes.
    """
    return gentle_algebra(jacobian_presentation(t, convention))


def brauer_graph_of_triangulation(t: Triangulation) -> BrauerGraph:
    """The triangulation as a multiplicity-one Brauer graph.

    Graph vertices are the marked points incident to at least one arc (all
    multiplicity one), edges the arcs, and the cyclic order around a point
    is read by chaining through the triangle corners at that point: each
    corner makes its outgoing side follow its incoming side, and the two
    boundary-segment germs at the point close the fan into a cycle.
    """
    _validated(t)
    corners, traversals = _side_traversals(t)

    # Germ names per traversal occurrence.  A non-loop side has one germ per
    # endpoint; a loop side gets its two germs told apart by letting the
    # first traversal run germ 0 to germ 1 and the second germ 1 to 0
    # (opposite directions, which is what consistent gluing means there).
    start_germ: dict[tuple[str, int], str] = {}
    end_germ: dict[tuple[str, int], str] = {}
    for side, occs in traversals.items():
        u, v = t.side_endpoints(side)
        for k, (tri, entry, exit_, pos) in enumerate(occs):
            if u != v:
                start_germ[(tri, pos)] = f"{side}@{entry}"
                end_germ[(tri, pos)] = f"{side}@{exit_}"
            else:
                start_germ[(tri, pos)] = f"{side}@{u}.{k}"
                end_germ[(tri, pos)] = f"{side}@{u}.{1 - k}"

    next_at: dict[str, dict[str, str]] = {p: {} for p in t.points}
    for tri in t.triangle_order:
        for i in range(3):
            point = corners[tri][i]
            g_in = end_germ[(tri, i)]
            g_out = start_germ[(tri, (i + 1) % 3)]
            if g_in in next_at[point]:
                raise InconsistencyError(
                    f"germ {g_in!r} has two successors around {point!r}"
                )
            next_at[point][g_in] = g_out

    rotations: dict[str, tuple[str, ...]] = {}
    for p in t.points:
        succ = next_at[p]
        if not succ:
            continue
        preds = set(succ.values())
        starts = [g for g in succ if g not in preds]
        if len(starts) != 1:
            raise InconsistencyError(
                f"corner fan at {p!r} does not chain into a single run"
            )
        chain = [starts[0]]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        arc_germs = tuple(g for g in chain if g.split("@")[0] in t.arcs)
        if arc_germs:
            rotations[p] = arc_germs

    edges: dict[str, tuple[str, str]] = {}
    for a, (u, v) in t.arcs.items():
        if u != v:
            edges[a] = (f"{a}@{u}", f"{a}@{v}")
        else:
            edges[a] = (f"{a}@{u}.0", f"{a}@{u}.1")
    multiplicities = {p: 1 for p in rotations}
    return BrauerGraph(multiplicities, edges, rotations)


# ---------------------------------------------------------------------------
# Text format
#
#   point <id>
#   bseg <id> <from> <to>
#   arc <id> <p> <q>
#   triangle <id> = <side>,<side>,<side>
# ---------------------------------------------------------------------------


def parse_triangulation(text: str) -> Triangulation:
    points: dict[str, int] = {}  # id -> its line
    bsegs: dict[str, tuple[str, str]] = {}
    arcs: dict[str, tuple[str, str]] = {}
    triangles: dict[str, tuple[str, str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "point" and len(tokens) == 2:
            _declare(points, tokens[1], lineno, lineno, "point")
        elif tokens[0] == "bseg" and len(tokens) == 4:
            _declare(bsegs, tokens[1], (tokens[2], tokens[3]), lineno, "boundary segment")
        elif tokens[0] == "arc" and len(tokens) == 4:
            _declare(arcs, tokens[1], (tokens[2], tokens[3]), lineno, "arc")
        elif tokens[0] == "triangle" and len(tokens) >= 4 and tokens[2] == "=":
            sides = tuple(" ".join(tokens[3:]).replace(",", " ").split())
            if len(sides) != 3:
                raise ParseError(lineno, "a triangle needs exactly three sides")
            _declare(triangles, tokens[1], sides, lineno, "triangle")
        else:
            raise ParseError(lineno, f"cannot parse {line!r}")
    return Triangulation(points, bsegs, arcs, triangles)


def serialize_triangulation(t: Triangulation) -> str:
    lines = [f"point {p}" for p in t.points]
    lines += [f"bseg {s} {u} {v}" for s, (u, v) in sorted(t.boundary_segments.items())]
    lines += [f"arc {a} {u} {v}" for a, (u, v) in sorted(t.arcs.items())]
    lines += [
        f"triangle {tri} = {','.join(t.triangles[tri])}" for tri in t.triangle_order
    ]
    return "\n".join(lines) + "\n"


def triangulation_dot(t: Triangulation) -> str:
    """Graphviz DOT; arcs are solid edges, boundary segments dashed ones."""
    _validated(t)
    lines = ["graph triangulation {"]
    lines += [f'  "{p}";' for p in t.points]
    lines += [f'  "{u}" -- "{v}" [label="{a}"];' for a, (u, v) in sorted(t.arcs.items())]
    lines += [
        f'  "{u}" -- "{v}" [label="{s}", style=dashed];'
        for s, (u, v) in sorted(t.boundary_segments.items())
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"
