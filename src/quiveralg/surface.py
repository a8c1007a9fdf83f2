"""Ideal triangulations of marked surfaces with boundary, combinatorially.

A triangulation is given by marked points, directed boundary segments
forming cyclic boundary components, arcs between marked points, and
triangles listed as cyclic triples of sides (the cyclic order encodes the
surface orientation).  Gluing is validated: each arc lies on two triangles,
traversed in opposite directions.

Two constructions are derived.  The quiver of the triangulation has one
vertex per arc and one arrow per pair of consecutive arc sides in a
triangle, pointing from an arc to its orientation-successor at the shared
marked point, with quadratic zero relations around internal triangles
(all three sides arcs); this presents a gentle algebra.  Independently, the
arcs around each marked point inherit a cyclic order from the orientation,
turning the triangulation itself into a multiplicity-one Brauer graph.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Sequence

from .brauer import BrauerGraph
from .errors import InconsistencyError, ParseError, ValidationError
from .gentle import GentleAlgebra, gentle_algebra
from .quiver import Monomial, Presentation, Problem, Quiver


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


def _corner_solutions(t: Triangulation, sides: tuple[str, str, str]):
    """Corner assignments for one triangle.

    ``corners[i]`` is the marked point between side ``i`` and side ``i+1``;
    a valid assignment gives every non-loop side its two distinct endpoints
    as corners, and every loop side its base point twice.  Consecutive sides
    sharing both endpoints make individual corners ambiguous, so all
    combinations are tried and consistency selects the survivors.
    """
    endpoint_sets = []
    for s in sides:
        u, v = t.side_endpoints(s)
        endpoint_sets.append({u, v})
    candidates = [
        sorted(endpoint_sets[i] & endpoint_sets[(i + 1) % 3]) for i in range(3)
    ]
    solutions = []
    for c0 in candidates[0]:
        for c1 in candidates[1]:
            for c2 in candidates[2]:
                corners = (c0, c1, c2)
                ok = True
                for i, s in enumerate(sides):
                    u, v = t.side_endpoints(s)
                    entry, exit_ = corners[(i - 1) % 3], corners[i]
                    if sorted((entry, exit_)) != sorted((u, v)):
                        ok = False
                        break
                if ok:
                    solutions.append(corners)
    return solutions


def _resolved_corners(t: Triangulation) -> dict[str, tuple[str, str, str]]:
    out = {}
    for tri in t.triangle_order:
        solutions = _corner_solutions(t, t.triangles[tri])
        if not solutions:
            raise InconsistencyError(f"triangle {tri!r} admits no corner assignment")
        out[tri] = solutions[0]
    return out


def _side_traversals(t: Triangulation) -> dict[str, list[tuple[str, str, str, int]]]:
    """Per side: (triangle, entry point, exit point, position) occurrences."""
    corners = _resolved_corners(t)
    out: dict[str, list[tuple[str, str, str, int]]] = {}
    for tri in t.triangle_order:
        cs = corners[tri]
        for i, s in enumerate(t.triangles[tri]):
            out.setdefault(s, []).append((tri, cs[(i - 1) % 3], cs[i], i))
    return out


def validate_triangulation(t: Triangulation) -> list[Problem]:
    problems: list[Problem] = []
    if not t.arcs:
        problems.append(Problem("arcs", "triangulation declares no arcs"))
    overlap = set(t.arcs) & set(t.boundary_segments)
    if overlap:
        problems.append(
            Problem("sides", f"ids used both as arc and boundary segment: {sorted(overlap)}")
        )

    declared = set(t.points)
    for a, (u, v) in sorted(t.arcs.items()):
        for p in (u, v):
            if p not in declared:
                problems.append(Problem("points", f"arc {a!r} ends at unknown point {p!r}"))
    for s, (u, v) in sorted(t.boundary_segments.items()):
        for p in (u, v):
            if p not in declared:
                problems.append(
                    Problem("points", f"boundary segment {s!r} ends at unknown point {p!r}")
                )
    if problems:
        return problems

    outgoing: dict[str, list[str]] = {p: [] for p in t.points}
    incoming: dict[str, list[str]] = {p: [] for p in t.points}
    for s, (u, v) in t.boundary_segments.items():
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
            if s not in t.arcs and s not in t.boundary_segments:
                problems.append(Problem("sides", f"triangle {tri!r} uses unknown side {s!r}"))
            count[s] = count.get(s, 0) + 1
    for a in sorted(t.arcs):
        if count.get(a, 0) != 2:
            problems.append(
                Problem("gluing", f"arc {a!r} lies on {count.get(a, 0)} triangle sides, not 2")
            )
    for s in sorted(t.boundary_segments):
        if count.get(s, 0) != 1:
            problems.append(
                Problem(
                    "gluing",
                    f"boundary segment {s!r} lies on {count.get(s, 0)} triangle sides, not 1",
                )
            )
    if problems:
        return problems

    try:
        traversals = _side_traversals(t)
    except InconsistencyError as exc:
        problems.append(Problem("corners", str(exc)))
        return problems
    for a, (u, v) in sorted(t.arcs.items()):
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


def _arrow_sites(t: Triangulation) -> list[tuple[str, int, str, str]]:
    """Corner sites joining two arcs: (triangle, corner index, from-arc, to-arc).

    Deterministic order: triangles sorted, corners in cyclic position order.
    """
    sites = []
    for tri in t.triangle_order:
        sides = t.triangles[tri]
        for i in range(3):
            s, s_next = sides[i], sides[(i + 1) % 3]
            if t.is_arc(s) and t.is_arc(s_next):
                sites.append((tri, i, s, s_next))
    return sites


def jacobian_presentation(t: Triangulation, convention: str = "successor") -> Presentation:
    """Quiver on the arcs with arrows at shared corners, relations in internal triangles.

    With the default ``successor`` convention an arrow runs from an arc to
    the next arc at their shared marked point, following the triangle's
    cyclic order; ``predecessor`` reverses every arrow (the opposite
    algebra).  Quadratic zero relations are exactly the compositions of
    consecutive arrows inside triangles whose three sides are all arcs.
    """
    if convention not in ("successor", "predecessor"):
        raise ValueError(f"unknown arrow convention {convention!r}")
    _validated(t)
    flip = convention == "predecessor"
    arrows = []
    by_site: dict[tuple[str, int], str] = {}
    name_uses: dict[str, int] = {}
    for tri, i, s, s_next in _arrow_sites(t):
        src, tgt = (s_next, s) if flip else (s, s_next)
        base = f"{src}>{tgt}"
        name_uses[base] = name_uses.get(base, 0) + 1
        name = base if name_uses[base] == 1 else f"{base}#{name_uses[base]}"
        arrows.append((name, src, tgt))
        by_site[(tri, i)] = name

    quiver = Quiver(sorted(t.arcs), arrows)
    relations = []
    for tri in t.triangle_order:
        sides = t.triangles[tri]
        if not all(t.is_arc(s) for s in sides):
            continue
        for i in range(3):
            a, b = by_site[(tri, i)], by_site[(tri, (i + 1) % 3)]
            pair = (b, a) if flip else (a, b)
            relations.append(Monomial(quiver.path(pair)))
    return Presentation(quiver, relations)


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
    traversals = _side_traversals(t)

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
    corners = _resolved_corners(t)
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
    points: list[str] = []
    bsegs: dict[str, tuple[str, str]] = {}
    arcs: dict[str, tuple[str, str]] = {}
    triangles: dict[str, tuple[str, str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "point" and len(tokens) == 2:
            points.append(tokens[1])
        elif tokens[0] == "bseg" and len(tokens) == 4:
            bsegs[tokens[1]] = (tokens[2], tokens[3])
        elif tokens[0] == "arc" and len(tokens) == 4:
            arcs[tokens[1]] = (tokens[2], tokens[3])
        elif tokens[0] == "triangle" and len(tokens) >= 4 and tokens[2] == "=":
            sides = tuple(" ".join(tokens[3:]).replace(",", " ").split())
            if len(sides) != 3:
                raise ParseError(lineno, "a triangle needs exactly three sides")
            triangles[tokens[1]] = sides  # type: ignore[assignment]
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
