"""Brauer graphs as ribbon graphs, and their algebras.

A Brauer graph is a finite connected graph with a cyclic order of the
edge-ends (half-edges, "germs") around every vertex and a positive integer
multiplicity per vertex.  Loops and multiple edges are allowed; a loop is an
edge whose two half-edges sit at the same vertex.

The graph determines a quiver: one quiver vertex per edge, one arrow per
half-edge pointing from its edge to the edge of its cyclic successor, except
that a half-edge alone at a multiplicity-one vertex contributes no arrow.
Each graph vertex then contributes an oriented arrow cycle, read off the
cyclic order; the relations are

* for every edge whose two half-edges ``h``, ``k`` both generate cycles, the
  commutativity relation ``C_h^{e(h)} - C_k^{e(k)}`` between the two cycle
  powers based at that edge,
* for every edge with one end alone at a multiplicity-one vertex, the zero
  relation ``C_h^{e(h)} * first(C_h)`` (one step beyond the socle),
* a zero relation ``a b`` for every composable arrow pair in which ``b`` is
  not the cycle-successor arrow of ``a``.

The last rule is stated here through half-edges: the cycle-successor of the
arrow of germ ``g`` is the arrow of ``successor(g)``, which keeps the rule
well defined when a loop makes two cycles share a vertex; pairs of arrows
from two distinct graph vertices are never successors, so those all acquire
a relation, and for a loop the two out-of-order compositions do too.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from .errors import InconsistencyError, ParseError
from .quiver import (
    Arrow,
    Binomial,
    Monomial,
    Path,
    Presentation,
    Problem,
    Quiver,
    Relation,
    _declare,
    cached_property,
)


class BrauerGraph:
    """A ribbon graph with per-vertex multiplicities.

    ``multiplicities`` maps graph vertices to integers (and fixes the vertex
    set); ``edges`` maps edge names to their two half-edge names; and
    ``rotations`` gives, per vertex, the cyclic sequence of the half-edges
    at that vertex (the starting point of the sequence is irrelevant).
    Values are copied and the graph is immutable afterwards; structural
    well-formedness that :func:`validate_brauer_graph` reports as problems
    is not enforced here, so partially built graphs can be inspected.
    """

    def __init__(
        self,
        multiplicities: Mapping[str, int],
        edges: Mapping[str, tuple[str, str]],
        rotations: Mapping[str, Sequence[str]],
    ):
        self._mult = dict(multiplicities)
        self._edges = {e: (h[0], h[1]) for e, h in edges.items()}
        self._rotations = {v: tuple(seq) for v, seq in rotations.items()}

    @property
    def multiplicities(self) -> dict[str, int]:
        return dict(self._mult)

    @property
    def edges(self) -> dict[str, tuple[str, str]]:
        return dict(self._edges)

    @property
    def rotations(self) -> dict[str, tuple[str, ...]]:
        return dict(self._rotations)

    def multiplicity(self, vertex: str) -> int:
        return self._mult[vertex]

    @cached_property
    def half_edges(self) -> tuple[str, ...]:
        return tuple(sorted(h for pair in self._edges.values() for h in pair))

    @cached_property
    def edge_of(self) -> dict[str, str]:
        return {h: e for e, pair in self._edges.items() for h in pair}

    @cached_property
    def partner(self) -> dict[str, str]:
        out = {}
        for h, k in self._edges.values():
            out[h] = k
            out[k] = h
        return out

    @cached_property
    def vertex_of(self) -> dict[str, str]:
        return {h: v for v, seq in self._rotations.items() for h in seq}

    def valency(self, vertex: str) -> int:
        return len(self._rotations[vertex])

    @cached_property
    def successor_of(self) -> dict[str, str]:
        return {
            h: nxt
            for seq in self._rotations.values()
            for h, nxt in zip(seq, seq[1:] + seq[:1])
        }

    def successor(self, half_edge: str) -> str:
        """The next half-edge in the cyclic order at the same vertex."""
        return self.successor_of[half_edge]

    @cached_property
    def silent_leaves(self) -> frozenset[str]:
        """The germs that sit alone at a multiplicity-one vertex."""
        return frozenset(
            seq[0] for v, seq in self._rotations.items() if len(seq) == 1 and self._mult[v] == 1
        )

    def is_silent_leaf(self, half_edge: str) -> bool:
        """Whether this germ sits alone at a multiplicity-one vertex."""
        return half_edge in self.silent_leaves

    def __repr__(self):
        return (
            f"BrauerGraph({len(self._mult)} vertices, {len(self._edges)} edges, "
            f"mult {sorted(self._mult.values())})"
        )

    def __eq__(self, other):
        if not isinstance(other, BrauerGraph):
            return NotImplemented
        return (
            self._mult == other._mult
            and self._edges == other._edges
            and self._rotations == other._rotations
        )

    def __hash__(self):
        return hash(canonical_form(self))


def validate_brauer_graph(g: BrauerGraph) -> list[Problem]:
    """Structural validation; every failing invariant is reported.

    Rejected besides malformed data: disconnected graphs, the edgeless
    graph, and a single edge joining two distinct multiplicity-one vertices
    (the two degenerate algebras the correspondence excludes).
    """
    problems: list[Problem] = []
    halves: list[str] = []
    for e, (h, k) in g.edges.items():
        if h == k:
            problems.append(Problem("pairing", f"edge {e!r} pairs half-edge {h!r} with itself"))
        halves.extend((h, k))
    if len(set(halves)) != len(halves):
        dup = sorted({h for h in halves if halves.count(h) > 1})
        problems.append(Problem("pairing", f"half-edges on several edges: {', '.join(dup)}"))

    placed: list[str] = [h for seq in g.rotations.values() for h in seq]
    if len(set(placed)) != len(placed):
        dup = sorted({h for h in placed if placed.count(h) > 1})
        problems.append(Problem("rotation", f"half-edges placed twice: {', '.join(dup)}"))
    if set(placed) != set(halves):
        missing = sorted(set(halves) - set(placed))
        stray = sorted(set(placed) - set(halves))
        if missing:
            problems.append(Problem("rotation", f"half-edges not placed at any vertex: {missing}"))
        if stray:
            problems.append(Problem("rotation", f"unknown half-edges in rotations: {stray}"))
    if set(g.rotations) != set(g.multiplicities):
        problems.append(Problem("rotation", "rotation and multiplicity vertex sets differ"))

    for v, m in g.multiplicities.items():
        if m < 1:
            problems.append(Problem("multiplicity", f"vertex {v!r} has multiplicity {m} < 1"))

    if not g.edges:
        problems.append(Problem("degenerate", "graph without edges"))
    elif len(g.edges) == 1:
        ((h, k),) = g.edges.values()
        if not problems:
            u, w = g.vertex_of[h], g.vertex_of[k]
            if u != w and g.multiplicity(u) == 1 and g.multiplicity(w) == 1:
                problems.append(
                    Problem(
                        "degenerate",
                        "single edge with multiplicity one at both endpoints",
                    )
                )

    if not problems and g.edges:
        seen: set[str] = set()
        stack = [g.half_edges[0]]
        while stack:
            h = stack.pop()
            if h in seen:
                continue
            seen.add(h)
            stack.append(g.partner[h])
            stack.append(g.successor(h))
        if len(seen) != len(g.half_edges) or len(g.rotations) != len(
            {g.vertex_of[h] for h in seen}
        ):
            problems.append(Problem("connected", "graph is not connected"))
    return problems


def quiver_of(g: BrauerGraph) -> Quiver:
    """The quiver: vertices are edges, arrows are the non-silent half-edges.

    The arrow of germ ``h`` is named ``h`` and points from the edge of ``h``
    to the edge of its cyclic successor; at a multiplicity >= 2 leaf this is
    a loop arrow, and a multiplicity-one leaf germ is silent.
    """
    edge_of, succ, silent = g.edge_of, g.successor_of, g.silent_leaves
    arrows = [Arrow(h, edge_of[h], edge_of[succ[h]]) for h in g.half_edges if h not in silent]
    return Quiver(g._edges, arrows)


def _cycle_powers(g: BrauerGraph) -> dict[str, Path]:
    """Per germ that is not silent, the cycle at its vertex raised to that
    vertex's multiplicity, as a path based at the edge of the germ.  Each
    vertex's itinerary is read once, repeated past one full power, and
    every germ's path is a slice of it."""
    edge_of, silent, powers = g.edge_of, g.silent_leaves, {}
    for v, seq in g._rotations.items():
        m = g._mult[v]
        length = len(seq) * m
        germs, edges = seq * (m + 1), tuple([edge_of[h] for h in seq]) * (m + 1)
        for i, h in enumerate(seq):
            if h not in silent:
                powers[h] = Path(edges[i : i + length + 1], germs[i : i + length])
    return powers


def relations_of(g: BrauerGraph) -> list[Relation]:
    """The defining relations of the Brauer graph algebra (see module docs):
    per edge in name order its commutativity or zero relation, then per
    germ in name order its quadratic zero relation, if any.

    The paths are built straight from the rotations: the cycle powers are
    slices of each vertex's itinerary, and the one zero pair after arrow
    ``h`` is ``h`` followed by the partner of its successor, unless that
    germ is silent.  :class:`Presentation` checks them all against the
    quiver.
    """
    relations: list[Relation] = []
    edge_of, succ, silent, partner = g.edge_of, g.successor_of, g.silent_leaves, g.partner
    powers = _cycle_powers(g)
    for e, (h, k) in sorted(g._edges.items()):
        if h in silent or k in silent:
            if h in silent and k in silent:
                raise InconsistencyError(
                    f"edge {e!r} has multiplicity-one leaves at both ends; "
                    "validate the graph before building its algebra"
                )
            loud = k if h in silent else h
            full = powers[loud]
            one_past_socle = Path(full.vertices + full.vertices[1:2], full.arrows + (loud,))
            relations.append(Monomial(one_past_socle))
        else:
            left, right = (h, k) if h < k else (k, h)
            relations.append(Binomial(powers[left], powers[right]))
    for h in g.half_edges:
        if h in silent:
            continue
        nxt = succ[h]
        b = partner[nxt]  # the other germ of the edge that h's arrow ends at
        if b not in silent and b != nxt:
            out_edge = edge_of[nxt]
            relations.append(Monomial(Path((edge_of[h], out_edge, edge_of[succ[b]]), (h, b))))
    return relations


def presentation_of(g: BrauerGraph) -> Presentation:
    return Presentation(quiver_of(g), relations_of(g))


def algebra_of(g: BrauerGraph):
    """The Brauer graph algebra packaged as a normalized biserial presentation."""
    return ssb_presentation(presentation_of(g))


def structural_dimension(g: BrauerGraph) -> int:
    """Dimension from the projective shapes: cycle-power lengths per edge end.

    Each of the ``n`` germs at a vertex of multiplicity ``m`` adds its
    cycle-power length ``m * n``: 1, the trivial path, at a silent leaf.
    """
    return sum(g._mult[v] * len(seq) ** 2 for v, seq in g._rotations.items())


# ---------------------------------------------------------------------------
# Canonical form and isomorphism
# ---------------------------------------------------------------------------


def discovery_code(succ, partner, label, start, bound=None) -> tuple[tuple, list] | None:
    """The discovery code of a map from germ ``start``, with its germs in
    discovery order.

    Germs are numbered in breadth-first order from ``start``, successor
    first and then partner; the code lists, per germ in that order, the
    numbers of its successor and partner and its ``label``.  Equal codes
    from two starts mean that zipping their orders is a label-preserving
    isomorphism of their components.  Given a ``bound``, the code is
    compared with it as it is built and None is returned at the first
    larger step, so None means exactly that the code is larger.
    """
    number = {start: 0}
    order = [start]
    code = None if bound is not None else []  # None while equal to the bound's prefix
    for i, h in enumerate(order):
        s, p = succ[h], partner[h]
        if s not in number:
            number[s] = len(order)
            order.append(s)
        if p not in number:
            number[p] = len(order)
            order.append(p)
        step = (number[s], number[p], label[h])
        if code is None:
            if i == len(bound) or step > bound[i]:
                return None
            if step == bound[i]:
                continue
            code = list(bound[:i])
        code.append(step)
    return (bound[: len(order)] if code is None else tuple(code)), order


def _first_step(h, s, p, label) -> tuple:
    """The first step of the discovery code from germ ``h``, whose successor
    is ``s`` and partner ``p``: it numbers ``h`` 0, then ``s`` and ``p``."""
    return (int(s != h), 0 if p == h else 2 - (p == s or s == h), label)


def _least_code(g: BrauerGraph) -> tuple[tuple, list[str]]:
    """The least discovery code over all starts, each germ labelled by its
    vertex's multiplicity, with the order of the first start reaching it."""
    if not g.half_edges:
        raise ValueError("a graph without half-edges has no canonical form")
    succ, partner = g.successor_of, g.partner
    label = {h: g._mult[v] for h, v in g.vertex_of.items()}
    # the least code begins with the least first step, so the other starts
    # are skipped before their walk
    first = {h: _first_step(h, succ[h], partner[h], label[h]) for h in g.half_edges}
    least = min(first.values())
    best = bound = None
    for start in reversed(g.half_edges):  # a tie replaces best: the first start wins
        if first[start] != least:
            continue
        found = discovery_code(succ, partner, label, start, bound)
        if found is not None:
            best, bound = found, found[0]
    return best


def canonical_form(g: BrauerGraph) -> tuple:
    """Relabeling-invariant encoding; equal exactly for isomorphic graphs:
    the least :func:`discovery_code` over all starting germs, each germ
    labelled by the multiplicity at its vertex."""
    return _least_code(g)[0]


def is_isomorphic(g1: BrauerGraph, g2: BrauerGraph) -> bool:
    return canonical_form(g1) == canonical_form(g2)


def find_isomorphism(g1: BrauerGraph, g2: BrauerGraph) -> dict[str, str] | None:
    """A half-edge bijection realizing an isomorphism, or None: the zipped
    orders of the two least codes, each from the first start in name order
    reaching it.  The vertex and edge bijections follow from it."""
    if len(g1.half_edges) != len(g2.half_edges):
        return None
    (code1, order1), (code2, order2) = _least_code(g1), _least_code(g2)
    return dict(zip(order1, order2)) if code1 == code2 else None


def relabel_brauer_graph(g: BrauerGraph, rng: random.Random) -> BrauerGraph:
    """An isomorphic copy with names shuffled and rotations re-anchored."""

    def shuffled_names(names: Iterable[str], prefix: str) -> dict[str, str]:
        names = list(names)
        targets = [f"{prefix}{i}" for i in range(len(names))]
        rng.shuffle(targets)
        return dict(zip(names, targets))

    mult, edges = g._mult, g._edges
    vmap = shuffled_names(mult, "v")
    emap = shuffled_names(edges, "E")
    hmap = shuffled_names(g.half_edges, "h")
    rotations = {}
    for v, seq in g._rotations.items():
        k = rng.randrange(len(seq)) if seq else 0
        seq = seq[k:] + seq[:k]
        rotations[vmap[v]] = tuple(hmap[h] for h in seq)
    return BrauerGraph(
        {vmap[v]: m for v, m in mult.items()},
        {emap[e]: (hmap[h], hmap[k]) for e, (h, k) in edges.items()},
        rotations,
    )


# ---------------------------------------------------------------------------
# Text format
#
#   bvertex <id> mult=<int>
#   bedge <edge-id> <half>@<vertex> <half>@<vertex>
#   order <vertex> = <half>,<half>,...
# ---------------------------------------------------------------------------


def parse_brauer_graph(text: str) -> BrauerGraph:
    mult: dict[str, int] = {}
    edges: dict[str, tuple[str, str]] = {}
    at: dict[str, str] = {}
    orders: dict[str, tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "bvertex":
            if len(tokens) != 3 or not tokens[2].startswith("mult="):
                raise ParseError(lineno, "expected: bvertex <id> mult=<int>")
            try:
                _declare(mult, tokens[1], int(tokens[2][5:]), lineno, "vertex")
            except ValueError:
                raise ParseError(lineno, f"bad multiplicity {tokens[2][5:]!r}") from None
        elif tokens[0] == "bedge":
            if len(tokens) != 4:
                raise ParseError(lineno, "expected: bedge <id> <half>@<vertex> <half>@<vertex>")
            pair = []
            for end in tokens[2:]:
                if "@" not in end:
                    raise ParseError(lineno, f"expected <half>@<vertex>, got {end!r}")
                h, v = end.rsplit("@", 1)
                if v not in mult:
                    raise ParseError(lineno, f"undeclared vertex {v!r}")
                pair.append(h)
                at[h] = v
            _declare(edges, tokens[1], (pair[0], pair[1]), lineno, "edge")
        elif tokens[0] == "order":
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError(lineno, "expected: order <vertex> = <half>,<half>,...")
            v = tokens[1]
            if v not in mult:
                raise ParseError(lineno, f"undeclared vertex {v!r}")
            order = tuple(" ".join(tokens[3:]).replace(",", " ").split())
            _declare(orders, v, order, lineno, "order at vertex")
        else:
            raise ParseError(lineno, f"unknown directive {tokens[0]!r}")
    for v in mult:
        if v not in orders:
            declared = tuple(h for h, w in sorted(at.items()) if w == v)
            orders[v] = declared
    return BrauerGraph(mult, edges, orders)


def serialize_brauer_graph(g: BrauerGraph) -> str:
    mult, edges, rotations, vertex_of = g._mult, g._edges, g._rotations, g.vertex_of
    lines = [f"bvertex {v} mult={mult[v]}" for v in sorted(mult)]
    for e in sorted(edges):
        h, k = sorted(edges[e])
        lines.append(f"bedge {e} {h}@{vertex_of[h]} {k}@{vertex_of[k]}")
    for v in sorted(rotations):
        seq = rotations[v]
        if seq:
            k = seq.index(min(seq))  # anchor the cycle for determinism
            seq = seq[k:] + seq[:k]
            lines.append(f"order {v} = {','.join(seq)}")
    return "\n".join(lines) + "\n"


def brauer_graph_dot(g: BrauerGraph) -> str:
    """Graphviz DOT; vertices carry their multiplicities as labels."""
    mult, edges, vertex_of = g._mult, g._edges, g.vertex_of
    lines = ["graph brauer {"]
    for v in sorted(mult):
        lines.append(f'  "{v}" [label="{v} mult={mult[v]}"];')
    for e in sorted(edges):
        h, k = edges[e]
        lines.append(f'  "{vertex_of[h]}" -- "{vertex_of[k]}" [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ssb imports BrauerGraph and discovery_code from this module, so this
# import comes last, once they are defined.  The package imports this
# module before ssb, so a first import of either module ends here, with
# ssb loaded in full before this module finishes.
from .ssb import ssb_presentation  # noqa: E402
