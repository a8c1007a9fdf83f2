"""Roundtrip verification suites over exhaustively enumerated instances.

Each suite checks one of the structural identities on every instance within
the requested bounds and reports the failures; an empty failure list is the
machine-checked statement.  Instances are enumerated deterministically and
failure reports are sorted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable

from .brauer import (
    algebra_of,
    canonical_form,
    is_isomorphic,
    relabel_brauer_graph,
    serialize_brauer_graph,
    structural_dimension,
)
from .census import connected_brauer_graphs, gentle_algebras
from .cut import enumerate_cutting_sets, admissible_cut, verify_roundtrip, vertex_cycles
from .errors import QuiverAlgError, ValidationError
from .gentle import nonzero_paths, socle_basis
from .quiver import serialize_presentation
from .ssb import graph_of_ssb, projective_basis
from .trivext import graph_of_gentle, projectives_oracle, trivial_extension

MAX_EDGES_GUARD = 5
MAX_VERTICES_GUARD = 5
MAX_ARROWS_GUARD = 10
MAX_MULT_GUARD = 4


@dataclass(frozen=True)
class CheckReport:
    suite: str
    instances: int
    failures: tuple[tuple[str, str, str], ...]  # (instance, property, diagnostic)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [f"suite {self.suite}: {self.instances} instances, {len(self.failures)} failures"]
        for instance, prop, diagnostic in self.failures:
            lines.append(f"FAIL {prop}: {diagnostic}")
            lines.append(f"  instance: {instance}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Bounds:
    max_edges: int = 4
    max_mult: int = 3
    max_vertices: int = 4
    max_arrows: int = 6
    seed: int = 0


def _guard(bounds: Bounds) -> None:
    below = [
        f"{name}={getattr(bounds, name)}"
        for name in ("max_edges", "max_mult", "max_vertices", "max_arrows")
        if getattr(bounds, name) < 1
    ]
    if below:
        raise ValueError(f"bounds must be at least 1, got {', '.join(below)}")
    if (
        bounds.max_edges > MAX_EDGES_GUARD
        or bounds.max_vertices > MAX_VERTICES_GUARD
        or bounds.max_arrows > MAX_ARROWS_GUARD
        or bounds.max_mult > MAX_MULT_GUARD
    ):
        raise ValueError(
            "bounds too large for exhaustive enumeration; stay within "
            f"{MAX_EDGES_GUARD} edges, multiplicity {MAX_MULT_GUARD}, "
            f"{MAX_VERTICES_GUARD} vertices, {MAX_ARROWS_GUARD} arrows"
        )


def _one_line(text: str) -> str:
    return " | ".join(line for line in text.strip().splitlines())


# Each check takes one census instance and the bounds and returns a list of
# (property, diagnostic) pairs; the empty list means every property holds.


def _check_graph_algebra_roundtrip(g, bounds: Bounds) -> list[tuple[str, str]]:
    """Every Brauer graph is recovered from its algebra, up to isomorphism.

    Also exercises canonical-form stability under seeded random relabelings
    and the structural dimension against the sum of projective sizes.
    """
    failures = []
    ssb = algebra_of(g)
    back = graph_of_ssb(ssb)
    if not is_isomorphic(back, g):
        failures.append(("graph-roundtrip", "recovered graph is not isomorphic"))
    rng = random.Random(bounds.seed)
    reference = canonical_form(g)
    for _ in range(2):
        shuffled = relabel_brauer_graph(g, rng)
        if canonical_form(shuffled) != reference:
            failures.append(("canonical-stability", "relabeling changed the canonical form"))
    dim = sum(len(projective_basis(ssb, v)) for v in ssb.quiver.vertices)
    if dim != structural_dimension(g):
        failures.append(
            ("dimension", f"projective sum {dim} != structural {structural_dimension(g)}")
        )
    return failures


def _check_trivial_extension(algebra, bounds: Bounds) -> list[tuple[str, str]]:
    """The three faces of the trivial-extension correspondence on gentle algebras.

    (a) the glued projective bases equal the Brauer-graph ones at every
    vertex, (b) the graph of the trivial extension is the gentle graph,
    (c) the dimension exactly doubles.
    """
    failures = []
    gg = graph_of_gentle(algebra)
    ext = trivial_extension(algebra)
    for v in algebra.quiver.vertices:
        if set(projectives_oracle(algebra, v)) != set(projective_basis(ext, v)):
            failures.append(
                ("projective-gluing", f"basis mismatch at vertex {v!r}")
            )
    if not is_isomorphic(graph_of_ssb(ext), gg.graph):
        failures.append(("graph-of-extension", "graph of T(A) differs from the gentle graph"))
    if ext.dimension != 2 * algebra.dimension:
        failures.append(
            (
                "dimension-doubling",
                f"dim T(A) = {ext.dimension} != 2 * {algebra.dimension}",
            )
        )
    return failures


def _check_admissible_cut(g, bounds: Bounds) -> list[tuple[str, str]]:
    """Every cut of every multiplicity-one Brauer graph algebra is gentle
    and trivially extends back; the number of cutting sets is the product
    of the vertex cycle lengths."""
    failures = []
    ssb = algebra_of(g)
    cuts = enumerate_cutting_sets(ssb)
    expected = reduce(lambda n, c: n * len(c), vertex_cycles(ssb), 1)
    if len(cuts) != expected:
        failures.append(
            ("cut-count", f"{len(cuts)} cutting sets, expected {expected}")
        )
    for cut in cuts:
        try:
            algebra = admissible_cut(ssb, cut)
        except ValidationError:
            failures.append(("cut-gentle", f"cut {cut.arrows} is not gentle"))
            continue
        if not verify_roundtrip(ssb, algebra):
            failures.append(
                ("cut-roundtrip", f"T(cut {cut.arrows}) is not the original algebra")
            )
    return failures


def _check_socle_maximal(algebra, bounds: Bounds) -> list[tuple[str, str]]:
    """The annihilation socle equals the maximal paths on every gentle algebra."""
    if set(socle_basis(algebra)) != set(algebra.maximal_paths):
        return [("socle-basis", "socle differs from the maximal paths")]
    if len(nonzero_paths(algebra)) != algebra.dimension:
        return [("dimension", "path count is inconsistent")]
    return []


# name -> (alias, census, check, encoder).  The census and the encoder are
# lambdas so that they look up the module-level functions at call time: a
# function object stored here would bypass any later rebinding of the name
# (tracing, monkeypatching in tests).
SUITES: dict[str, tuple[str, Callable[[Bounds], Iterable], Callable, Callable[..., str]]] = {
    "graph-algebra-roundtrip": (
        "thm-1-1",
        lambda b: connected_brauer_graphs(b.max_edges, b.max_mult),
        _check_graph_algebra_roundtrip,
        lambda g: serialize_brauer_graph(g),
    ),
    "trivial-extension": (
        "thm-1-2",
        lambda b: gentle_algebras(b.max_vertices, b.max_arrows),
        _check_trivial_extension,
        lambda a: serialize_presentation(a.presentation),
    ),
    "admissible-cut": (
        "thm-1-3",
        lambda b: connected_brauer_graphs(b.max_edges, 1),
        _check_admissible_cut,
        lambda g: serialize_brauer_graph(g),
    ),
    "socle-maximal": (
        "lemma-2-1",
        lambda b: gentle_algebras(b.max_vertices, b.max_arrows),
        _check_socle_maximal,
        lambda a: serialize_presentation(a.presentation),
    ),
}


def run_suite(name: str, bounds: Bounds) -> CheckReport:
    """Run the suite called ``name`` (or its alias) over its census.

    A ``QuiverAlgError`` raised by a check is reported as an ``exception``
    failure of that instance; failures are sorted.
    """
    canonical = next((n for n, (alias, *_) in SUITES.items() if name in (n, alias)), None)
    if canonical is None:
        known = ", ".join(sorted(SUITES) + sorted(alias for alias, *_ in SUITES.values()))
        raise ValueError(f"unknown suite {name!r}; known: {known}")
    _guard(bounds)
    _, census, check, encode = SUITES[canonical]
    items = list(census(bounds))
    failures = []
    for item in items:
        try:
            found = check(item, bounds)
        except QuiverAlgError as exc:
            found = [("exception", f"{type(exc).__name__}: {exc}")]
        failures.extend((_one_line(encode(item)), prop, diag) for prop, diag in found)
    return CheckReport(canonical, len(items), tuple(sorted(failures)))
