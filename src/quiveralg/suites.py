"""Roundtrip verification suites over exhaustively enumerated instances.

Each suite checks one of the structural identities on every instance within
the requested bounds and reports the failures; an empty failure list is the
machine-checked statement.  Instances are enumerated deterministically and
failure reports are sorted, so output does not depend on sharding.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
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
    threads: int = 1


def _guard(bounds: Bounds) -> None:
    below = [
        f"{name}={getattr(bounds, name)}"
        for name in ("max_edges", "max_mult", "max_vertices", "max_arrows", "threads")
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


def _run(
    suite: str,
    instances: Iterable,
    check: Callable,
    encode: Callable,
    threads: int,
) -> CheckReport:
    """Apply ``check`` to every instance, sharding across worker threads.

    ``check`` returns a list of (property, diagnostic) pairs; results are
    aggregated and sorted, so the report is identical for any thread count.
    """
    items = list(instances)

    def evaluate(item):
        try:
            found = check(item)
        except QuiverAlgError as exc:
            found = [("exception", f"{type(exc).__name__}: {exc}")]
        return [(_one_line(encode(item)), prop, diag) for prop, diag in found]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(evaluate, items))
    else:
        chunks = [evaluate(item) for item in items]
    failures = sorted(f for chunk in chunks for f in chunk)
    return CheckReport(suite, len(items), tuple(failures))


def run_graph_algebra_roundtrip(bounds: Bounds) -> CheckReport:
    """Every Brauer graph is recovered from its algebra, up to isomorphism.

    Also exercises canonical-form stability under seeded random relabelings
    and the structural dimension against the sum of projective sizes.
    """
    _guard(bounds)

    def check(g):
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

    return _run(
        "graph-algebra-roundtrip",
        connected_brauer_graphs(bounds.max_edges, bounds.max_mult),
        check,
        serialize_brauer_graph,
        bounds.threads,
    )


def run_trivial_extension(bounds: Bounds) -> CheckReport:
    """The three faces of the trivial-extension correspondence on gentle algebras.

    (a) the glued projective bases equal the Brauer-graph ones at every
    vertex, (b) the graph of the trivial extension is the gentle graph,
    (c) the dimension exactly doubles.
    """
    _guard(bounds)

    def check(algebra):
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

    return _run(
        "trivial-extension",
        gentle_algebras(bounds.max_vertices, bounds.max_arrows),
        check,
        lambda a: serialize_presentation(a.presentation),
        bounds.threads,
    )


def run_admissible_cut(bounds: Bounds) -> CheckReport:
    """Every cut of every multiplicity-one Brauer graph algebra is gentle
    and trivially extends back; the number of cutting sets is the product
    of the vertex cycle lengths."""
    _guard(bounds)

    def check(g):
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

    return _run(
        "admissible-cut",
        connected_brauer_graphs(bounds.max_edges, 1),
        check,
        serialize_brauer_graph,
        bounds.threads,
    )


def run_socle_maximal(bounds: Bounds) -> CheckReport:
    """The annihilation socle equals the maximal paths on every gentle algebra."""
    _guard(bounds)

    def check(algebra):
        if set(socle_basis(algebra)) != set(algebra.maximal_paths):
            return [("socle-basis", "socle differs from the maximal paths")]
        if len(nonzero_paths(algebra)) != algebra.dimension:
            return [("dimension", "path count is inconsistent")]
        return []

    return _run(
        "socle-maximal",
        gentle_algebras(bounds.max_vertices, bounds.max_arrows),
        check,
        lambda a: serialize_presentation(a.presentation),
        bounds.threads,
    )


SUITES: dict[str, Callable[[Bounds], CheckReport]] = {
    "graph-algebra-roundtrip": run_graph_algebra_roundtrip,
    "trivial-extension": run_trivial_extension,
    "admissible-cut": run_admissible_cut,
    "socle-maximal": run_socle_maximal,
}

# short aliases accepted by the command line
SUITE_ALIASES: dict[str, str] = {
    "thm-1-1": "graph-algebra-roundtrip",
    "thm-1-2": "trivial-extension",
    "thm-1-3": "admissible-cut",
    "lemma-2-1": "socle-maximal",
}


def run_suite(name: str, bounds: Bounds) -> CheckReport:
    canonical = SUITE_ALIASES.get(name, name)
    if canonical not in SUITES:
        known = ", ".join(sorted(SUITES) + sorted(SUITE_ALIASES))
        raise ValueError(f"unknown suite {name!r}; known: {known}")
    return SUITES[canonical](bounds)
