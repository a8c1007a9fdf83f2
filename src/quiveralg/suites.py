"""Roundtrip verification suites over exhaustively enumerated instances.

Each suite checks one of the structural identities on every instance within
the requested bounds and reports the failures; an empty failure list over a
nonempty census is the machine-checked statement.  Instances are enumerated
deterministically and failure reports are sorted.  A suite's entry in
``SUITES`` says everything about it, down to how large its bounds may be.

A run is split into one shard per CPU that the process may use (its CPU
affinity, so ``taskset`` sets the count).  The shards are forked processes,
the calling one being shard 0, and each adds its own memory to the total.
Every shard walks the whole census, which is cheap: the census comes in
groups, each the number of its instances and an iterable that yields
them, read only by the shard the group falls to.  A Brauer graph is a
group of one; on the gentle suites a group is the admissible cuts of one
map, made when read (see ``census._cuts_by_map``).  Each group falls to
the shard with the fewest instances so far, so a shard gets every
``shards``-th Brauer graph, or on the gentle suites whole maps.  So every
cut, and every map algebra the cuts are made from, is built once per run
rather than once per shard.  No trivial extension is built: each cut is
checked against its map's algebra, renamed (see
``_check_trivial_extension``).  The report does not depend on the number of
shards.  The library starts no threads; a caller that has its own should
run suites on one CPU, since a forked child gets only the forking thread.
"""

from __future__ import annotations

import marshal
import os
import random
from contextlib import suppress
from dataclasses import dataclass
from functools import reduce
from typing import BinaryIO, Callable, Iterable, NamedTuple

from .brauer import (
    BrauerGraph,
    algebra_of,
    canonical_form,
    relabel_brauer_graph,
    serialize_brauer_graph,
    structural_dimension,
)
from .census import _cuts_by_map, connected_brauer_graphs
from .cut import CuttingSet, enumerate_cutting_sets, admissible_cut, vertex_cycles
from .errors import QuiverAlgError, ValidationError
from .gentle import GentleAlgebra, socle_basis
from .quiver import serialize_presentation
from .ssb import SSBPresentation, _basis_from_words, _least_rotation, graph_of_ssb
from .trivext import graph_of_gentle, projectives_oracle

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


def _guard(bounds: Bounds, limits: tuple[Bounds, ...]) -> None:
    sizes = ("max_edges", "max_mult", "max_vertices", "max_arrows")
    below = [f"{n}={getattr(bounds, n)}" for n in sizes if getattr(bounds, n) < 1]
    if below:
        raise QuiverAlgError(f"bounds must be at least 1, got {', '.join(below)}")
    if not any(all(getattr(bounds, n) <= getattr(box, n) for n in sizes) for box in limits):
        raise QuiverAlgError(
            "bounds too large for exhaustive enumeration; stay within "
            "{0.max_edges} edges, multiplicity {0.max_mult}, "
            "{0.max_vertices} vertices, {0.max_arrows} arrows".format(limits[0])
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
    reference = canonical_form(g)
    if canonical_form(graph_of_ssb(ssb)) != reference:
        failures.append(("graph-roundtrip", "recovered graph is not isomorphic"))
    rng = random.Random(bounds.seed)
    for _ in range(2):
        shuffled = relabel_brauer_graph(g, rng)
        if canonical_form(shuffled) != reference:
            failures.append(("canonical-stability", "relabeling changed the canonical form"))
    dim = ssb.dimension
    if dim != structural_dimension(g):
        failures.append(
            ("dimension", f"projective sum {dim} != structural {structural_dimension(g)}")
        )
    return failures


def _renaming(graph: BrauerGraph, cut: CuttingSet, algebra: GentleAlgebra) -> dict[str, str]:
    """The new names, by Theorem 1.3, of the germs of a multiplicity-one map
    ``graph`` in the gentle graph of ``algebra``, its cut at the germs
    ``cut``.  A vertex cycle cut at position ``i`` leaves the maximal path
    of word ``cycle[i+1:] + cycle[:i]``, and the cut germ is named as that
    path's return arrow; a germ alone at its vertex (silent) is named
    ``t(e)`` after its edge ``e``, as in ``trivext._leaf_germ_names``.  The
    other germs keep their names.  A cut germ whose word is not a maximal
    path of ``algebra`` keeps its name too, so that the comparison fails."""
    betas = {m.arrows: name for m, name in algebra.return_arrow_names.items()}
    names = {}
    for cycle in graph.rotations.values():
        if len(cycle) == 1:
            names[cycle[0]] = f"t({graph.edge_of[cycle[0]]})"
        else:
            i = next(i for i, h in enumerate(cycle) if h in cut)
            names[cycle[i]] = betas.get(cycle[i + 1 :] + cycle[:i], cycle[i])
    return names


def _is_renamed(gentle: BrauerGraph, graph: BrauerGraph, names: dict[str, str]) -> bool:
    """Whether ``gentle`` is ``graph`` with each germ ``h`` named
    ``names.get(h, h)``, literally: the same multiplicities and rotations,
    each rotation read from its least germ, and the same edges, by name,
    each with its germ pair sorted; only the vertex names may differ.  The
    Brauer graph algebra depends on nothing else, so the algebra of
    ``gentle`` is then the algebra of ``graph`` with its arrows renamed."""

    def form(g: BrauerGraph, rename: dict[str, str]) -> tuple:
        rotations = []
        for v, seq in g.rotations.items():
            seq = tuple([rename.get(h, h) for h in seq])
            k = _least_rotation(seq)
            rotations.append((seq[k:] + seq[:k], g.multiplicity(v)))
        rotations.sort()
        edges = {e: tuple(sorted([rename.get(h, h) for h in pair])) for e, pair in g.edges.items()}
        return rotations, edges

    return form(gentle, {}) == form(graph, names)


def _renamed_basis(ssb: SSBPresentation, vertex: str, names: dict[str, str]) -> list[tuple]:
    """:func:`~quiveralg.ssb.projective_basis` of ``ssb`` at ``vertex`` with
    each arrow ``x`` named ``names.get(x, x)``: the keys are built from the
    renamed maximal words, so that the socle and the order are those of
    the new names."""
    a, b = ssb.projective_at[vertex].paths()
    a_word, b_word = (tuple([names.get(x, x) for x in w.arrows]) for w in (a, b))
    return _basis_from_words(vertex, a_word, a.vertices, b_word, b.vertices)


def _check_trivial_extension(instance, bounds: Bounds) -> list[tuple[str, str]]:
    """The three faces of the trivial-extension correspondence on a census
    cut A of the algebra B of a multiplicity-one map Γ (``census._Cut``).

    By Theorem 1.3, T(A) is B once each cut arrow is named as the return
    arrow of the maximal path that it closes (:func:`_renaming`), so T(A)
    is not built: (a) the glued projective bases of A equal those of B,
    renamed, at every vertex, compared as their sorted ``path_sort_key``
    keys, (b) the gentle graph of A is Γ renamed, literally
    (:func:`_is_renamed`), and so T(A), its algebra, is B renamed, (c) the
    dimension of B is twice that of A.
    """
    algebra, ssb, graph, cut = instance
    names = _renaming(graph, cut, algebra)
    failures = []
    for v in algebra.quiver.vertices:
        # both sorted and free of repeats: equal as sets of paths
        if projectives_oracle(algebra, v) != _renamed_basis(ssb, v, names):
            failures.append(
                ("projective-gluing", f"basis mismatch at vertex {v!r}")
            )
    if not _is_renamed(graph_of_gentle(algebra), graph, names):
        failures.append(("graph-of-extension", "the gentle graph is not the map's graph renamed"))
    if ssb.dimension != 2 * algebra.dimension:
        failures.append(
            (
                "dimension-doubling",
                f"the map's algebra has dimension {ssb.dimension} != 2 * {algebra.dimension}",
            )
        )
    return failures


def _check_admissible_cut(g, bounds: Bounds) -> list[tuple[str, str]]:
    """Every cut of every multiplicity-one Brauer graph algebra is gentle,
    and its gentle graph is the Brauer graph with each cut arrow named as
    the return arrow of the maximal path it closes (:func:`_is_renamed`), so
    that its trivial extension is the algebra again; the number of cutting
    sets is the product of the vertex cycle lengths."""
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
        if not _is_renamed(graph_of_gentle(algebra), g, _renaming(g, cut, algebra)):
            failures.append(
                ("cut-roundtrip", f"the gentle graph of cut {cut.arrows} is not the graph renamed")
            )
    return failures


def _check_socle_maximal(algebra, bounds: Bounds) -> list[tuple[str, str]]:
    """The annihilation socle equals the maximal paths on every gentle
    algebra, and the nonzero paths are the trivial paths and the subpaths
    of the maximal paths, a maximal path of length m having m(m+1)/2."""
    failures = []
    if set(socle_basis(algebra)) != set(algebra.maximal_paths):
        failures.append(("socle-basis", "socle differs from the maximal paths"))
    chains = len(algebra.quiver.vertices) + sum(
        len(m) * (len(m) + 1) // 2 for m in algebra.maximal_paths
    )
    if algebra.dimension != chains:
        failures.append(
            ("dimension", f"{algebra.dimension} nonzero paths, {chains} from the maximal paths")
        )
    return failures


# A suite: its alias, census, check and instance encoder, and the limits
# of its bounds.  The census yields groups ``(count, instances)``, where
# ``instances`` yields exactly ``count`` instances and is read only by the
# shard the group falls to: on the Brauer suites each graph is a group of
# one, on the gentle ones each group is the cuts of one map, so that the
# map's algebra is built in one shard only.  A gentle instance is a
# ``census._Cut``, the cut with its map and the map's algebra, of which
# lemma-2-1 reads the cut alone.  The census and the encoder
# are lambdas so that they look up the module-level functions at call
# time: a function object stored here would bypass any later rebinding of
# the name (tracing, monkeypatching in tests).  A run is allowed when its
# bounds fit under one of the limits; a refusal states the first.
class Suite(NamedTuple):
    alias: str
    census: Callable[[Bounds], Iterable[tuple[int, Iterable]]]
    check: Callable
    encode: Callable[..., str]
    limits: tuple[Bounds, ...]


# Every suite may enumerate this box.  thm-1-1 also takes six edges at
# multiplicity one, checking the 10,439 graphs with at most six edges in
# about 4 s on two CPUs (7 s of CPU time).  thm-1-3 takes six edges at any
# multiplicity in the box, since its census is the multiplicity-one graphs
# whatever max_mult says: the 262,780 cuts of those 10,439 graphs, in
# about 46 s on two CPUs (88 s of CPU time).  Its one box contains this
# one, so that a refusal names the box it may run.
SHARED_LIMIT = Bounds(max_edges=5, max_mult=4, max_vertices=5, max_arrows=10)

SUITES: dict[str, Suite] = {
    "graph-algebra-roundtrip": Suite(
        "thm-1-1",
        lambda b: ((1, (g,)) for g in connected_brauer_graphs(b.max_edges, b.max_mult)),
        _check_graph_algebra_roundtrip,
        lambda g: serialize_brauer_graph(g),
        (SHARED_LIMIT, Bounds(max_edges=6, max_mult=1, max_vertices=5, max_arrows=10)),
    ),
    "trivial-extension": Suite(
        "thm-1-2",
        lambda b: _cuts_by_map(b.max_vertices, b.max_arrows),
        _check_trivial_extension,
        lambda cut: serialize_presentation(cut.algebra.presentation),
        (SHARED_LIMIT,),
    ),
    "admissible-cut": Suite(
        "thm-1-3",
        lambda b: ((1, (g,)) for g in connected_brauer_graphs(b.max_edges, 1)),
        _check_admissible_cut,
        lambda g: serialize_brauer_graph(g),
        (Bounds(max_edges=6, max_mult=4, max_vertices=5, max_arrows=10),),
    ),
    "socle-maximal": Suite(
        "lemma-2-1",
        lambda b: (
            (n, (cut.algebra for cut in cuts))
            for n, cuts in _cuts_by_map(b.max_vertices, b.max_arrows)
        ),
        _check_socle_maximal,
        lambda a: serialize_presentation(a.presentation),
        (SHARED_LIMIT,),
    ),
}


def _shard_count() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_shard(
    suite: Suite, bounds: Bounds, rank: int, shards: int, parent: int | None = None
) -> tuple[int, list]:
    """Walk the whole census, and build and check the instances that fall
    to shard ``rank`` of ``shards``; return the census size and the
    failures.  The census comes in groups (see ``Suite``), and each whole
    group falls to the shard with the fewest instances so far, the lowest
    rank on a tie: with groups of one, shard ``rank`` gets the indices
    equal to ``rank`` modulo ``shards``.  Only that shard reads the
    group's instances.  A build that raises is not a failure of its
    instance: the error ends the run, as an error of the census does.  A
    forked shard passes the pid of its ``parent`` and exits before its
    next check once that is no longer its parent: a parent killed by a
    signal it cannot catch has no way to stop it."""
    instances = 0
    failures = []
    loads = [0] * shards  # instances fallen to each shard so far
    for count, group in suite.census(bounds):
        instances += count
        owner = loads.index(min(loads))
        loads[owner] += count
        if owner != rank:
            continue
        for instance in group:  # builds the instance, outside the try
            if parent is not None and os.getppid() != parent:
                os._exit(1)
            try:
                found = suite.check(instance, bounds)
            except QuiverAlgError as exc:
                found = [("exception", f"{type(exc).__name__}: {exc}")]
            failures.extend(
                (_one_line(suite.encode(instance)), prop, diag) for prop, diag in found
            )
    return instances, failures


def _fork_shard(suite: Suite, bounds: Bounds, rank: int, shards: int) -> tuple[int, BinaryIO]:
    """Fork a child that checks shard ``rank`` and writes its marshalled
    ``(instances, failures)``, or the text of what it raised, to a pipe.
    Returns the child's pid and the read end of the pipe."""
    read, write = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    code = 1
    try:
        os.close(read)
        try:
            result = _check_shard(suite, bounds, rank, shards, parent)
        except BaseException:  # the child's top level: all of it goes to the parent
            import traceback

            result = traceback.format_exc()
        with open(write, "wb") as pipe:
            pipe.write(marshal.dumps(result))
        code = 1 if isinstance(result, str) else 0
    finally:
        os._exit(code)


def _shard_result(rank: int, shards: int, data: bytes, status: int):
    """A child's ``(instances, failures)``; RuntimeError if it did not
    finish its shard, carrying its traceback if it raised."""
    code = os.waitstatus_to_exitcode(status)
    try:
        result = marshal.loads(data)
    except (EOFError, ValueError, TypeError):
        result = None
    if code == 0 and isinstance(result, tuple):
        return result
    if code == 1 and isinstance(result, str):
        raise RuntimeError(f"shard {rank} of {shards} raised:\n{result}")
    ended = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
    raise RuntimeError(f"shard {rank} of {shards} {ended} after writing {len(data)} bytes")


def run_suite(name: str, bounds: Bounds) -> CheckReport:
    """Run the suite called ``name`` (or its alias) over its census.

    The census is checked as it is generated, one instance at a time, by
    one shard per CPU (see the module docstring).  A ``QuiverAlgError``
    raised by a check is reported as an ``exception`` failure of that
    instance, and a census that yields nothing as a ``census`` failure,
    since a run that checked nothing proves nothing.  Failures are sorted.
    An unknown suite or bounds outside its limits raise a
    ``QuiverAlgError`` before any census starts.  Any other exception in a
    shard, a shard that dies or a shard that counts another census size
    makes the run raise; no child outlives it.
    A shard whose caller is killed outright exits before its next instance.
    """
    canonical = next((n for n, s in SUITES.items() if name in (n, s.alias)), None)
    if canonical is None:
        known = ", ".join(sorted(SUITES) + sorted(s.alias for s in SUITES.values()))
        raise QuiverAlgError(f"unknown suite {name!r}; known: {known}")
    suite = SUITES[canonical]
    _guard(bounds, suite.limits)
    shards = _shard_count()
    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe, until reaped
    try:
        for rank in range(1, shards):
            pid, pipe = _fork_shard(suite, bounds, rank, shards)
            children[pid] = pipe
        instances, failures = _check_shard(suite, bounds, 0, shards)
        for rank, (pid, pipe) in enumerate(list(children.items()), 1):
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            count, found = _shard_result(rank, shards, data, status)
            if count != instances:
                raise RuntimeError(
                    f"shard {rank} of {shards} counted {count} instances, shard 0 {instances}"
                )
            failures.extend(found)
    finally:
        if children:  # only on the error path, so signal is imported only here
            import signal

            for pid, pipe in children.items():
                pipe.close()
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
    if not instances:
        failures.append(("(none)", "census", "no instances within the bounds"))
    return CheckReport(canonical, instances, tuple(sorted(failures)))
