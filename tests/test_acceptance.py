"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the structural identities are checked over exhaustively enumerated
instances at the stated bounds and tolerances (all checks here are exact).
"""

import time

from oracles import quotient_dimension
from quiveralg.brauer import BrauerGraph, presentation_of
from quiveralg.census import presentations_isomorphic
from quiveralg.cli import main
from quiveralg.cut import CuttingSet, admissible_cut
from quiveralg.quiver import Quiver, Presentation
from quiveralg.suites import Bounds, run_suite
from quiveralg.surface import (
    Triangulation,
    jacobian_algebra,
    serialize_triangulation,
)
from quiveralg.trivext import extended_quiver, trivial_extension


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def annulus() -> Triangulation:
    return Triangulation(
        points=["a", "b", "c"],
        boundary_segments={"s1": ("a", "b"), "s2": ("b", "a"), "s3": ("c", "c")},
        arcs={"1": ("a", "c"), "2": ("a", "c"), "3": ("c", "b")},
        triangles={"t1": ("1", "2", "s3"), "t2": ("1", "3", "s1"), "t3": ("3", "2", "s2")},
    )


def test_criterion_1_annulus_reproduction():
    start = time.time()
    t = annulus()
    algebra = jacobian_algebra(t)
    ok = (
        len(algebra.quiver.vertices) == 3
        and len(algebra.quiver.arrows) == 3
        and algebra.presentation.relations == ()
    )
    ext = trivial_extension(algebra)
    original = {a.name for a in algebra.quiver.arrows}
    added = {a.name for a in extended_quiver(algebra).arrows} - original
    ok = ok and len(added) == 2
    recovered = admissible_cut(ext, CuttingSet(added))
    ok = ok and presentations_isomorphic(recovered.presentation, algebra.presentation)
    ok = ok and algebra.dimension == 7 and ext.dimension == 14
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report("criterion-1 annulus reproduction", ok, f"{elapsed:.2f}s")


def test_criterion_2_graph_algebra_roundtrip_suite():
    start = time.time()
    report = run_suite("graph-algebra-roundtrip", Bounds(max_edges=4, max_mult=3))
    elapsed = time.time() - start
    ok = report.ok and elapsed < 300
    _report(
        "criterion-2 graph/algebra roundtrip (<=4 edges, mult<=3)",
        ok,
        f"{report.instances} instances, {len(report.failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_3_trivial_extension_suite():
    start = time.time()
    report = run_suite("trivial-extension", Bounds(max_vertices=4, max_arrows=6))
    elapsed = time.time() - start
    ok = report.ok and elapsed < 600
    _report(
        "criterion-3 trivial extension (<=4 vertices, <=6 arrows)",
        ok,
        f"{report.instances} instances, {len(report.failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_4_admissible_cut_suite():
    report = run_suite("admissible-cut", Bounds(max_edges=4))
    _report(
        "criterion-4 admissible cuts (<=4 edges, every cutting set)",
        report.ok,
        f"{report.instances} instances, {len(report.failures)} failures",
    )


def test_criterion_5_socle_suite():
    report = run_suite("socle-maximal", Bounds(max_vertices=4, max_arrows=6))
    _report(
        "criterion-5 socle equals maximal paths",
        report.ok,
        f"{report.instances} instances, {len(report.failures)} failures",
    )


def test_criterion_6_micro_oracles():
    e21 = BrauerGraph({"u": 2, "w": 1}, {"E1": ("h1", "h2")}, {"u": ("h1",), "w": ("h2",)})
    loop = BrauerGraph({"v": 1}, {"E": ("h", "k")}, {"v": ("h", "k")})
    single = Quiver(["1", "2"], [("a", "1", "2")])
    from quiveralg.gentle import gentle_algebra

    extension = trivial_extension(gentle_algebra(Presentation(single, [])))
    dims = (
        quotient_dimension(presentation_of(e21)),
        quotient_dimension(presentation_of(loop)),
        quotient_dimension(extension.presentation),
    )
    ok = dims == (3, 4, 6)
    _report("criterion-6 micro dimension oracles", ok, f"dims {dims}, expected (3, 4, 6)")


def test_criterion_7_cli_determinism(tmp_path, capsys):
    tri = tmp_path / "annulus.tri"
    tri.write_text(serialize_triangulation(annulus()))
    alg = tmp_path / "ext.alg"
    commands = [
        ["convert", "--mode", "tri-to-jacobian", str(tri)],
        ["convert", "--mode", "tri-to-bg", str(tri)],
        ["dot", "--kind", "tri", str(tri)],
        ["check", "--suite", "thm-1-1", "--max-edges", "2", "--max-mult", "2"],
        ["check", "--suite", "thm-1-3", "--max-edges", "2"],
    ]
    main(["convert", "--mode", "tri-to-jacobian", "--out", str(alg), str(tri)])
    commands.append(["convert", "--mode", "trivext", str(alg)])
    capsys.readouterr()
    ok = True
    for argv in commands:
        runs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out))
        ok = ok and runs[0] == runs[1] and runs[0][0] == 0
    _report("criterion-7 CLI determinism", ok)
