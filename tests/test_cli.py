"""End-to-end command line tests, in process via main() but for the one-shot test."""

import argparse
import contextlib
import functools
import io
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import quiveralg
from quiveralg import cli, suites
from quiveralg.brauer import (
    BrauerGraph,
    algebra_of,
    parse_brauer_graph,
    serialize_brauer_graph,
    structural_dimension,
    validate_brauer_graph,
)
from quiveralg.census import _cuts_by_map, connected_brauer_graphs, gentle_algebras
from quiveralg.cli import main
from quiveralg.cut import enumerate_cutting_sets
from quiveralg.quiver import parse_presentation, serialize_presentation
from quiveralg.ssb import graph_of_ssb
from quiveralg.surface import serialize_triangulation
from quiveralg.trivext import projectives_oracle, trivial_extension

E21_BG = """bvertex u mult=2
bvertex w mult=1
bedge E1 h1@u h2@w
order u = h1
order w = h2
"""

A2_ALG = "vertex 1\nvertex 2\narrow a 1 2\n"

LOOP_BG = """bvertex v mult=1
bedge E h@v k@v
order v = h,k
"""


@pytest.fixture
def files(tmp_path, fig1_triangulation, a2):
    paths = {}
    paths["e21"] = tmp_path / "e21.bg"
    paths["e21"].write_text(E21_BG)
    paths["loop"] = tmp_path / "loop.bg"
    paths["loop"].write_text(LOOP_BG)
    paths["a2"] = tmp_path / "a2.alg"
    paths["a2"].write_text(A2_ALG)
    paths["tri"] = tmp_path / "fig1.tri"
    paths["tri"].write_text(serialize_triangulation(fig1_triangulation))
    paths["ta2"] = tmp_path / "ta2.alg"
    paths["ta2"].write_text(serialize_presentation(trivial_extension(a2).presentation))
    return paths


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_bg_ok(self, capsys, files):
        code, out, _ = run(capsys, "validate", "--kind", "bg", str(files["e21"]))
        assert code == 0 and out == "ok\n"

    def test_gentle_ok(self, capsys, files):
        code, out, _ = run(capsys, "validate", "--kind", "gentle", str(files["a2"]))
        assert code == 0

    def test_tri_ok(self, capsys, files):
        code, out, _ = run(capsys, "validate", "--kind", "tri", str(files["tri"]))
        assert code == 0

    def test_ssb_ok(self, capsys, files):
        code, _, _ = run(capsys, "validate", "--kind", "ssb", str(files["ta2"]))
        assert code == 0

    def test_gentle_failure_lists_problems(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("vertex 1\narrow x 1 1\n")  # relation-free loop
        code, out, _ = run(capsys, "validate", "--kind", "gentle", str(bad))
        assert code == 2
        assert "finite" in out

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("arrow a 1 2\n")
        code, _, err = run(capsys, "validate", "--kind", "alg", str(bad))
        assert code == 2
        assert "line 1" in err


class TestConvert:
    def test_bg_to_alg(self, capsys, files):
        code, out, _ = run(capsys, "convert", "--mode", "bg-to-alg", str(files["e21"]))
        assert code == 0
        assert "rel mono h1 h1 h1" in out
        assert len(parse_presentation(out).quiver.arrows) == 1

    def test_trivext_mode(self, capsys, files):
        code, out, _ = run(capsys, "convert", "--mode", "trivext", str(files["a2"]))
        assert code == 0
        pres = parse_presentation(out)
        assert len(pres.quiver.arrows) == 2
        assert len(pres.relations) == 2

    def test_trivext_of_three_vertex_chain_has_dimension_ten(self, capsys, tmp_path):
        from quiveralg.ssb import ssb_presentation

        chain = tmp_path / "a3r.alg"
        chain.write_text("vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\nrel mono a b\n")
        code, out, _ = run(capsys, "convert", "--mode", "trivext", str(chain))
        assert code == 0
        assert ssb_presentation(parse_presentation(out)).dimension == 10

    def test_tri_to_jacobian(self, capsys, files):
        code, out, _ = run(capsys, "convert", "--mode", "tri-to-jacobian", str(files["tri"]))
        assert code == 0
        pres = parse_presentation(out)
        assert len(pres.quiver.vertices) == 3
        assert len(pres.quiver.arrows) == 3
        assert not pres.relations

    def test_tri_to_bg(self, capsys, files):
        code, out, _ = run(capsys, "convert", "--mode", "tri-to-bg", str(files["tri"]))
        assert code == 0
        g = parse_brauer_graph(out)
        assert validate_brauer_graph(g) == []
        assert sorted(g.valency(v) for v in g.multiplicities) == [1, 2, 3]

    def test_alg_to_bg_roundtrip(self, capsys, files):
        code, out, _ = run(capsys, "convert", "--mode", "alg-to-bg", str(files["ta2"]))
        assert code == 0
        assert validate_brauer_graph(parse_brauer_graph(out)) == []

    def test_dot_flag(self, capsys, files):
        code, out, _ = run(capsys, "convert", "--mode", "bg-to-alg", "--dot", str(files["e21"]))
        assert code == 0
        assert out.startswith("digraph")

    def test_out_file(self, capsys, files, tmp_path):
        target = tmp_path / "result.alg"
        code, out, _ = run(
            capsys, "convert", "--mode", "bg-to-alg", "--out", str(target), str(files["e21"])
        )
        assert code == 0 and out == ""
        assert "rel mono" in target.read_text()

    def test_degenerate_bg_refused(self, capsys, tmp_path):
        bad = tmp_path / "bad.bg"
        bad.write_text(
            "bvertex u mult=1\nbvertex w mult=1\nbedge E h@u k@w\norder u = h\norder w = k\n"
        )
        code, _, err = run(capsys, "convert", "--mode", "bg-to-alg", str(bad))
        assert code == 2
        assert "degenerate" in err


class TestIso:
    def test_bg_relabeled(self, capsys, files, tmp_path):
        import random

        from quiveralg.brauer import relabel_brauer_graph

        g = parse_brauer_graph(E21_BG)
        other = tmp_path / "other.bg"
        other.write_text(serialize_brauer_graph(relabel_brauer_graph(g, random.Random(5))))
        code, out, _ = run(capsys, "iso", "--kind", "bg", str(files["e21"]), str(other))
        assert code == 0
        assert out.startswith("isomorphic")
        assert "half-edge" in out

    def test_alg_dimension_mismatch(self, capsys, files, tmp_path):
        loop_alg = tmp_path / "loop.alg"
        code, out, _ = run(capsys, "convert", "--mode", "bg-to-alg", "--out", str(loop_alg), str(files["loop"]))
        assert code == 0
        e21_alg = tmp_path / "e21.alg"
        run(capsys, "convert", "--mode", "bg-to-alg", "--out", str(e21_alg), str(files["e21"]))
        code, out, _ = run(capsys, "iso", "--kind", "alg", str(e21_alg), str(loop_alg))
        assert code == 1
        assert "not isomorphic" in out
        assert "dimensions differ: 3 != 4" in out

    @pytest.mark.parametrize(
        "first, second, reason",
        [
            (
                "bvertex v0 mult=1\nbvertex v1 mult=2\nbvertex v2 mult=1\n"
                "bedge E0 h0@v0 h1@v1\nbedge E1 h2@v1 h3@v2\n"
                "order v0 = h0\norder v1 = h1,h2\norder v2 = h3\n",
                "bvertex v0 mult=1\nbvertex v1 mult=1\n"
                "bedge E0 h0@v0 h1@v1\nbedge E1 h2@v1 h3@v1\n"
                "order v0 = h0\norder v1 = h1,h2,h3\n",
                "projective dimension multisets differ: [5, 5] != [4, 6]",
            ),
            (
                "bvertex v0 mult=1\nbvertex v1 mult=2\nbvertex v2 mult=2\n"
                "bedge E0 h0@v0 h1@v1\nbedge E1 h2@v1 h3@v2\n"
                "order v0 = h0\norder v1 = h1,h2\norder v2 = h3\n",
                "bvertex v0 mult=2\nbvertex v1 mult=1\n"
                "bedge E0 h0@v0 h1@v1\nbedge E1 h2@v1 h3@v1\n"
                "order v0 = h0\norder v1 = h1,h2,h3\n",
                "arrow counts differ: 3 != 4",
            ),
            (
                "bvertex v0 mult=2\nbvertex v1 mult=2\nbedge E0 h0@v0 h1@v1\n"
                "order v0 = h0\norder v1 = h1\n",
                LOOP_BG,
                "no quiver bijection matches the projective bases",
            ),
        ],
        ids=["projective-dimensions", "arrow-counts", "no-bijection"],
    )
    def test_alg_refusal_past_the_dimensions(self, capsys, tmp_path, first, second, reason):
        """Two algebras of one dimension that are not isomorphic: the
        refusal names the first invariant that tells them apart."""
        paths = [tmp_path / "first.alg", tmp_path / "second.alg"]
        for path, text in zip(paths, (first, second)):
            ssb = algebra_of(parse_brauer_graph(text))
            path.write_text(serialize_presentation(ssb.presentation))
        code, out, _ = run(capsys, "iso", "--kind", "alg", *map(str, paths))
        assert (code, out) == (1, f"not isomorphic\n{reason}\n")

    def test_bg_refusal_with_equal_valencies(self, capsys, files, tmp_path):
        """A loop of multiplicity two against the loop of multiplicity one:
        equal valency multisets, so only the canonical forms differ."""
        heavier = tmp_path / "heavier.bg"
        heavier.write_text(LOOP_BG.replace("mult=1", "mult=2"))
        code, out, _ = run(capsys, "iso", "--kind", "bg", str(files["loop"]), str(heavier))
        assert (code, out) == (1, "not isomorphic\ncanonical forms differ\n")

    def test_alg_witness(self, capsys, files):
        code, out, _ = run(capsys, "iso", "--kind", "alg", str(files["ta2"]), str(files["ta2"]))
        assert code == 0
        assert "vertex 1 -> 1" in out

    def test_alg_witness_carries_the_bases(self, capsys, tmp_path, line3_alg_pair):
        from oracles import carries_bases
        from quiveralg.ssb import ssb_presentation

        paths = [tmp_path / "first.alg", tmp_path / "second.alg"]
        for path, text in zip(paths, line3_alg_pair):
            path.write_text(text)
        code, out, _ = run(capsys, "iso", "--kind", "alg", *map(str, paths))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "isomorphic"
        maps = {"vertex": {}, "arrow": {}}
        for line in lines[1:]:
            kind, name, arrow, image = line.split()
            assert arrow == "->"
            maps[kind][name] = image
        first, second = (ssb_presentation(parse_presentation(t)) for t in line3_alg_pair)
        assert carries_bases(first, second, (maps["vertex"], maps["arrow"]))

    def test_extension_of_jacobian_matches_graph_algebra(self, capsys, files, tmp_path):
        """tri -> jacobian -> trivext equals tri -> bg -> algebra, via the CLI alone."""
        jac = tmp_path / "jac.alg"
        ext = tmp_path / "ext.alg"
        bg = tmp_path / "fig1.bg"
        bga = tmp_path / "bga.alg"
        assert run(capsys, "convert", "--mode", "tri-to-jacobian", "--out", str(jac), str(files["tri"]))[0] == 0
        assert run(capsys, "convert", "--mode", "trivext", "--out", str(ext), str(jac))[0] == 0
        assert run(capsys, "convert", "--mode", "tri-to-bg", "--out", str(bg), str(files["tri"]))[0] == 0
        assert run(capsys, "convert", "--mode", "bg-to-alg", "--out", str(bga), str(bg))[0] == 0
        code, out, _ = run(capsys, "iso", "--kind", "alg", str(ext), str(bga))
        assert code == 0
        assert out.startswith("isomorphic")


class TestCuts:
    def test_enumerate(self, capsys, files):
        code, out, _ = run(capsys, "cuts", "--enumerate", str(files["ta2"]))
        assert code == 0
        assert out.splitlines() == ["a", "b(a)"]

    def test_cut_and_verify(self, capsys, files):
        code, out, _ = run(capsys, "cuts", "--cut", "b(a)", "--verify", str(files["ta2"]))
        assert code == 0
        assert "roundtrip: true" in out
        assert "arrow a 1 2" in out

    def test_enumerate_verify_all(self, capsys, files):
        code, out, _ = run(capsys, "cuts", "--enumerate", "--verify", str(files["ta2"]))
        assert code == 0
        assert all("roundtrip=true" in line for line in out.splitlines())

    def test_dashed_dot(self, capsys, files):
        code, out, _ = run(capsys, "cuts", "--cut", "b(a)", "--dot", str(files["ta2"]))
        assert code == 0
        assert "style=dashed" in out

    def test_bad_cut_exit_two(self, capsys, files):
        code, _, err = run(capsys, "cuts", "--cut", "a,b(a)", str(files["ta2"]))
        assert code == 2
        assert "cut 2 times" in err

    def test_empty_cut_exit_two(self, capsys, files):
        code, out, err = run(capsys, "cuts", "--cut", "", str(files["ta2"]))
        assert (code, out) == (2, "")
        assert err == "vertex cycle (a b(a)) is uncut\n"

    @pytest.mark.parametrize("names", ["a,", ",a", ",", "a,,b(a)"])
    def test_empty_arrow_name_exit_two(self, capsys, files, names):
        code, out, err = run(capsys, "cuts", "--cut", names, str(files["ta2"]))
        assert (code, out) == (2, "")
        assert err == f"empty arrow name in --cut {names!r}\n"

    def test_multiplicity_refused(self, capsys, files, tmp_path):
        e21_alg = tmp_path / "e21.alg"
        run(capsys, "convert", "--mode", "bg-to-alg", "--out", str(e21_alg), str(files["e21"]))
        code, _, err = run(capsys, "cuts", "--enumerate", str(e21_alg))
        assert code == 2
        assert "multiplicity" in err


class TestCheck:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "socle-maximal", "--max-vertices", "2", "--max-arrows", "2"
        )
        assert code == 0
        assert "7 instances, 0 failures" in out

    def test_alias_names(self, capsys):
        code, out, _ = run(
            capsys, "check", "--suite", "lemma-2-1", "--max-vertices", "2", "--max-arrows", "2"
        )
        assert code == 0
        assert "socle-maximal" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "nope")
        assert code == 2
        assert err == (
            "unknown suite 'nope'; known: admissible-cut, graph-algebra-roundtrip, "
            "socle-maximal, trivial-extension, lemma-2-1, thm-1-1, thm-1-2, thm-1-3\n"
        )

    @pytest.mark.parametrize(
        "name,alias",
        [
            ("graph-algebra-roundtrip", "thm-1-1"),
            ("trivial-extension", "thm-1-2"),
            ("admissible-cut", "thm-1-3"),
            ("socle-maximal", "lemma-2-1"),
        ],
    )
    def test_alias_gives_the_same_report(self, name, alias):
        bounds = suites.Bounds(max_edges=2, max_mult=2, max_vertices=3, max_arrows=3)
        report = suites.run_suite(name, bounds)
        assert report.suite == name and report.instances > 0
        assert suites.run_suite(alias, bounds) == report

    def test_empty_census_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(suites, "connected_brauer_graphs", lambda *bounds: iter(()))
        code, out, _ = run(capsys, "check", "--suite", "thm-1-1")
        assert code == 1
        assert out.startswith("suite graph-algebra-roundtrip: 0 instances, 1 failures\n")
        assert "FAIL census: no instances within the bounds" in out

    def test_threads_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "thm-1-1", "--threads", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("where", ["calling shard", "child"])
    def test_an_error_from_a_check_is_not_an_input_error(self, monkeypatch, where):
        """Only the suite name and the bounds are input: a check that raises
        an error outside the library ends the run with that error, on one
        shard as on two."""
        cpus = 1 if where == "calling shard" else 2
        monkeypatch.setattr(suites.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        parent = os.getpid()

        def broken(ssb):
            if (os.getpid() == parent) == (where == "calling shard"):
                raise ValueError("seeded check error")
            return enumerate_cutting_sets(ssb)

        monkeypatch.setattr(suites, "enumerate_cutting_sets", broken)
        expected = ValueError if where == "calling shard" else RuntimeError
        with pytest.raises(expected, match="seeded check error"):
            main(["check", "--suite", "thm-1-3", "--max-edges", "2"])

    def test_bounds_guard(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "thm-1-1", "--max-edges", "9")
        assert code == 2
        assert "bounds too large" in err

    @pytest.mark.parametrize(
        "argv,call",
        [
            (
                ("thm-1-1", "--max-edges", "5", "--max-mult", "4", "--max-vertices", "5", "--max-arrows", "10"),
                ("connected_brauer_graphs", 5, 4),
            ),
            (("thm-1-1", "--max-edges", "6", "--max-mult", "1"), ("connected_brauer_graphs", 6, 1)),
            (("thm-1-3", "--max-edges", "5"), ("connected_brauer_graphs", 5, 1)),
            (("thm-1-3", "--max-edges", "6"), ("connected_brauer_graphs", 6, 1)),
            (("thm-1-3", "--max-edges", "6", "--max-mult", "1"), ("connected_brauer_graphs", 6, 1)),
            (("thm-1-2", "--max-vertices", "5", "--max-arrows", "10"), ("_cuts_by_map", 5, 10)),
            (("lemma-2-1", "--max-vertices", "5", "--max-arrows", "10"), ("_cuts_by_map", 5, 10)),
        ],
    )
    def test_bounds_at_the_limits_allowed(self, capsys, monkeypatch, argv, call):
        asked = []

        def stub(name, small):
            real = getattr(suites, name)

            def census(*bounds):
                asked.append((name, *bounds))
                return real(*small)

            monkeypatch.setattr(suites, name, census)

        stub("connected_brauer_graphs", (2, 1))
        stub("_cuts_by_map", (2, 2))
        code, out, err = run(capsys, "check", "--suite", *argv)
        assert (code, err, asked) == (0, "", [call])
        assert ", 0 failures\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("thm-1-1", "--max-edges", "6", "--max-mult", "2"),
            ("thm-1-1", "--max-edges", "7", "--max-mult", "1"),
            ("thm-1-3", "--max-edges", "7"),
            ("thm-1-3", "--max-edges", "6", "--max-mult", "5"),
            ("thm-1-2", "--max-edges", "6", "--max-mult", "1"),
            ("lemma-2-1", "--max-edges", "6", "--max-mult", "1"),
            ("thm-1-1", "--max-edges", "6", "--max-mult", "1", "--max-vertices", "6"),
            ("thm-1-1", "--max-mult", "5"),
            ("thm-1-2", "--max-vertices", "6"),
            ("lemma-2-1", "--max-arrows", "11"),
            ("thm-1-3", "--max-mult", "5"),
        ],
    )
    def test_other_bounds_beyond_the_guard_refused(self, capsys, monkeypatch, argv):
        def census(*bounds):
            raise AssertionError("the census must not start")

        monkeypatch.setattr(suites, "connected_brauer_graphs", census)
        monkeypatch.setattr(suites, "_cuts_by_map", census)
        code, out, err = run(capsys, "check", "--suite", *argv)
        assert (code, out) == (2, "")
        edges = 6 if argv[0] == "thm-1-3" else 5  # the box that the suite may run
        assert err == (
            "bounds too large for exhaustive enumeration; stay within "
            f"{edges} edges, multiplicity 4, 5 vertices, 10 arrows\n"
        )

    @pytest.mark.parametrize(
        "suite,flag,value",
        [
            ("thm-1-1", "--max-edges", "-1"),
            ("thm-1-1", "--max-mult", "0"),
            ("thm-1-2", "--max-vertices", "0"),
            ("lemma-2-1", "--max-arrows", "0"),
        ],
    )
    def test_bounds_below_one_refused(self, capsys, suite, flag, value):
        code, out, err = run(capsys, "check", "--suite", suite, flag, value)
        assert code == 2
        assert out == ""
        assert "at least 1" in err and flag[2:].replace("-", "_") in err


class TestDeterminism:
    COMMANDS = [
        ("convert", "--mode", "bg-to-alg", "{e21}"),
        ("convert", "--mode", "tri-to-bg", "{tri}"),
        ("cuts", "--enumerate", "{ta2}"),
        ("dot", "--kind", "bg", "{e21}"),
        ("check", "--suite", "thm-1-1", "--max-edges", "2", "--max-mult", "2"),
    ]

    def _fill(self, argv, files):
        return [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_byte_identical_across_runs(self, capsys, files, argv):
        first = run(capsys, *self._fill(argv, files))
        second = run(capsys, *self._fill(argv, files))
        assert first == second


def _heavier(g: BrauerGraph) -> BrauerGraph:
    """``g`` with every multiplicity raised by one: never isomorphic to it."""
    mults = {v: m + 1 for v, m in g.multiplicities.items()}
    return BrauerGraph(mults, g.edges, g.rotations)


def _one_heavier(groups):
    """The census groups, each algebra built with a dimension one too large."""

    def heavier(algebra):
        algebra.__dict__["dimension"] = algebra.dimension + 1  # the cached value
        return algebra

    for count, algebras in groups:
        yield count, map(heavier, algebras)


# (suite, name in ``suites``, its replacement, the one property that fails)
BROKEN_PROPERTIES = [
    ("thm-1-2", "projectives_oracle", lambda a, v: projectives_oracle(a, v)[:-1],
     "projective-gluing"),
    ("thm-1-2", "is_isomorphic", lambda g1, g2: False, "graph-of-extension"),
    ("thm-1-2", "_cuts_by_map", lambda *b: _one_heavier(_cuts_by_map(*b)),
     "dimension-doubling"),
    ("thm-1-1", "graph_of_ssb", lambda ssb: _heavier(graph_of_ssb(ssb)), "graph-roundtrip"),
    ("thm-1-1", "relabel_brauer_graph", lambda g, rng: _heavier(g), "canonical-stability"),
    ("thm-1-1", "structural_dimension", lambda g: structural_dimension(g) + 1, "dimension"),
    ("thm-1-3", "enumerate_cutting_sets", lambda ssb: enumerate_cutting_sets(ssb)[1:],
     "cut-count"),
]


@pytest.mark.parametrize(
    "suite,name,replacement,prop", BROKEN_PROPERTIES, ids=[row[3] for row in BROKEN_PROPERTIES]
)
def test_a_broken_step_fails_exactly_its_property(monkeypatch, suite, name, replacement, prop):
    monkeypatch.setattr(suites, name, replacement)
    bounds = suites.Bounds(max_edges=3, max_mult=2, max_vertices=3, max_arrows=3)
    report = suites.run_suite(suite, bounds)
    assert report.instances > 0 and report.failures
    assert {failed for _, failed, _ in report.failures} == {prop}


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "--mode", "bg-to-alg", "{e21}"),
        ("cuts", "--enumerate", "{ta2}"),
        ("check", "--suite", "thm-1-1", "--max-edges", "2", "--max-mult", "1"),
        ("dot", "--kind", "bg", "{e21}"),
    ],
)
def test_out_to_an_unwritable_path_is_an_input_error(capsys, files, tmp_path, argv):
    target = tmp_path / "missing" / "x.out"
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
    code, out, err = run(capsys, argv[0], "--out", str(target), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--kind", "bg"),
        ("convert", "--mode", "bg-to-alg"),
        ("iso", "--kind", "bg", "{e21}"),
        ("cuts", "--enumerate"),
        ("dot", "--kind", "bg"),
    ],
)
def test_unreadable_input_is_an_input_error(capsys, files, tmp_path, argv):
    missing = tmp_path / "missing.bg"
    argv = [a.format(**{k: str(v) for k, v in files.items()}) for a in argv]
    code, out, err = run(capsys, *argv, str(missing))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {missing}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        *(("validate", "--kind", kind, "{bin}") for kind in ("alg", "gentle", "ssb", "bg", "tri")),
        ("convert", "--mode", "bg-to-alg", "{bin}"),
        ("iso", "--kind", "bg", "{bin}", "{e21}"),
        ("iso", "--kind", "bg", "{e21}", "{bin}"),
        ("cuts", "--enumerate", "{bin}"),
        ("dot", "--kind", "bg", "{bin}"),
    ],
)
def test_input_that_is_not_utf8_is_an_input_error(capsys, files, tmp_path, argv):
    binary = tmp_path / "bin.txt"
    binary.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, *(a.format(bin=binary, **files) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"cannot read {binary}: ") and err.count("\n") == 1


def test_dot_refuses_invalid_brauer_graph(capsys, tmp_path):
    bad = tmp_path / "bad.bg"
    bad.write_text("bvertex w mult=1\nbedge H a@w b@w\norder w = zz\n")  # a, b unplaced
    code, out, err = run(capsys, "dot", "--kind", "bg", str(bad))
    assert code == 2
    assert out == ""
    assert "not placed" in err


def test_dot_refuses_invalid_triangulation(capsys, tmp_path):
    bad = tmp_path / "bad.tri"
    bad.write_text("point a\n")  # no arcs
    code, out, err = run(capsys, "dot", "--kind", "tri", str(bad))
    assert code == 2
    assert out == ""
    assert "no arcs" in err


@pytest.mark.parametrize(
    "key, repeat, mode, message",
    [
        ("e21", "bvertex u mult=1", "bg-to-alg", "vertex 'u' declared twice"),
        ("e21", "bedge E1 h3@u h4@w", "bg-to-alg", "edge 'E1' declared twice"),
        ("e21", "order u = h1", "bg-to-alg", "order at vertex 'u' declared twice"),
        ("tri", "bseg s1 a b", "tri-to-bg", "boundary segment 's1' declared twice"),
        ("tri", "arc 1 a c", "tri-to-bg", "arc '1' declared twice"),
        ("tri", "triangle t1 = 1,2,s3", "tri-to-bg", "triangle 't1' declared twice"),
    ],
)
def test_a_repeated_id_is_refused_at_its_line(capsys, files, key, repeat, mode, message):
    """A second declaration of an id no longer overwrites the first: it is a
    parse error that names its own line, the last of the file."""
    text = files[key].read_text() + repeat + "\n"
    files[key].write_text(text)
    code, out, err = run(capsys, "convert", "--mode", mode, str(files[key]))
    assert (code, out) == (2, "")
    assert err == f"line {text.count(chr(10))}: {message}\n"


@pytest.mark.parametrize(
    "key, kind, repeat, message",
    [
        ("a2", "alg", "vertex 1", "vertex '1' declared twice"),
        ("a2", "gentle", "vertex 2", "vertex '2' declared twice"),
        ("a2", "alg", "arrow a 2 1", "arrow 'a' declared twice"),
        ("ta2", "ssb", "arrow a 2 1", "arrow 'a' declared twice"),
        ("tri", "tri", "point a", "point 'a' declared twice"),
    ],
)
def test_a_repeated_declaration_is_refused_at_its_line(capsys, files, key, kind, repeat, message):
    """A repeated vertex, arrow or point line is a parse error naming its own
    line, the last of the file: a vertex or point is no longer merged into
    the first, and an arrow is no longer reported at line 1."""
    text = files[key].read_text() + repeat + "\n"
    files[key].write_text(text)
    code, out, err = run(capsys, "validate", "--kind", kind, str(files[key]))
    assert (code, out) == (2, "")
    assert err == f"line {text.count(chr(10))}: {message}\n"


@pytest.mark.parametrize("relation", ["rel mono", "rel comm = a", "rel comm a ="])
def test_an_empty_relation_side_is_refused_at_its_line(capsys, files, relation):
    """A relation side with no arrows is a parse error at its line."""
    text = files["a2"].read_text() + relation + "\n"
    files["a2"].write_text(text)
    code, out, err = run(capsys, "validate", "--kind", "alg", str(files["a2"]))
    assert (code, out) == (2, "")
    assert err == "line 4: empty relation side\n"


def test_dot_command_kinds(capsys, files):
    for kind, key, marker in [("alg", "a2", "digraph"), ("bg", "e21", "mult=2"), ("tri", "tri", "style=dashed")]:
        code, out, _ = run(capsys, "dot", "--kind", kind, str(files[key]))
        assert code == 0
        assert marker in out


# The parser is built once per process and shared by every main() call.


# (a first request, then a second whose result must not depend on the first)
REQUEST_PAIRS = [
    (
        ("check", "--suite", "thm-1-3", "--max-edges", "2"),
        ("check", "--suite", "thm-1-3"),
    ),
    (("cuts", "{ta2}"), ("cuts", "--enumerate", "{ta2}")),
    (
        ("convert", "--mode", "bg-to-alg", "--out", "{out}", "{e21}"),
        ("convert", "--mode", "bg-to-alg", "{e21}"),
    ),
    (
        ("convert", "--mode", "bg-to-alg", "--dot", "{e21}"),
        ("convert", "--mode", "bg-to-alg", "{e21}"),
    ),
]


@pytest.mark.parametrize(
    "first,second", REQUEST_PAIRS, ids=["check-bounds", "usage-error", "out", "dot"]
)
def test_the_shared_parser_leaks_nothing_between_calls(capsys, files, tmp_path, first, second):
    def fill(argv):
        return [a.format(out=tmp_path / "first.out", **files) for a in argv]

    cli.build_parser.cache_clear()
    alone = run(capsys, *fill(second))
    cli.build_parser.cache_clear()
    run(capsys, *fill(first))
    assert run(capsys, *fill(second)) == alone
    assert alone[0] == 0 and alone[1]


def test_a_command_rebound_after_the_first_call_is_honoured(capsys, files, monkeypatch):
    argv = ["convert", "--mode", "bg-to-alg", str(files["e21"])]
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "cmd_convert", lambda args: 7)
    assert run(capsys, *argv)[0] == 7


def test_ten_calls_build_the_parser_at_most_once(capsys, files, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(10):
        assert run(capsys, "validate", "--kind", "bg", str(files["e21"]))[0] == 0
    assert built.count("quiveralg") <= 1


# The one-shot path: ``python -m quiveralg`` in a fresh interpreter.

ONE_SHOT_REQUESTS = [
    ("validate", "--kind", "bg", "{e21}"),
    ("convert", "--mode", "trivext", "{a2}"),
    ("iso", "--kind", "alg", "{ta2}", "{ta2}"),
    ("cuts", "--enumerate", "--verify", "{ta2}"),
    ("dot", "--kind", "tri", "{tri}"),
    ("--help",),
]


@pytest.mark.parametrize("argv", ONE_SHOT_REQUESTS, ids=[argv[0] for argv in ONE_SHOT_REQUESTS])
def test_one_shot_run_matches_main(capsys, files, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # the width of the help text
    src = str(Path(quiveralg.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [a.format(**files) for a in argv]
    shot = subprocess.run(
        [sys.executable, "-m", "quiveralg", *argv], capture_output=True, text=True, timeout=120
    )
    assert (shot.returncode, shot.stdout, shot.stderr) == run(capsys, *argv)
    assert shot.stdout


# Robustness: every subcommand, on mutated serializations of census
# instances, exits with 0, 1 or 2 and lets no exception escape.


@functools.cache
def census_texts() -> dict[str, tuple[str, ...]]:
    """Serializations by kind; "cut" holds the multiplicity-one algebras."""
    graphs = list(connected_brauer_graphs(3, 2))
    algebras = list(gentle_algebras(3, 3))
    mult_one = [g for g in graphs if set(g.multiplicities.values()) == {1}]
    extensions = [trivial_extension(a).presentation for a in algebras]
    ssb = [algebra_of(g).presentation for g in graphs] + extensions
    cut = [algebra_of(g).presentation for g in mult_one] + extensions
    return {
        "bg": tuple(serialize_brauer_graph(g) for g in graphs),
        "gentle": tuple(serialize_presentation(a.presentation) for a in algebras),
        "ssb": tuple(serialize_presentation(p) for p in ssb),
        "cut": tuple(serialize_presentation(p) for p in cut),
    }


# Splice material: the keywords and separators of the three text formats.
# A splice adds at most one digit, so with at most two splices a
# multiplicity stays below 1000 and quick to expand.
TOKENS = [
    "", "\n", " ", "=", ",", "@", ".", "(", ")", "0", "1", "2", "x", "mult=",
    "bvertex", "bedge", "order", "vertex", "arrow", "rel", "mono", "comm",
    "point", "bseg", "arc", "triangle", "b(a0)",
]


@st.composite
def mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 12)))
        text = text[:i] + draw(st.sampled_from(TOKENS)) + text[j:]
    return text


# argv with "{0}", "{1}" for input files and "{cut}" for a list of arrow
# names, and the text kind of each file
FUZZ_COMMANDS = [
    (["validate", "--kind", "alg", "{0}"], ["ssb"]),
    (["validate", "--kind", "gentle", "{0}"], ["gentle"]),
    (["validate", "--kind", "ssb", "{0}"], ["ssb"]),
    (["validate", "--kind", "bg", "{0}"], ["bg"]),
    (["validate", "--kind", "tri", "{0}"], ["tri"]),
    (["convert", "--mode", "bg-to-alg", "{0}"], ["bg"]),
    (["convert", "--mode", "alg-to-bg", "--dot", "{0}"], ["ssb"]),
    (["convert", "--mode", "trivext", "{0}"], ["gentle"]),
    (["convert", "--mode", "tri-to-jacobian", "--arrow-convention", "predecessor", "{0}"], ["tri"]),
    (["convert", "--mode", "tri-to-bg", "--dot", "{0}"], ["tri"]),
    (["iso", "--kind", "bg", "{0}", "{1}"], ["bg", "bg"]),
    (["iso", "--kind", "alg", "{0}", "{1}"], ["ssb", "ssb"]),
    (["cuts", "--enumerate", "--verify", "{0}"], ["cut"]),
    (["cuts", "--cut", "{cut}", "--verify", "{0}"], ["cut"]),
    (["cuts", "--cut", "{cut}", "--dot", "{0}"], ["cut"]),
    (["dot", "--kind", "alg", "{0}"], ["gentle"]),
    (["dot", "--kind", "bg", "{0}"], ["bg"]),
    (["dot", "--kind", "tri", "{0}"], ["tri"]),
]


def main_exit_code(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.parametrize(
    "argv,kinds", FUZZ_COMMANDS, ids=[" ".join(argv[:3]) for argv, _ in FUZZ_COMMANDS]
)
@seed(20141)
@settings(
    max_examples=25,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_input_never_escapes(argv, kinds, data, tmp_path, fig1_triangulation):
    texts = {**census_texts(), "tri": (serialize_triangulation(fig1_triangulation),)}
    paths = []
    for i, kind in enumerate(kinds):
        path = tmp_path / f"input{i}"
        path.write_text(data.draw(mutated(texts[kind]), label=kind))
        paths.append(str(path))
    arrows = st.sampled_from(["h0", "h1", "h2", "h3", "a0", "a1", "b(a0)", "b(a1)", ""])
    cut = ",".join(data.draw(st.lists(arrows, min_size=1, max_size=3), label="cut"))
    assert main_exit_code([a.format(*paths, cut=cut) for a in argv]) in (0, 1, 2)


def mutate_lines(rng: random.Random, text: str) -> str:
    """``text`` with one line dropped, repeated or swapped with another, or
    with one of its tokens replaced by a splice token."""
    lines = text.splitlines() or [""]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    kind = rng.choice(["drop", "repeat", "swap", "token"])
    tokens = lines[i].split()
    if kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(j, lines[i])
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_line_mutations_exit_cleanly_in_every_command_form(tmp_path, fig1_triangulation):
    """A fixed seed drops, repeats, swaps or rewrites lines of census
    inputs; every command form exits 0, 1 or 2 on them, with no traceback.
    A ``--cut`` takes up to three arrow names of the unmutated input."""
    rng = random.Random(20141)
    texts = {**census_texts(), "tri": (serialize_triangulation(fig1_triangulation),)}
    codes = Counter()
    for argv, kinds in FUZZ_COMMANDS:
        for _ in range(200):
            paths, names = [], [""]
            for i, kind in enumerate(kinds):
                text = rng.choice(texts[kind])
                names += [x.split()[1] for x in text.splitlines() if x.startswith("arrow")]
                for _ in range(rng.randint(1, 2)):
                    text = mutate_lines(rng, text)
                path = tmp_path / f"input{i}"
                path.write_text(text)
                paths.append(str(path))
            cut = ",".join(rng.sample(names, min(len(names), rng.randint(1, 3))))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.format(*paths, cut=cut) for a in argv])
            assert code in (0, 1, 2), (argv, [Path(p).read_text() for p in paths])
            assert "Traceback" not in err.getvalue(), err.getvalue()
            codes[code] += 1
    assert sum(codes.values()) == 200 * len(FUZZ_COMMANDS) and len(codes) == 3, codes


SUITE_NAMES = ["thm-1-1", "thm-1-2", "thm-1-3", "lemma-2-1", "socle-maximal", "thm-1-4", ""]


@seed(20141)
@settings(max_examples=40, deadline=None, database=None)
@given(
    suite=st.sampled_from(SUITE_NAMES),
    sizes=st.lists(st.sampled_from(["-1", "0", "1", "2", "6", "11"]), min_size=4, max_size=4),
)
def test_check_on_any_bounds_never_escapes(suite, sizes):
    flags = ["--max-edges", "--max-mult", "--max-vertices", "--max-arrows"]
    argv = ["check", "--suite", suite, *(x for pair in zip(flags, sizes) for x in pair)]
    assert main_exit_code(argv) in (0, 1, 2)
