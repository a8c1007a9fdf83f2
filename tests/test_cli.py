"""End-to-end command line tests; everything runs in process via main()."""

import pytest

from quiveralg.brauer import parse_brauer_graph, serialize_brauer_graph, validate_brauer_graph
from quiveralg.cli import main
from quiveralg.quiver import parse_presentation, serialize_presentation
from quiveralg.surface import serialize_triangulation
from quiveralg.trivext import trivial_extension

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
    code = main(list(argv))
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

    def test_alg_witness(self, capsys, files):
        code, out, _ = run(capsys, "iso", "--kind", "alg", str(files["ta2"]), str(files["ta2"]))
        assert code == 0
        assert "vertex 1 -> 1" in out

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
        assert "unknown suite" in err

    def test_bounds_guard(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "thm-1-1", "--max-edges", "9")
        assert code == 2
        assert "bounds too large" in err

    @pytest.mark.parametrize(
        "suite,flag,value",
        [
            ("thm-1-1", "--max-edges", "-1"),
            ("thm-1-1", "--max-mult", "0"),
            ("thm-1-2", "--max-vertices", "0"),
            ("lemma-2-1", "--max-arrows", "0"),
            ("thm-1-3", "--threads", "0"),
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

    def test_identical_across_thread_counts(self, capsys):
        base = ["check", "--suite", "thm-1-1", "--max-edges", "2", "--max-mult", "2"]
        single = run(capsys, *base, "--threads", "1")
        quad = run(capsys, *base, "--threads", "4")
        assert single == quad


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


def test_dot_command_kinds(capsys, files):
    for kind, key, marker in [("alg", "a2", "digraph"), ("bg", "e21", "mult=2"), ("tri", "tri", "style=dashed")]:
        code, out, _ = run(capsys, "dot", "--kind", kind, str(files[key]))
        assert code == 0
        assert marker in out
