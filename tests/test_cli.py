"""End-to-end command line tests; everything runs in process via main()."""

import contextlib
import functools
import io

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from quiveralg import suites
from quiveralg.brauer import (
    algebra_of,
    parse_brauer_graph,
    serialize_brauer_graph,
    validate_brauer_graph,
)
from quiveralg.census import connected_brauer_graphs, gentle_algebras
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

    def test_threads_option_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "thm-1-1", "--threads", "2"])
        assert exc.value.code == 2

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
