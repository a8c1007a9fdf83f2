import os
import random
import subprocess
import sys
from pathlib import Path

from oracles import canonical_form_oracle, isomorphism_oracle, quotient_dimension
from quiveralg.brauer import (
    BrauerGraph,
    algebra_of,
    brauer_graph_dot,
    canonical_form,
    find_isomorphism,
    is_isomorphic,
    parse_brauer_graph,
    presentation_of,
    quiver_of,
    relabel_brauer_graph,
    relations_of,
    serialize_brauer_graph,
    structural_dimension,
    validate_brauer_graph,
)
from quiveralg.quiver import Binomial, Monomial


def codes(problems):
    return {p.code for p in problems}


class TestValidate:
    def test_fixtures_pass(self, e21, line3, loop_graph, star3):
        for g in (e21, line3, loop_graph, star3):
            assert validate_brauer_graph(g) == []

    def test_excluded_single_edge(self):
        g = BrauerGraph({"u": 1, "w": 1}, {"E": ("h", "k")}, {"u": ("h",), "w": ("k",)})
        assert "degenerate" in codes(validate_brauer_graph(g))

    def test_edgeless_rejected(self):
        g = BrauerGraph({"u": 1}, {}, {"u": ()})
        assert "degenerate" in codes(validate_brauer_graph(g))

    def test_pairing_fixed_point(self):
        g = BrauerGraph({"u": 2}, {"E": ("h", "h")}, {"u": ("h",)})
        assert "pairing" in codes(validate_brauer_graph(g))

    def test_disconnected(self, e21):
        g = BrauerGraph(
            {"u": 2, "w": 1, "x": 2, "y": 1},
            {"E1": ("h1", "h2"), "E2": ("h3", "h4")},
            {"u": ("h1",), "w": ("h2",), "x": ("h3",), "y": ("h4",)},
        )
        assert "connected" in codes(validate_brauer_graph(g))

    def test_nonpositive_multiplicity(self):
        g = BrauerGraph({"u": 0, "w": 2}, {"E": ("h", "k")}, {"u": ("h",), "w": ("k",)})
        assert "multiplicity" in codes(validate_brauer_graph(g))


class TestSuccessor:
    def test_valency_one_is_its_own_successor(self, e21):
        assert e21.successor("h1") == "h1"

    def test_middle_vertex_swaps(self, line3):
        assert line3.successor("a1") == "b0"
        assert line3.successor("b0") == "a1"

    def test_loop_vertex(self, loop_graph):
        assert loop_graph.successor("h") == "k"
        assert loop_graph.successor("k") == "h"


class TestQuiverOf:
    def test_e21_one_loop(self, e21):
        q = quiver_of(e21)
        assert q.vertices == ("E1",)
        assert [(a.name, a.source, a.target) for a in q.arrows] == [("h1", "E1", "E1")]

    def test_line3_counts(self, line3):
        q = quiver_of(line3)
        assert len(q.vertices) == 3
        assert len(q.arrows) == 4

    def test_fig1_counts(self):
        g = parse_brauer_graph(FIG1_BG)
        q = quiver_of(g)
        assert len(q.vertices) == 3
        assert len(q.arrows) == 5


FIG1_BG = """
bvertex a mult=1
bvertex b mult=1
bvertex c mult=1
bedge 1 h1a@a h1c@c
bedge 2 h2a@a h2c@c
bedge 3 h3c@c h3b@b
order a = h1a,h2a
order c = h1c,h3c,h2c
order b = h3b
"""


class TestRelations:
    def test_e21_is_cube_zero(self, e21):
        rels = relations_of(e21)
        assert len(rels) == 1
        assert isinstance(rels[0], Monomial)
        assert rels[0].path.arrows == ("h1", "h1", "h1")

    def test_line3_shapes(self, line3):
        rels = relations_of(line3)
        binomials = [r for r in rels if isinstance(r, Binomial)]
        monomials = [r for r in rels if isinstance(r, Monomial)]
        assert len(binomials) == 1
        assert sorted(len(r.path) for r in monomials) == [2, 2, 3, 3]

    def test_loop_graph_kills_squares(self, loop_graph):
        rels = relations_of(loop_graph)
        squares = {r.path.arrows for r in rels if isinstance(r, Monomial)}
        assert squares == {("h", "h"), ("k", "k")}
        (binom,) = [r for r in rels if isinstance(r, Binomial)]
        assert {binom.left.arrows, binom.right.arrows} == {("h", "k"), ("k", "h")}


class TestDimensions:
    def test_micro_dimensions(self, e21, line3, loop_graph, star3):
        expected = {id(e21): 3, id(line3): 10, id(loop_graph): 4, id(star3): 12}
        for g in (e21, line3, loop_graph, star3):
            assert structural_dimension(g) == expected[id(g)]
            assert quotient_dimension(presentation_of(g)) == expected[id(g)]
            assert algebra_of(g).dimension == expected[id(g)]

    def test_formula_against_brute_force_small(self):
        from quiveralg.census import connected_brauer_graphs

        for g in connected_brauer_graphs(3, 3):
            assert quotient_dimension(presentation_of(g)) == structural_dimension(g)

    def test_formula_against_brute_force_four_edges(self):
        from quiveralg.census import connected_brauer_graphs

        for g in connected_brauer_graphs(4, 3):
            assert quotient_dimension(presentation_of(g)) == structural_dimension(g)


class TestCanonicalForm:
    def test_relabeling_invariance(self, e21, line3, loop_graph, star3):
        rng = random.Random(314159)
        for g in (e21, line3, loop_graph, star3):
            reference = canonical_form(g)
            for _ in range(100):
                assert canonical_form(relabel_brauer_graph(g, rng)) == reference

    def test_line_vs_star(self, line3, star3):
        assert not is_isomorphic(line3, star3)

    def test_multiplicity_distinguishes_loops(self, loop_graph):
        heavier = BrauerGraph({"v": 2}, {"E": ("h", "k")}, {"v": ("h", "k")})
        assert not is_isomorphic(loop_graph, heavier)

    def test_witness_mapping(self, line3):
        rng = random.Random(7)
        other = relabel_brauer_graph(line3, rng)
        mapping = find_isomorphism(line3, other)
        assert mapping is not None
        for h, image in mapping.items():
            assert line3.multiplicity(line3.vertex_of[h]) == other.multiplicity(
                other.vertex_of[h if image is None else image]
            )
            assert mapping[line3.partner[h]] == other.partner[image]
            assert mapping[line3.successor(h)] == other.successor(image)

    def test_witness_is_the_reference_witness(self):
        """The witness is the full-code reference's on every (4, 3) census
        graph against a seeded relabelled copy, both ways, and None against
        the next class."""
        from quiveralg.census import connected_brauer_graphs

        rng = random.Random(1618)
        graphs = list(connected_brauer_graphs(4, 3))
        for g, following in zip(graphs, graphs[1:] + graphs[:1]):
            copy = relabel_brauer_graph(g, rng)
            assert find_isomorphism(g, copy) == isomorphism_oracle(g, copy)
            assert find_isomorphism(copy, g) == isomorphism_oracle(copy, g)
            assert find_isomorphism(g, following) is isomorphism_oracle(g, following) is None

    def test_matches_full_minimum_over_starts(self):
        from quiveralg.census import connected_brauer_graphs

        rng = random.Random(2718)
        for bounds in ((4, 3), (5, 1)):
            for g in connected_brauer_graphs(*bounds):
                for copy in (g, relabel_brauer_graph(g, rng), relabel_brauer_graph(g, rng)):
                    assert canonical_form(copy) == canonical_form_oracle(copy)

    def test_rotation_anchor_is_irrelevant(self, line3):
        rotated = BrauerGraph(
            line3.multiplicities,
            line3.edges,
            {**line3.rotations, "v1": ("b0", "a1")},
        )
        assert canonical_form(rotated) == canonical_form(line3)


class TestTextFormat:
    def test_roundtrip(self, line3, e21, loop_graph):
        for g in (line3, e21, loop_graph):
            text = serialize_brauer_graph(g)
            back = parse_brauer_graph(text)
            assert back == g or is_isomorphic(back, g)
            assert serialize_brauer_graph(back) == text

    def test_fig1_parses(self):
        g = parse_brauer_graph(FIG1_BG)
        assert validate_brauer_graph(g) == []
        assert {v: g.valency(v) for v in g.multiplicities} == {"a": 2, "b": 1, "c": 3}

    def test_dot_stable(self, line3):
        assert brauer_graph_dot(line3) == brauer_graph_dot(line3)
        assert 'mult=1' in brauer_graph_dot(line3)


def test_arrow_count_equals_loud_half_edges(e21, line3, loop_graph, star3):
    for g in (e21, line3, loop_graph, star3):
        loud = [h for h in g.half_edges if not g.is_silent_leaf(h)]
        assert len(quiver_of(g).arrows) == len(loud)


def test_distinct_vertices_have_disjoint_cycles(line3, star3):
    for g in (line3, star3):
        by_vertex = {}
        for h in g.half_edges:
            if not g.is_silent_leaf(h):
                by_vertex.setdefault(g.vertex_of[h], set()).add(h)
        cycles = list(by_vertex.values())
        for i, c1 in enumerate(cycles):
            for c2 in cycles[i + 1 :]:
                assert not (c1 & c2)


def test_each_module_of_the_import_cycle_imports_first():
    """``brauer`` binds ``ssb_presentation`` at its end, and ``ssb`` imports
    from ``brauer``: a fresh interpreter imports either module first, and
    ``algebra_of`` then builds an algebra."""
    src = str(Path(algebra_of.__code__.co_filename).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for module in ("quiveralg.ssb", "quiveralg.brauer"):
        code = (
            f"import {module}\n"
            "from quiveralg.brauer import BrauerGraph, algebra_of\n"
            "g = BrauerGraph({'u': 2, 'v': 1}, {'e': ('p', 'q')}, {'u': ('p',), 'v': ('q',)})\n"
            "print(algebra_of(g).dimension)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.strip().isdigit()
