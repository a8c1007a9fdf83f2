from collections import Counter
from itertools import product

import pytest

from oracles import polygon_triangulations, presentations_isomorphic
from quiveralg.brauer import algebra_of, is_isomorphic, validate_brauer_graph
from quiveralg.cli import main
from quiveralg.cut import CuttingSet, admissible_cut
from quiveralg.errors import ValidationError
from quiveralg.gentle import nonzero_paths
from quiveralg.ssb import is_isomorphic_ssb
from quiveralg.surface import (
    Triangulation,
    _corners,
    brauer_graph_of_triangulation,
    jacobian_algebra,
    jacobian_presentation,
    parse_triangulation,
    serialize_triangulation,
    triangulation_dot,
    validate_triangulation,
)
from quiveralg.trivext import graph_of_gentle, trivial_extension


def codes(problems):
    return {p.code for p in problems}


@pytest.fixture
def hexagon():
    """Disk with six boundary points and a single internal triangle."""
    return Triangulation(
        points=[f"m{i}" for i in range(1, 7)],
        boundary_segments={
            "s1": ("m1", "m2"),
            "s2": ("m2", "m3"),
            "s3": ("m3", "m4"),
            "s4": ("m4", "m5"),
            "s5": ("m5", "m6"),
            "s6": ("m6", "m1"),
        },
        arcs={"a1": ("m1", "m3"), "a2": ("m3", "m5"), "a3": ("m5", "m1")},
        triangles={
            "ti": ("a1", "a2", "a3"),
            "tb1": ("s1", "s2", "a1"),
            "tb2": ("s3", "s4", "a2"),
            "tb3": ("s5", "s6", "a3"),
        },
    )


@pytest.fixture
def split_disk():
    """Square disk split by one arc: two triangles with two boundary sides each."""
    return Triangulation(
        points=["1", "2", "3", "4"],
        boundary_segments={
            "s1": ("1", "2"),
            "s2": ("2", "3"),
            "s3": ("3", "4"),
            "s4": ("4", "1"),
        },
        arcs={"d": ("1", "3")},
        triangles={"t1": ("d", "s3", "s4"), "t2": ("d", "s1", "s2")},
    )


class TestValidation:
    def test_annulus_ok(self, fig1_triangulation):
        assert validate_triangulation(fig1_triangulation) == []

    def test_hexagon_ok(self, hexagon):
        assert validate_triangulation(hexagon) == []

    def test_split_disk_ok(self, split_disk):
        assert validate_triangulation(split_disk) == []

    def test_misoriented_triangle_rejected(self, fig1_triangulation):
        t = fig1_triangulation
        bad = Triangulation(
            t.points,
            t.boundary_segments,
            t.arcs,
            {**t.triangles, "t3": ("2", "3", "s2")},
        )
        assert "orientation" in codes(validate_triangulation(bad))

    def test_arc_on_three_triangles(self, split_disk):
        t = split_disk
        bad = Triangulation(
            t.points,
            t.boundary_segments,
            t.arcs,
            {**t.triangles, "t3": ("d", "s1", "s2")},
        )
        assert "gluing" in codes(validate_triangulation(bad))

    def test_unknown_endpoint(self, split_disk):
        t = split_disk
        bad = Triangulation(t.points, t.boundary_segments, {"d": ("1", "zz")}, t.triangles)
        assert "points" in codes(validate_triangulation(bad))

    def test_point_off_boundary(self, split_disk):
        t = split_disk
        bad = Triangulation(
            tuple(t.points) + ("floats",), t.boundary_segments, t.arcs, t.triangles
        )
        assert "boundary" in codes(validate_triangulation(bad))

    def test_self_folded_triangle_refused(self, tmp_path, capsys):
        """One arc on two sides of a triangle folds it around a puncture,
        which these surfaces do not have: every command on it exits 2 with
        that problem, where the graph used to lose a germ."""
        text = "point a\nbseg s a a\narc 1 a a\ntriangle t = 1,1,s\n"
        problems = validate_triangulation(parse_triangulation(text))
        assert [(p.code, p.message) for p in problems] == [
            ("self-folded", "triangle 't' has arc '1' on two sides, which needs a puncture")
        ]
        path = tmp_path / "folded.tri"
        path.write_text(text)
        for argv in (
            ["validate", "--kind", "tri"],
            ["convert", "--mode", "tri-to-bg"],
            ["convert", "--mode", "tri-to-jacobian"],
            ["dot", "--kind", "tri"],
        ):
            assert main([*argv, str(path)]) == 2
            out, err = capsys.readouterr()
            assert out + err == f"{problems[0]}\n"

    def test_arcless_rejected(self):
        bad = Triangulation(["1"], {"s": ("1", "1")}, {}, {})
        assert "arcs" in codes(validate_triangulation(bad))


class TestJacobian:
    def test_annulus_matches_three_arrow_quiver(self, fig1_triangulation, fig1_algebra):
        algebra = jacobian_algebra(fig1_triangulation)
        assert len(algebra.quiver.vertices) == 3
        assert len(algebra.quiver.arrows) == 3
        assert algebra.presentation.relations == ()
        assert algebra.dimension == 7
        assert presentations_isomorphic(
            algebra.presentation, fig1_algebra.presentation
        )

    def test_annulus_arrow_directions(self, fig1_triangulation):
        quiver = jacobian_algebra(fig1_triangulation).quiver
        shapes = sorted((a.source, a.target) for a in quiver.arrows)
        assert shapes == [("1", "2"), ("1", "3"), ("3", "2")]

    def test_predecessor_convention_is_opposite(self, fig1_triangulation):
        quiver = jacobian_algebra(fig1_triangulation, "predecessor").quiver
        shapes = sorted((a.source, a.target) for a in quiver.arrows)
        assert shapes == [("2", "1"), ("2", "3"), ("3", "1")]

    def test_hexagon_three_cycle_with_relations(self, hexagon):
        algebra = jacobian_algebra(hexagon)
        assert len(algebra.quiver.arrows) == 3
        assert len(algebra.presentation.relations) == 3
        assert all(len(r.path) == 2 for r in algebra.presentation.relations)
        # three vertices, three arrows, radical square zero on the cycle
        assert len(nonzero_paths(algebra)) == 6

    def test_split_disk_degenerates_to_ground_field(self, split_disk):
        pres = jacobian_presentation(split_disk)
        assert len(pres.quiver.vertices) == 1
        assert not pres.quiver.arrows
        with pytest.raises(ValidationError):
            jacobian_algebra(split_disk)


class TestBrauerGraphOfTriangulation:
    def test_annulus_valencies_and_orders(self, fig1_triangulation):
        g = brauer_graph_of_triangulation(fig1_triangulation)
        assert validate_brauer_graph(g) == []
        assert {v: g.valency(v) for v in g.multiplicities} == {"a": 2, "b": 1, "c": 3}
        edge_orders = {
            v: tuple(g.edge_of[h] for h in seq) for v, seq in g.rotations.items()
        }
        assert edge_orders["a"] in {("1", "2"), ("2", "1")}
        assert edge_orders["b"] == ("3",)
        assert edge_orders["c"] in {("1", "3", "2"), ("3", "2", "1"), ("2", "1", "3")}

    def test_split_disk_graph_is_excluded_algebra(self, split_disk):
        g = brauer_graph_of_triangulation(split_disk)
        assert "degenerate" in codes(validate_brauer_graph(g))

    def test_hexagon_graph_is_triangle(self, hexagon):
        g = brauer_graph_of_triangulation(hexagon)
        assert validate_brauer_graph(g) == []
        assert len(g.edges) == 3
        assert sorted(g.valency(v) for v in g.multiplicities) == [2, 2, 2]


def test_graph_arrow_count_matches_valencies(fig1_triangulation, hexagon):
    """Arrows of the graph algebra = germ count minus silent leaf germs."""
    from quiveralg.brauer import quiver_of

    for t in (fig1_triangulation, hexagon):
        g = brauer_graph_of_triangulation(t)
        loud = sum(
            g.valency(v)
            for v in g.multiplicities
            if not (g.valency(v) == 1 and g.multiplicity(v) == 1)
        )
        assert len(quiver_of(g).arrows) == loud


class TestCorollaryRoundtrips:
    def test_extension_is_graph_algebra(self, fig1_triangulation, hexagon):
        for t in (fig1_triangulation, hexagon):
            algebra = jacobian_algebra(t)
            assert is_isomorphic_ssb(
                trivial_extension(algebra),
                algebra_of(brauer_graph_of_triangulation(t)),
            )

    def test_return_arrows_cut_back_to_jacobian(self, fig1_triangulation):
        algebra = jacobian_algebra(fig1_triangulation)
        ext = trivial_extension(algebra)
        original = {a.name for a in algebra.quiver.arrows}
        added = {a.name for a in ext.quiver.arrows} - original
        assert len(added) == 2
        recovered = admissible_cut(ext, CuttingSet(added))
        assert presentations_isomorphic(recovered.presentation, algebra.presentation)


def test_corners_are_the_assignment_their_definition_allows():
    """Over every triple of side endpoints on three points, at most one
    corner triple gives side ``i`` the endpoints ``corners[i-1]`` and
    ``corners[i]``, and the walk returns it, or None when there is none.
    No triple of sides on more points has an assignment."""
    points = ("p", "q", "r")
    kept_counts = Counter()
    for ends in product(product(points, repeat=2), repeat=3):
        t = Triangulation(points, {}, {str(i): pair for i, pair in enumerate(ends)}, {})
        kept = [
            c
            for c in product(points, repeat=3)
            if all(sorted(ends[i]) == sorted((c[i - 1], c[i])) for i in range(3))
        ]
        assert len(kept) <= 1
        assert _corners(t, ("0", "1", "2")) == (kept[0] if kept else None)
        kept_counts[len(kept)] += 1
    assert kept_counts == {0: 606, 1: 123}


def test_corollary_on_every_polygon_triangulation():
    """Every triangulation of the 5- to 9-gon validates, the trivial
    extension of its gentle algebra is the Brauer graph algebra of its
    arcs, and the gentle graph of that algebra is the triangulation's graph."""
    counts = Counter()
    for n in range(5, 10):
        for t in polygon_triangulations(n):
            counts[n] += 1
            assert validate_triangulation(t) == []
            algebra, graph = jacobian_algebra(t), brauer_graph_of_triangulation(t)
            assert is_isomorphic_ssb(trivial_extension(algebra), algebra_of(graph))
            assert is_isomorphic(graph_of_gentle(algebra), graph)
    assert counts == {5: 5, 6: 14, 7: 42, 8: 132, 9: 429}


class TestLoopArc:
    """Annulus with a loop arc around the core and two arcs inside it."""

    @pytest.fixture
    def loop_annulus(self):
        return Triangulation(
            points=["a", "b", "c"],
            boundary_segments={"s1": ("a", "b"), "s2": ("b", "a"), "s3": ("c", "c")},
            arcs={"l": ("a", "a"), "m": ("a", "c"), "n": ("a", "c")},
            triangles={
                "t1": ("l", "s1", "s2"),
                "t2": ("l", "m", "n"),
                "t3": ("m", "n", "s3"),
            },
        )

    def test_validates(self, loop_annulus):
        assert validate_triangulation(loop_annulus) == []

    def test_gentle_with_parallel_arrows(self, loop_annulus):
        algebra = jacobian_algebra(loop_annulus)
        shapes = sorted((a.source, a.target) for a in algebra.quiver.arrows)
        assert shapes == [("l", "m"), ("m", "n"), ("m", "n"), ("n", "l")]
        assert len(algebra.presentation.relations) == 3  # the internal triangle
        assert algebra.dimension == 10

    def test_graph_has_loop_at_base_point(self, loop_annulus):
        g = brauer_graph_of_triangulation(loop_annulus)
        assert validate_brauer_graph(g) == []
        h, k = g.edges["l"]
        assert g.vertex_of[h] == g.vertex_of[k] == "a"
        # the loop germs are separated by the two enclosed arcs
        order = g.rotations["a"]
        assert abs(order.index(h) - order.index(k)) == 3

    def test_corollary_roundtrip(self, loop_annulus):
        algebra = jacobian_algebra(loop_annulus)
        ext = trivial_extension(algebra)
        assert ext.dimension == 20
        assert is_isomorphic_ssb(
            ext, algebra_of(brauer_graph_of_triangulation(loop_annulus))
        )

    def test_graph_text_roundtrip(self, loop_annulus):
        from quiveralg.brauer import parse_brauer_graph, serialize_brauer_graph

        g = brauer_graph_of_triangulation(loop_annulus)
        text = serialize_brauer_graph(g)
        assert serialize_brauer_graph(parse_brauer_graph(text)) == text


class TestTextFormat:
    def test_roundtrip(self, fig1_triangulation, hexagon, split_disk):
        for t in (fig1_triangulation, hexagon, split_disk):
            text = serialize_triangulation(t)
            back = parse_triangulation(text)
            assert serialize_triangulation(back) == text
            assert validate_triangulation(back) == validate_triangulation(t)

    def test_annulus_text(self, fig1_triangulation):
        text = serialize_triangulation(fig1_triangulation)
        assert "triangle t1 = 1,2,s3" in text
        assert "bseg s3 c c" in text

    def test_annulus_dot(self, fig1_triangulation, tmp_path, capsys):
        expected = (
            "graph triangulation {\n"
            '  "a";\n'
            '  "b";\n'
            '  "c";\n'
            '  "a" -- "c" [label="1"];\n'
            '  "a" -- "c" [label="2"];\n'
            '  "c" -- "b" [label="3"];\n'
            '  "a" -- "b" [label="s1", style=dashed];\n'
            '  "b" -- "a" [label="s2", style=dashed];\n'
            '  "c" -- "c" [label="s3", style=dashed];\n'
            "}\n"
        )
        assert triangulation_dot(fig1_triangulation) == expected
        path = tmp_path / "fig1.tri"
        path.write_text(serialize_triangulation(fig1_triangulation))
        assert main(["dot", "--kind", "tri", str(path)]) == 0
        assert capsys.readouterr().out == expected
