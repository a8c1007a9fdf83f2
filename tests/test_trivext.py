import pytest

from oracles import quotient_dimension
from quiveralg.brauer import is_isomorphic, validate_brauer_graph
from quiveralg.quiver import Binomial, Monomial
from quiveralg.ssb import graph_of_ssb, projective_basis
from quiveralg.trivext import (
    extended_quiver,
    graph_of_gentle,
    projectives_oracle,
    return_arrow_names,
    trivial_extension,
)


class TestGentleGraph:
    def test_single_arrow_gives_two_edge_path(self, a2, line3):
        gg = graph_of_gentle(a2)
        assert validate_brauer_graph(gg.graph) == []
        assert len(gg.graph.edges) == 2
        assert sorted(gg.graph.valency(v) for v in gg.graph.multiplicities) == [1, 1, 2]

    def test_a3r_gives_three_edge_path(self, a3r, line3):
        gg = graph_of_gentle(a3r)
        assert is_isomorphic(gg.graph, line3)

    def test_loopx_gives_loop_graph(self, loopx, loop_graph):
        gg = graph_of_gentle(loopx)
        assert is_isomorphic(gg.graph, loop_graph)

    def test_multiplicities_all_one(self, a2, a3r, loopx, fig1_algebra):
        for algebra in (a2, a3r, loopx, fig1_algebra):
            gg = graph_of_gentle(algebra)
            assert set(gg.graph.multiplicities.values()) == {1}

    def test_labels(self, fig1_algebra):
        gg = graph_of_gentle(fig1_algebra)
        labelled = {m.label() for m in gg.label_of.values()}
        assert labelled == {"p", "u v", "e(3)"}
        assert dict(gg.edge_labels) == {"1": "1", "2": "2", "3": "3"}

    def test_fan_valencies(self, a3r, fig1_algebra):
        # a maximal path of length n spans a fan of n+1 germs
        for algebra in (a3r, fig1_algebra):
            gg = graph_of_gentle(algebra)
            by_label = {gg.label_of[v]: v for v in gg.graph.multiplicities}
            for m, station in by_label.items():
                expected = len(m.arrows) + 1 if not m.is_trivial() else 1
                assert gg.graph.valency(station) == expected


class TestExtendedQuiver:
    def test_single_arrow(self, a2):
        eq = extended_quiver(a2)
        arrows = {(a.name, a.source, a.target) for a in eq.arrows}
        assert arrows == {("a", "1", "2"), ("b(a)", "2", "1")}

    def test_counts(self, a3r, fig1_algebra):
        assert len(extended_quiver(a3r).arrows) == 4
        assert len(extended_quiver(fig1_algebra).arrows) == 5

    def test_return_names_avoid_collisions(self, a2):
        names = return_arrow_names(a2)
        assert set(names.values()).isdisjoint({a.name for a in a2.quiver.arrows})


class TestTrivialExtension:
    def test_single_arrow_relations_and_dimension(self, a2):
        ext = trivial_extension(a2)
        words = sorted(r.path.arrows for r in ext.presentation.relations if isinstance(r, Monomial))
        assert words == [("a", "b(a)", "a"), ("b(a)", "a", "b(a)")]
        assert ext.dimension == 6
        assert quotient_dimension(ext.presentation) == 6

    def test_loopx(self, loopx):
        ext = trivial_extension(loopx)
        binomials = [r for r in ext.presentation.relations if isinstance(r, Binomial)]
        assert len(binomials) == 1
        assert ext.dimension == 4

    def test_fig1_relations(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        binomials = {
            frozenset((r.left.arrows, r.right.arrows))
            for r in ext.presentation.relations
            if isinstance(r, Binomial)
        }
        assert binomials == {
            frozenset({("p", "b(p)"), ("u", "v", "b(u.v)")}),
            frozenset({("b(p)", "p"), ("b(u.v)", "u", "v")}),
        }
        monomials = {r.path.arrows for r in ext.presentation.relations if isinstance(r, Monomial)}
        assert monomials == {
            ("v", "b(u.v)", "u", "v"),
            ("p", "b(u.v)"),
            ("b(p)", "u"),
            ("v", "b(p)"),
            ("b(u.v)", "p"),
        }

    def test_dimension_doubles(self, a2, a3r, loopx, fig1_algebra):
        for algebra in (a2, a3r, loopx, fig1_algebra):
            assert trivial_extension(algebra).dimension == 2 * algebra.dimension

    def test_fig1_dimension_oracle(self, fig1_algebra):
        assert quotient_dimension(trivial_extension(fig1_algebra).presentation) == 14


class TestProjectivesOracle:
    def test_single_arrow(self, a2):
        assert [p.label() for p in projectives_oracle(a2, "1")] == ["e(1)", "a", "a b(a)"]

    def test_loopx(self, loopx):
        labels = [p.label() for p in projectives_oracle(loopx, "1")]
        # the socle is represented by either glued cycle; b(x) x is the canonical pick
        assert labels == ["e(1)", "b(x)", "x", "b(x) x"]

    def test_fig1_vertex_three(self, fig1_algebra):
        labels = [p.label() for p in projectives_oracle(fig1_algebra, "3")]
        assert labels == ["e(3)", "v", "v b(u.v)", "v b(u.v) u"]

    @pytest.mark.parametrize("name", ["a2", "a3r", "loopx", "fig1_algebra"])
    def test_oracle_matches_per_vertex(self, name, request):
        algebra = request.getfixturevalue(name)
        ext = trivial_extension(algebra)
        for v in algebra.quiver.vertices:
            assert set(projectives_oracle(algebra, v)) == set(projective_basis(ext, v))


class TestGraphForm:
    def test_graph_of_extension_is_gentle_graph(self, a2, a3r, loopx, fig1_algebra):
        for algebra in (a2, a3r, loopx, fig1_algebra):
            assert is_isomorphic(
                graph_of_ssb(trivial_extension(algebra)), graph_of_gentle(algebra).graph
            )
