import pytest

from oracles import (
    quotient_dimension,
    reference_projective_basis,
    reference_projectives_oracle,
    zero_test_mismatches,
)
from quiveralg import trivext
from quiveralg.brauer import BrauerGraph, algebra_of, is_isomorphic, validate_brauer_graph
from quiveralg.census import connected_brauer_graphs, gentle_algebras
from quiveralg.errors import InconsistencyError
from quiveralg.gentle import vertex_occurrences
from quiveralg.quiver import (
    Arrow,
    Binomial,
    Monomial,
    Path,
    Presentation,
    Quiver,
    path_sort_key,
    serialize_presentation,
)
from quiveralg.ssb import SSBPresentation, graph_of_ssb, projective_basis
from quiveralg.trivext import (
    extension_of_graph,
    graph_of_gentle,
    projectives_oracle,
    trivial_extension,
)


def _label(key: tuple) -> str:
    """The label of the path whose ``path_sort_key`` is ``key``."""
    _, word, itinerary = key
    return Path(itinerary, word).label()


class TestGentleGraph:
    def test_single_arrow_gives_two_edge_path(self, a2, line3):
        graph = graph_of_gentle(a2)
        assert validate_brauer_graph(graph) == []
        assert len(graph.edges) == 2
        assert sorted(graph.valency(v) for v in graph.multiplicities) == [1, 1, 2]

    def test_a3r_gives_three_edge_path(self, a3r, line3):
        assert is_isomorphic(graph_of_gentle(a3r), line3)

    def test_loopx_gives_loop_graph(self, loopx, loop_graph):
        assert is_isomorphic(graph_of_gentle(loopx), loop_graph)

    def test_multiplicities_all_one(self, a2, a3r, loopx, fig1_algebra):
        for algebra in (a2, a3r, loopx, fig1_algebra):
            assert set(graph_of_gentle(algebra).multiplicities.values()) == {1}

    def test_labels(self, fig1_algebra):
        """Each graph vertex is named after its maximal path, and each edge
        after its quiver vertex."""
        graph = graph_of_gentle(fig1_algebra)
        stations = {trivext._station_name(m): m for m in fig1_algebra.extended_maximal_paths}
        assert set(graph.rotations) == set(stations)
        assert {m.label() for m in stations.values()} == {"p", "u v", "e(3)"}
        assert set(graph.edges) == {"1", "2", "3"}

    def test_fan_valencies(self, a3r, fig1_algebra):
        # a maximal path of length n spans a fan of n+1 germs
        for algebra in (a3r, fig1_algebra):
            graph = graph_of_gentle(algebra)
            for m in algebra.extended_maximal_paths:
                expected = len(m.arrows) + 1 if not m.is_trivial() else 1
                assert graph.valency(trivext._station_name(m)) == expected

    def test_edges_join_the_slots_in_path_order(self):
        """Each edge of the gentle graph is the germs at its quiver vertex's two
        maximal-path slots, ordered by the path's ``path_sort_key``, then by
        slot; the graph vertices come in the order of the extended maximal
        paths."""
        station = trivext._station_name
        for algebra in gentle_algebras(4, 6):
            graph = graph_of_gentle(algebra)
            rotations = graph.rotations
            assert list(rotations) == [station(m) for m in algebra.extended_maximal_paths]
            for v, occurrences in vertex_occurrences(algebra).items():
                ordered = sorted(occurrences, key=lambda it: (path_sort_key(it[0]), it[1]))
                assert graph.edges[v] == tuple(rotations[station(m)][k] for m, k in ordered)


class TestExtendedQuiver:
    def test_single_arrow(self, a2):
        eq = trivial_extension(a2).quiver
        arrows = {(a.name, a.source, a.target) for a in eq.arrows}
        assert arrows == {("a", "1", "2"), ("b(a)", "2", "1")}

    def test_counts(self, a3r, fig1_algebra):
        assert len(trivial_extension(a3r).quiver.arrows) == 4
        assert len(trivial_extension(fig1_algebra).quiver.arrows) == 5

    def test_return_names_avoid_collisions(self, a2):
        names = a2.return_arrow_names
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

    def test_renamed_return_germ_is_refused(self, fig1_algebra):
        """The return arrows are named by the algebra, not read off the graph:
        a gentle graph whose last germ at one station is renamed still builds
        a Brauer graph algebra, but its quiver is not the extended quiver."""
        g = graph_of_gentle(fig1_algebra)
        station, germs = next((s, r) for s, r in g.rotations.items() if len(r) > 1)
        old, new = germs[-1], "renamed"
        rotations = {**g.rotations, station: germs[:-1] + (new,)}
        edges = {e: tuple(new if h == old else h for h in pair) for e, pair in g.edges.items()}
        renamed = BrauerGraph(g.multiplicities, edges, rotations)
        assert validate_brauer_graph(renamed) == []
        with pytest.raises(InconsistencyError, match="extended quiver"):
            extension_of_graph(fig1_algebra, renamed)

    @pytest.mark.parametrize("change", ["reversed", "extra"])
    def test_a_changed_extension_quiver_is_refused(self, monkeypatch, change):
        """The quiver of T(A) is compared arrow by arrow with the arrows of A
        and one return arrow per maximal path: on every algebra with at most
        three vertices and three arrows, a T(A) with one of its arrows that
        is not a loop reversed, or with one arrow more, first or last in name
        order, is refused."""
        refused = 0
        for algebra in gentle_algebras(3, 3):
            graph = graph_of_gentle(algebra)
            ext = trivial_extension(algebra)
            vertices, arrows = ext.quiver.vertices, ext.quiver.arrows
            if change == "extra":
                variants = [[*arrows, Arrow(name, vertices[0], vertices[-1])] for name in "az"]
            else:
                variants = [
                    [Arrow(x.name, x.target, x.source) if x is a else x for x in arrows]
                    for a in arrows
                    if not a.is_loop()
                ]
            for variant in variants:
                pres = Presentation(Quiver(vertices, variant))
                changed = SSBPresentation(pres, ext.projectives, ext.cycle_families)
                monkeypatch.setattr(trivext, "algebra_of", lambda g: changed)
                with pytest.raises(InconsistencyError, match="extended quiver"):
                    extension_of_graph(algebra, graph)
                refused += 1
            monkeypatch.undo()
            extension_of_graph(algebra, graph)  # the unchanged quiver passes
        assert refused > 20

    def test_dimension_doubles(self, a2, a3r, loopx, fig1_algebra):
        for algebra in (a2, a3r, loopx, fig1_algebra):
            assert trivial_extension(algebra).dimension == 2 * algebra.dimension

    def test_fig1_dimension_oracle(self, fig1_algebra):
        assert quotient_dimension(trivial_extension(fig1_algebra).presentation) == 14


class TestProjectivesOracle:
    def test_single_arrow(self, a2):
        assert [_label(k) for k in projectives_oracle(a2, "1")] == ["e(1)", "a", "a b(a)"]

    def test_loopx(self, loopx):
        labels = [_label(k) for k in projectives_oracle(loopx, "1")]
        # the socle is represented by either glued cycle; b(x) x is the canonical pick
        assert labels == ["e(1)", "b(x)", "x", "b(x) x"]

    def test_fig1_vertex_three(self, fig1_algebra):
        labels = [_label(k) for k in projectives_oracle(fig1_algebra, "3")]
        assert labels == ["e(3)", "v", "v b(u.v)", "v b(u.v) u"]

    @pytest.mark.parametrize("name", ["a2", "a3r", "loopx", "fig1_algebra"])
    def test_oracle_matches_per_vertex(self, name, request):
        algebra = request.getfixturevalue(name)
        ext = trivial_extension(algebra)
        for v in algebra.quiver.vertices:
            assert projectives_oracle(algebra, v) == projective_basis(ext, v)


class TestGraphForm:
    def test_graph_of_extension_is_gentle_graph(self, a2, a3r, loopx, fig1_algebra):
        for algebra in (a2, a3r, loopx, fig1_algebra):
            assert is_isomorphic(
                graph_of_ssb(trivial_extension(algebra)), graph_of_gentle(algebra)
            )


def _keys(paths) -> list[tuple]:
    return [path_sort_key(p) for p in paths]


def test_bases_agree_with_the_reference_bases():
    """Both keyed bases against the keys of the ``Path``-per-prefix builds
    they replaced, tuple for tuple: at every vertex of the (4, 6) census and of
    its trivial extensions, and at every vertex of the Brauer graph
    algebras with at most three edges and multiplicity three, whose cycles
    include powers, loops and uniserial projectives."""
    count = 0
    for algebra in gentle_algebras(4, 6):
        ext = trivial_extension(algebra)
        for v in algebra.quiver.vertices:
            count += 1
            glued = reference_projectives_oracle(algebra, v)
            assert projectives_oracle(algebra, v) == _keys(glued)
            assert projective_basis(ext, v) == _keys(reference_projective_basis(ext, v))
    for g in connected_brauer_graphs(3, 3):
        ssb = algebra_of(g)
        for v in ssb.quiver.vertices:
            assert projective_basis(ssb, v) == _keys(reference_projective_basis(ssb, v))
    assert count > 0


def test_word_zero_test_agrees_with_the_reference_on_paths():
    """The word-level zero test against the reference test on paths, on
    the nonzero paths of every algebra of the (4, 6) census and on the
    projective bases of its trivial extension, whose socle relations are
    monomials of length three or more, each extended by one arrow on
    either side."""
    count = long_hits = 0
    for algebra in gentle_algebras(4, 6):
        found, hits = zero_test_mismatches(algebra)
        assert found == [], serialize_presentation(algebra.presentation)
        count += 1
        long_hits += hits
    assert count == 876 and long_hits > count
