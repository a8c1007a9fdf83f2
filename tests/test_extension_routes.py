"""The trivial-extension suites compare each cut with its map's algebra,
renamed, where they once built and validated T(A) for every cut.  Two
checks back that route: the old route, kept here as a differential oracle,
gives the same verdict on every cut, and T(A) = A ⋉ DA, built from its
definition in ``tests/oracles.py``, is the map's algebra under the suite's
renaming."""

from oracles import extension_route_failures, quotient_dimension, semidirect_mismatches
from quiveralg import suites
from quiveralg.brauer import algebra_of
from quiveralg.census import _cuts_by_map, connected_brauer_graphs
from quiveralg.cut import admissible_cut, enumerate_cutting_sets, verify_roundtrip
from quiveralg.trivext import graph_of_gentle, trivial_extension


def _map_cuts(max_vertices: int, max_arrows: int):
    """The census cuts, each with the class count of its map's algebra,
    counted once per map."""
    for _, cuts in _cuts_by_map(max_vertices, max_arrows):
        classes = None
        for cut in cuts:
            if classes is None:
                classes = quotient_dimension(cut.ssb.presentation)
            yield cut, classes


def _four_edge_cuts():
    """Every cut of every multiplicity-one graph with at most four edges,
    with its graph and algebra: the census of the admissible-cut suite."""
    for g in connected_brauer_graphs(4, 1):
        ssb = algebra_of(g)
        for cut in enumerate_cutting_sets(ssb):
            yield g, ssb, cut, admissible_cut(ssb, cut)


def test_both_routes_hold_on_every_cut_at_four_vertices_and_six_arrows():
    count = 0
    for cut, _ in _map_cuts(4, 6):
        count += 1
        found = suites._check_trivial_extension(cut, suites.Bounds())
        assert found == [] and extension_route_failures(cut.algebra, cut.ssb) == []
    assert count == 876


def test_both_routes_hold_on_every_four_edge_cut():
    count = 0
    for g, ssb, cut, algebra in _four_edge_cuts():
        count += 1
        names = suites._renaming(g, cut, algebra)
        assert suites._is_renamed(graph_of_gentle(algebra), g, names)
        assert verify_roundtrip(ssb, algebra)
    assert count == 1239


def test_the_semidirect_product_is_the_algebra_of_every_cut_at_four_vertices_and_six_arrows():
    """The map's algebra under the suite's renaming, and T(A) as the
    library builds it, are both A ⋉ DA."""
    count = 0
    for cut, classes in _map_cuts(4, 6):
        count += 1
        algebra = cut.algebra
        names = suites._renaming(cut.graph, cut.cut, algebra)
        assert semidirect_mismatches(algebra, cut.ssb.presentation, names, classes) == []
        assert semidirect_mismatches(algebra, trivial_extension(algebra).presentation) == []
    assert count == 876


def test_the_semidirect_product_is_the_algebra_of_every_four_edge_cut():
    count, counted = 0, None
    for g, ssb, cut, algebra in _four_edge_cuts():
        count += 1
        if counted is not ssb:  # the cuts of one graph come together
            counted, classes = ssb, quotient_dimension(ssb.presentation)
        names = suites._renaming(g, cut, algebra)
        assert semidirect_mismatches(algebra, ssb.presentation, names, classes) == []
    assert count == 1239


def test_the_semidirect_product_refuses_a_renaming_broken_in_one_place():
    """Dropping one return arrow from the renaming, or swapping the return
    arrows of two cut arrows, fails the oracle on every cut at (3, 4)."""
    dropped = swapped = 0
    for cut, classes in _map_cuts(3, 4):
        algebra, pres = cut.algebra, cut.ssb.presentation
        names = suites._renaming(cut.graph, cut.cut, algebra)
        first, *others = cut.cut.arrows
        assert semidirect_mismatches(
            algebra, pres, {h: n for h, n in names.items() if h != first}, classes
        ) == [f"arrow {first} has no image"]
        dropped += 1
        if others:
            names[first], names[others[0]] = names[others[0]], names[first]
            assert semidirect_mismatches(algebra, pres, names, classes)
            swapped += 1
    assert dropped > swapped > 0
