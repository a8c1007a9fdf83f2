from collections import Counter
from dataclasses import replace

import pytest

from oracles import (
    gentle_quivers,
    nonzero_paths_by_compose,
    one_place_breaks,
    reference_validate_gentle,
    relation_products,
    socle_by_all_arrows,
)
from quiveralg import suites
from quiveralg.brauer import algebra_of
from quiveralg.census import _Cut, connected_brauer_graphs, gentle_algebras
from quiveralg.cut import admissible_cut, enumerate_cutting_sets
from quiveralg.errors import ValidationError
from quiveralg.gentle import (
    gentle_algebra,
    nonzero_paths,
    socle_basis,
    validate_gentle,
    validate_special_biserial,
    vertex_occurrences,
)
from quiveralg.quiver import Presentation, Quiver, path_sort_key


def codes(problems):
    return {p.code for p in problems}


class TestSpecialBiserial:
    def test_single_arrow_passes(self):
        pres = Presentation(Quiver(["1", "2"], [("a", "1", "2")]), [])
        assert validate_special_biserial(pres) == []

    def test_three_outgoing_is_s1(self):
        q = Quiver(["0", "1", "2", "3"], [(f"a{i}", "0", str(i + 1)) for i in range(3)])
        assert "S1" in codes(validate_special_biserial(Presentation(q, [])))

    def test_two_allowed_successors_is_s2(self):
        q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")])
        assert "S2" in codes(validate_special_biserial(Presentation(q, [])))


class TestValidateGentle:
    def test_a3r_is_gentle(self, a3r):
        assert a3r.presentation.quiver.vertices == ("1", "2", "3")

    def test_loop_with_square_zero_is_gentle(self, loopx):
        assert [p.arrows for p in loopx.maximal_paths] == [("x",)]

    def test_relation_free_loop_rejected(self):
        pres = Presentation(Quiver(["1"], [("x", "1", "1")]), [])
        assert "finite" in codes(validate_gentle(pres).problems)

    def test_longer_relation_free_cycle_rejected(self):
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
        assert "finite" in codes(validate_gentle(Presentation(q, [])).problems)

    def test_binomial_rejected(self, loop_graph):
        pres = algebra_of(loop_graph).presentation
        assert "S3" in codes(validate_gentle(pres).problems)

    def test_disconnected_rejected(self):
        q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "3", "4")])
        assert "connected" in codes(validate_gentle(Presentation(q, [])).problems)

    def test_degenerate_rejected(self):
        assert "degenerate" in codes(validate_gentle(Presentation(Quiver([], []), [])).problems)
        one = Presentation(Quiver(["1"], []), [])
        assert "degenerate" in codes(validate_gentle(one).problems)

    def test_raising_variant(self):
        with pytest.raises(ValidationError):
            gentle_algebra(Presentation(Quiver(["1"], [("x", "1", "1")]), []))


class TestNonzeroPaths:
    def test_a3r_dimension_five(self, a3r):
        paths = nonzero_paths(a3r)
        assert len(paths) == 5
        assert a3r.dimension == 5

    def test_loopx_dimension_two(self, loopx):
        assert {word for _, word, _ in nonzero_paths(loopx)} == {(), ("x",)}

    def test_fig1_dimension_seven(self, fig1_algebra):
        paths = nonzero_paths(fig1_algebra)
        assert len(paths) == 7
        assert paths == [
            (0, (), ("1",)),
            (0, (), ("2",)),
            (0, (), ("3",)),
            (1, ("p",), ("1", "2")),
            (1, ("u",), ("1", "3")),
            (1, ("v",), ("3", "2")),
            (2, ("u", "v"), ("1", "3", "2")),
        ]


class TestMaximalPaths:
    def test_a3r(self, a3r):
        assert {p.arrows for p in a3r.maximal_paths} == {("a",), ("b",)}

    def test_single_arrow(self, a2):
        assert {p.arrows for p in a2.maximal_paths} == {("a",)}

    def test_arrows_partition_into_maximal_paths(self, a3r, loopx, fig1_algebra):
        for alg in (a3r, loopx, fig1_algebra):
            seen = [n for m in alg.maximal_paths for n in m.arrows]
            assert sorted(seen) == sorted(a.name for a in alg.quiver.arrows)


class TestExtendedMaximalPaths:
    def test_single_arrow_gets_both_trivials(self, a2):
        labels = {p.label() for p in a2.extended_maximal_paths}
        assert labels == {"a", "e(1)", "e(2)"}

    def test_a3r_excludes_middle_vertex(self, a3r):
        labels = {p.label() for p in a3r.extended_maximal_paths}
        assert labels == {"a", "b", "e(1)", "e(3)"}

    def test_loopx_adds_nothing(self, loopx):
        assert [p.label() for p in loopx.extended_maximal_paths] == ["x"]

    def test_every_vertex_has_two_occurrences(self, a3r, loopx, a2, fig1_algebra):
        for alg in (a3r, loopx, a2, fig1_algebra):
            occ = vertex_occurrences(alg)
            assert all(len(v) == 2 for v in occ.values())

    def test_every_census_vertex_has_two_occurrences(self):
        """validate_gentle does not count the slots; the local conditions
        imply two per vertex, here on every algebra at (4, 6)."""
        count = 0
        for algebra in gentle_algebras(4, 6):
            occ = vertex_occurrences(algebra)
            assert all(len(slots) == 2 for slots in occ.values()), algebra.presentation
            count += 1
        assert count == 876

    def test_loop_vertex_occurs_twice_on_one_path(self, loopx):
        occ = vertex_occurrences(loopx)["1"]
        assert [slot for _, slot in occ] == [0, 1]


class TestSocle:
    def test_a3r(self, a3r):
        assert {p.arrows for p in socle_basis(a3r)} == {("a",), ("b",)}

    def test_loopx(self, loopx):
        assert {p.arrows for p in socle_basis(loopx)} == {("x",)}

    def test_fig1(self, fig1_algebra):
        assert {p.label() for p in socle_basis(fig1_algebra)} == {"p", "u v"}

    def test_socle_equals_maximal_on_fixtures(self, a3r, loopx, a2, fig1_algebra):
        for alg in (a3r, loopx, a2, fig1_algebra):
            assert set(socle_basis(alg)) == set(alg.maximal_paths)

    def test_trivial_path_never_in_socle(self, fig1_algebra):
        assert all(not p.is_trivial() for p in socle_basis(fig1_algebra))

    def test_suite_check_holds_on_fixtures(self, a3r, loopx, a2, fig1_algebra):
        for alg in (a3r, loopx, a2, fig1_algebra):
            assert suites._check_socle_maximal(alg, suites.Bounds()) == []

    def test_suite_reports_each_corrupted_property(self, fig1_algebra):
        p, uv = sorted(fig1_algebra.maximal_paths, key=len)
        q = fig1_algebra.quiver
        # u and v in place of u v: the socle and the chain count both differ
        split = replace(fig1_algebra, maximal_paths=(p, q.path(["u"]), q.path(["v"])))
        # p listed twice: the same set as the socle, one chain too many
        doubled = replace(fig1_algebra, maximal_paths=(p, uv, p))
        bounds = suites.Bounds()
        assert [prop for prop, _ in suites._check_socle_maximal(split, bounds)] == [
            "socle-basis",
            "dimension",
        ]
        assert suites._check_socle_maximal(doubled, bounds) == [
            ("dimension", "7 nonzero paths, 8 from the maximal paths")
        ]

    def test_suite_reports_a_dimension_failure(self, monkeypatch, fig1_algebra):
        p, uv = sorted(fig1_algebra.maximal_paths, key=len)
        doubled = replace(fig1_algebra, maximal_paths=(p, uv, p))
        cut = _Cut(doubled, None, None, None)  # the suite reads the cut's algebra only
        monkeypatch.setattr(suites, "_cuts_by_map", lambda *bounds: iter([(1, (cut,))]))
        report = suites.run_suite("lemma-2-1", suites.Bounds())
        assert report.instances == 1
        assert [prop for _, prop, _ in report.failures] == ["dimension"]


def _cuts_of_four_edge_graphs():
    for g in connected_brauer_graphs(4, 1):
        ssb = algebra_of(g)
        for cut in enumerate_cutting_sets(ssb):
            yield admissible_cut(ssb, cut)


ORACLE_CENSUSES = {
    "gentle-4-6": lambda: gentle_algebras(4, 6),
    "gentle-5-5": lambda: gentle_algebras(5, 5),
    "cuts-4-1": _cuts_of_four_edge_graphs,
}


@pytest.mark.parametrize("census", sorted(ORACLE_CENSUSES))
def test_nonzero_basis_and_socle_match_their_oracles(census):
    """The per-algebra basis against the compose-built enumeration, and the
    socle tested at the path ends against the scan over every arrow."""
    count = 0
    for algebra in ORACLE_CENSUSES[census]():
        count += 1
        expected = nonzero_paths_by_compose(algebra)
        assert nonzero_paths(algebra) == [path_sort_key(p) for p in expected]
        assert algebra.dimension == len(expected)
        assert socle_basis(algebra) == socle_by_all_arrows(algebra)
    assert count > 0


def test_validator_agrees_with_the_reference_validator():
    """The one-pass validator against the worded validator it replaced:
    equal problems, codes and messages in order, on every presentation of
    the relation products of the gentle-degree quivers with at most four
    vertices (valid or not), each broken in one place, with at most three
    vertices also broken in two places, and the degenerate quivers; equal
    maximal paths when there are no problems.  The two-place breaks mix the
    codes of different checks, which pins the order between the checks."""
    corpus = [Presentation(Quiver([], []), []), Presentation(Quiver(["1"], []), [])]
    for n in range(1, 5):
        for quiver, _ in gentle_quivers(n, 2 * n - 1):
            for pres in relation_products(quiver):
                corpus.append(pres)
                for broken in one_place_breaks(pres):
                    corpus.append(broken)
                    if n <= 3:
                        corpus.extend(one_place_breaks(broken))
    seen, mixes = Counter(), set()
    for pres in corpus:
        report, expected = validate_gentle(pres), reference_validate_gentle(pres)
        found = [(p.code, p.message) for p in report.problems]
        assert found == [(p.code, p.message) for p in expected.problems], pres
        seen.update(code for code, _ in found)
        mixes.add(tuple(dict.fromkeys(code for code, _ in found)))
        if not found:
            seen["gentle"] += 1
            assert report.algebra.maximal_paths == expected.algebra.maximal_paths
            assert report.algebra.extended_maximal_paths == expected.algebra.extended_maximal_paths
    assert set(seen) == {"gentle", "degenerate", "connected", "S1", "S2", "S3", "S4", "finite"}
    assert {("connected", "S3"), ("S3", "S1", "S2"), ("S2", "S4")} <= mixes
