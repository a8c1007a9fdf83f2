import pytest

from oracles import presentations_isomorphic
from quiveralg import suites
from quiveralg.brauer import algebra_of
from quiveralg.census import connected_brauer_graphs
from quiveralg.cut import (
    CuttingSet,
    admissible_cut,
    enumerate_cutting_sets,
    verify_roundtrip,
    vertex_cycles,
)
from quiveralg.errors import CuttingSetError, MultiplicityError, ValidationError
from quiveralg.quiver import Problem
from quiveralg.trivext import trivial_extension


class TestVertexCycles:
    def test_single_arrow_extension(self, a2):
        cycles = vertex_cycles(trivial_extension(a2))
        assert cycles == [("a", "b(a)")]

    def test_fig1_extension(self, fig1_algebra):
        cycles = vertex_cycles(trivial_extension(fig1_algebra))
        assert sorted(len(c) for c in cycles) == [2, 3]
        assert {a for c in cycles for a in c} == {"p", "u", "v", "b(p)", "b(u.v)"}

    def test_line3(self, line3):
        cycles = vertex_cycles(algebra_of(line3))
        assert sorted(len(c) for c in cycles) == [2, 2]

    def test_cycles_partition_arrows(self, line3, star3, loop_graph):
        for g in (line3, star3, loop_graph):
            ssb = algebra_of(g)
            seen = [a for c in vertex_cycles(ssb) for a in c]
            assert sorted(seen) == sorted(a.name for a in ssb.quiver.arrows)


class TestEnumerate:
    def test_single_arrow_extension(self, a2):
        sets = enumerate_cutting_sets(trivial_extension(a2))
        assert [c.arrows for c in sets] == [("a",), ("b(a)",)]

    def test_fig1_has_product_count(self, fig1_algebra):
        sets = enumerate_cutting_sets(trivial_extension(fig1_algebra))
        assert len(sets) == 6
        assert len({c.arrows for c in sets}) == 6

    def test_multiplicity_refused(self, e21):
        with pytest.raises(MultiplicityError):
            enumerate_cutting_sets(algebra_of(e21))

    def test_lexicographic_order(self, line3):
        sets = enumerate_cutting_sets(algebra_of(line3))
        assert [c.arrows for c in sets] == sorted(c.arrows for c in sets)


class TestAdmissibleCut:
    def test_cut_restores_original(self, a2):
        ext = trivial_extension(a2)
        restored = admissible_cut(ext, CuttingSet(["b(a)"]))
        assert presentations_isomorphic(restored.presentation, a2.presentation)

    def test_other_cut_is_isomorphic(self, a2):
        ext = trivial_extension(a2)
        flipped = admissible_cut(ext, CuttingSet(["a"]))
        assert presentations_isomorphic(flipped.presentation, a2.presentation)

    def test_fig1_dashed_arrows(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        restored = admissible_cut(ext, CuttingSet(["b(p)", "b(u.v)"]))
        assert presentations_isomorphic(restored.presentation, fig1_algebra.presentation)

    def test_arrow_partition(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        for cut in enumerate_cutting_sets(ext):
            remaining = admissible_cut(ext, cut)
            kept = {a.name for a in remaining.quiver.arrows}
            assert kept | set(cut.arrows) == {a.name for a in ext.quiver.arrows}
            assert not (kept & set(cut.arrows))

    def test_uncut_cycle_rejected(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        with pytest.raises(CuttingSetError, match="uncut"):
            admissible_cut(ext, CuttingSet(["p"]))

    def test_doubly_cut_cycle_rejected(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        with pytest.raises(CuttingSetError, match="cut 2 times"):
            admissible_cut(ext, CuttingSet(["p", "b(p)", "u"]))

    def test_stray_arrow_rejected(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        with pytest.raises(CuttingSetError, match="not on any vertex cycle"):
            admissible_cut(ext, CuttingSet(["nope", "p", "u"]))


class TestRoundtrip:
    def test_single_arrow_both_cuts(self, a2):
        ext = trivial_extension(a2)
        assert all(
            verify_roundtrip(ext, admissible_cut(ext, c)) for c in enumerate_cutting_sets(ext)
        )

    def test_fig1_all_six(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        assert all(
            verify_roundtrip(ext, admissible_cut(ext, c)) for c in enumerate_cutting_sets(ext)
        )

    def test_line3_all_four(self, line3):
        ssb = algebra_of(line3)
        cuts = enumerate_cutting_sets(ssb)
        assert len(cuts) == 4
        assert all(verify_roundtrip(ssb, admissible_cut(ssb, c)) for c in cuts)

    def test_foreign_algebra_does_not_roundtrip(self, a2, fig1_algebra):
        assert not verify_roundtrip(trivial_extension(fig1_algebra), a2)

    def test_suite_reports_a_cut_that_is_not_gentle(self, monkeypatch):
        def not_gentle(ssb, cut):
            raise ValidationError([Problem("S1", "stand-in")])

        monkeypatch.setattr(suites, "admissible_cut", not_gentle)
        report = suites.run_suite("thm-1-3", suites.Bounds(max_edges=2))
        assert report.instances > 0
        assert {prop for _, prop, _ in report.failures} == {"cut-gentle"}

    def test_suite_reports_a_broken_trivial_extension(self, monkeypatch, star3):
        # T(A) is the algebra of the gentle graph of A: a foreign gentle
        # graph (three edges: no census graph at two edges) breaks every cut
        monkeypatch.setattr(suites, "graph_of_gentle", lambda algebra: star3)
        report = suites.run_suite("thm-1-3", suites.Bounds(max_edges=2))
        assert report.instances > 0
        assert {prop for _, prop, _ in report.failures} == {"cut-roundtrip"}
        cuts = sum(
            len(enumerate_cutting_sets(algebra_of(g)))
            for g in connected_brauer_graphs(2, 1)
        )
        assert len(report.failures) == cuts

    def test_distinct_cuts_may_give_nonisomorphic_algebras(self, fig1_algebra):
        ext = trivial_extension(fig1_algebra)
        keys = set()
        from quiveralg.census import canonical_presentation_key

        for c in enumerate_cutting_sets(ext):
            keys.add(canonical_presentation_key(admissible_cut(ext, c).presentation))
        assert len(keys) > 1  # same extension, several gentle algebras
