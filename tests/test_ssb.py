import random
from collections import Counter
from dataclasses import replace
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import given, strategies as st

from oracles import (
    brute_force_ssb_isomorphism,
    carries_bases,
    p_cycle,
    reference_validate_ssb,
    relabel_presentation,
    ssb_isomorphisms,
)
from quiveralg.brauer import algebra_of, is_isomorphic, presentation_of
from quiveralg.census import connected_brauer_graphs
from quiveralg.cut import admissible_cut, enumerate_cutting_sets
from quiveralg.errors import InconsistencyError, ValidationError
from quiveralg.gentle import _allowed_walk, validate_special_biserial
from quiveralg.quiver import (
    Binomial,
    Monomial,
    Path,
    Presentation,
    Quiver,
    compose,
    parse_presentation,
    rotate,
    serialize_presentation,
)
from quiveralg.ssb import (
    _least_period,
    _least_rotation,
    find_ssb_isomorphism,
    graph_of_ssb,
    is_isomorphic_ssb,
    projective_basis,
    projective_dimension,
    ssb_presentation,
    validate_ssb,
)
from quiveralg.trivext import trivial_extension


def codes(problems):
    return {p.code for p in problems}


@pytest.fixture
def bouquet():
    return Quiver(["v"], [("x", "v", "v"), ("y", "v", "v"), ("z", "v", "v")])


def least_rotation(p: Path) -> Path:
    return rotate(p, _least_rotation(p.arrows))


class TestSimpleCycles:
    def test_square_of_loop(self):
        assert _least_period(("x", "x")) == 1

    def test_square_of_two_cycle(self):
        assert _least_period(("x", "y", "x", "y")) == 2

    def test_primitive_three_cycle(self):
        assert _least_period(("x", "y", "z")) == 3

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=3))
    def test_exponent_times_primitive_length(self, reps, base):
        word = tuple(f"x{i}" for i in range(base)) * reps
        period = _least_period(word)
        assert len(word) % period == 0
        assert word == word[:period] * (len(word) // period)
        assert (len(word) // period) % reps == 0  # base word may itself repeat


class TestPCycle:
    def test_trivial(self):
        assert p_cycle(Path(("1",), ())) == ("1",)

    def test_loop_square_collapses(self, bouquet):
        assert p_cycle(bouquet.path(["x", "x"])) == ("v",)

    def test_fig1_cycle(self, fig1_algebra):
        from quiveralg.trivext import trivial_extension

        ext = trivial_extension(fig1_algebra)
        w = ext.quiver.path(["u", "v", "b(u.v)"])
        assert p_cycle(w) == ("1", "3", "2")

    def test_loop_graph_vertex_twice(self, loop_graph):
        ssb = algebra_of(loop_graph)
        first = ssb.projective_at["E"].first
        assert p_cycle(first) == ("E", "E")


class TestRotationClass:
    def test_lexicographic_least(self, bouquet):
        assert least_rotation(bouquet.path(["y", "x"])).arrows == ("x", "y")

    def test_idempotent(self, bouquet):
        p = bouquet.path(["x", "y"])
        assert least_rotation(least_rotation(p)) == least_rotation(p)

    def test_orbit_collapses(self, bouquet):
        p = bouquet.path(["x", "y", "z"])
        reps = {least_rotation(rotate(p, k)) for k in range(3)}
        assert len(reps) == 1

    def test_least_over_all_rotations(self):
        for g in connected_brauer_graphs(3, 3):
            pres = algebra_of(g).presentation
            cycles = [side for r in pres.binomials for side in r.paths()]
            cycles += [m.prefix(len(m) - 1) for m in pres.long_monomials]
            for p in cycles:
                least = min((rotate(p, k) for k in range(len(p))), key=lambda r: r.arrows)
                assert least_rotation(p) == least

    def test_rotation_preserves_exponent(self, bouquet):
        p = bouquet.path(["x", "y", "x", "y"])
        for k in range(4):
            assert _least_period(rotate(p, k).arrows) == 2


class TestValidateSSB:
    def test_e21_descriptor(self, e21):
        ssb = algebra_of(e21)
        d = ssb.projective_at["E1"]
        assert d.first.arrows == ("h1", "h1")
        assert d.second.is_trivial()

    def test_loop_graph_descriptor(self, loop_graph):
        d = algebra_of(loop_graph).projective_at["E"]
        assert {d.first.arrows, d.second.arrows} == {("h", "k"), ("k", "h")}

    def test_gentle_input_rejected(self, a3r):
        report = validate_ssb(a3r.presentation)
        assert report.algebra is None
        assert "projectives" in codes(report.problems)

    def test_dual_numbers_rejected(self):
        from quiveralg.quiver import Monomial, Presentation

        q = Quiver(["1"], [("x", "1", "1")])
        report = validate_ssb(Presentation(q, [Monomial(q.path(["x", "x"]))]))
        assert "degenerate" in codes(report.problems)

    def test_ground_field_rejected(self):
        from quiveralg.quiver import Presentation

        report = validate_ssb(Presentation(Quiver(["1"], []), []))
        assert "degenerate" in codes(report.problems)

    def test_missing_offcycle_relation_rejected(self, loop_graph):
        from quiveralg.quiver import Presentation

        pres = algebra_of(loop_graph).presentation
        thinned = Presentation(
            pres.quiver, [r for r in pres.relations if not _is_square(r)]
        )
        report = validate_ssb(thinned)
        assert report.algebra is None
        assert codes(report.problems) & {"normal-form", "S2"}

    def test_raising_constructor(self, a3r):
        with pytest.raises(ValidationError):
            ssb_presentation(a3r.presentation)


def _line3(*relations):
    """The three-edge path graph's quiver (see ``line3_alg_pair``) with the
    given relation lines."""
    return (
        "vertex E0\nvertex E1\nvertex E2\n"
        "arrow h1 E0 E1\narrow h2 E1 E0\narrow h3 E1 E2\narrow h4 E2 E1\n"
        + "".join(f"rel {r}\n" for r in relations)
    )


_LINE3 = ("mono h1 h2 h1", "comm h2 h1 = h3 h4", "mono h4 h3 h4", "mono h1 h3", "mono h4 h2")
_LOOP = "vertex E\narrow h E E\narrow k E E\n"

# One broken presentation per problem the validator reports, with the exact
# (code, message) list it must produce, in order.
PROBLEM_TABLE = {
    "valid": (_line3(*_LINE3), []),
    "empty": ("", [("degenerate", "empty quiver")]),
    "ground-field": (
        "vertex 1\n",
        [("degenerate", "one vertex and no arrows (the ground field)")],
    ),
    "dual-numbers": (
        "vertex 1\narrow x 1 1\nrel mono x x\n",
        [
            (
                "degenerate",
                "one loop with a quadratic zero relation (dual numbers); "
                "excluded from the Brauer graph correspondence",
            )
        ],
    ),
    "connected": (
        "vertex A\nvertex B\narrow a1 A A\narrow a2 A A\narrow b1 B B\narrow b2 B B\n"
        "rel comm a1 a2 = a2 a1\nrel mono a1 a1\nrel mono a2 a2\n"
        "rel comm b1 b2 = b2 b1\nrel mono b1 b1\nrel mono b2 b2\n",
        [("connected", "quiver is not connected")],
    ),
    "S1": (
        "vertex v\narrow x v v\narrow y v v\narrow z v v\n"
        + "".join(f"rel mono {p} {q}\n" for p in "xyz" for q in "xyz"),
        [
            ("S1", "vertex 'v' is the source of more than two arrows"),
            ("S1", "vertex 'v' is the target of more than two arrows"),
        ],
    ),
    "S2": (
        _LOOP + "rel comm h k = k h\nrel mono k k\n",
        [
            ("S2", "arrow 'h' has several allowed successors: h, k"),
            ("S2", "arrow 'h' has several allowed predecessors: h, k"),
        ],
    ),
    "monomial-shape": (
        _line3(*_LINE3, "mono h3 h4 h2"),
        [
            (
                "normal-form",
                "monomial 'h3 h4 h2' is neither quadratic nor a cycle power "
                "followed by its first arrow",
            )
        ],
    ),
    "binomial-not-a-cycle": (
        "vertex 1\nvertex 2\narrow a 1 2\narrow b 1 2\nrel comm a = b\n",
        [
            ("normal-form", "binomial side 'a' is not a cycle"),
            ("normal-form", "binomial side 'b' is not a cycle"),
        ],
    ),
    "binomial-side-zero": (
        _LOOP + "rel comm h k = k h\nrel mono h h\nrel mono k k\nrel mono h k\n",
        [("normal-form", "binomial side 'h k' contains a zero relation")],
    ),
    "no-socle-relation": (
        _line3(*_LINE3[1:]),
        [
            (
                "projectives",
                "vertex 'E0' is the base of 0 socle relations instead of exactly one",
            )
        ],
    ),
    "two-socle-relations": (
        _line3(*_LINE3, "mono h1 h2 h1 h2 h1"),
        [
            (
                "projectives",
                "vertex 'E0' is the base of 2 socle relations instead of exactly one",
            )
        ],
    ),
    "shared-arrow": (
        "vertex v\narrow w v v\narrow x v v\nrel comm x w = w\nrel mono x x\nrel mono w w\n",
        [
            ("projectives", "the two cycles at 'v' share a first or last arrow"),
            ("projectives", "cycles at 'v' do not account for all arrows there"),
            ("cycles", "arrows not on exactly one vertex cycle: w"),
        ],
    ),
    "unaccounted-arrow": (
        _LOOP + "rel mono h k h\nrel mono h h\nrel mono k k\n",
        [("projectives", "cycles at 'E' do not account for all arrows there")],
    ),
    "two-exponents": (
        "vertex 1\nvertex 2\narrow a 1 2\narrow b 2 1\nrel mono a b a\nrel mono b a b a b\n",
        [("cycles", "cycle 'a b' appears with two different exponents")],
    ),
    "on-cycle-zero": (
        _line3(*_LINE3, "mono h4 h3"),
        [("normal-form", "composition h4 h3 lies on a vertex cycle but is declared zero")],
    ),
    # both socle relations spell the one cycle a0 a3 a1 a3, which has as many
    # letters as the quiver has arrows but misses a2 and passes a3 twice
    "uncovered-arrows": (
        "vertex 1\nvertex 2\narrow a0 2 1\narrow a1 2 1\narrow a2 1 2\narrow a3 1 2\n"
        "rel mono a3 a0 a3 a1 a3\nrel mono a1 a3 a0 a3 a1\n"
        + "".join(f"rel mono {p}\n" for p in ("a0 a2", "a1 a2", "a1 a3", "a2 a1", "a3 a0", "a3 a1")),
        [
            ("projectives", "cycles at '1' do not account for all arrows there"),
            ("projectives", "cycles at '2' do not account for all arrows there"),
            ("cycles", "arrows not on exactly one vertex cycle: a2, a3"),
        ],
    ),
    "off-cycle-nonzero": (
        _line3(*_LINE3[:3], "mono h1 h2", "mono h4 h3"),
        [
            ("normal-form", "composition h1 h2 lies on a vertex cycle but is declared zero"),
            ("normal-form", "composition h1 h3 is off-cycle but has no zero relation"),
            ("normal-form", "composition h4 h2 is off-cycle but has no zero relation"),
            ("normal-form", "composition h4 h3 lies on a vertex cycle but is declared zero"),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PROBLEM_TABLE))
def test_validator_problem_table(case):
    text, expected = PROBLEM_TABLE[case]
    report = validate_ssb(parse_presentation(text))
    assert [(p.code, p.message) for p in report.problems] == expected
    assert (report.algebra is None) == bool(expected)


def _is_square(relation):
    from quiveralg.quiver import Monomial

    return (
        isinstance(relation, Monomial)
        and len(relation.path) == 2
        and relation.path.arrows[0] == relation.path.arrows[1]
    )


class TestProjectiveBases:
    def test_e21(self, e21):
        ssb = algebra_of(e21)
        labels = [word for _, word, _ in projective_basis(ssb, "E1")]
        assert labels == [(), ("h1",), ("h1", "h1")]

    def test_loop_graph(self, loop_graph):
        ssb = algebra_of(loop_graph)
        basis = projective_basis(ssb, "E")
        assert len(basis) == 4
        assert projective_dimension(ssb, "E") == 4

    def test_dimension_sums(self, e21, line3, loop_graph, star3):
        for g, dims in ((e21, [3]), (line3, [3, 3, 4]), (loop_graph, [4]), (star3, [4, 4, 4])):
            ssb = algebra_of(g)
            assert sorted(projective_dimension(ssb, v) for v in ssb.quiver.vertices) == dims

    def test_counted_dimension_is_the_basis_length(self):
        """projective_dimension counts what projective_basis lists, on every
        (4,3) census algebra and every trivial extension of a (4,1) cut."""

        def algebras():
            yield from map(algebra_of, connected_brauer_graphs(4, 3))
            for ssb in map(algebra_of, connected_brauer_graphs(4, 1)):
                for c in enumerate_cutting_sets(ssb):
                    yield trivial_extension(admissible_cut(ssb, c))

        for ssb in algebras():
            for v in ssb.quiver.vertices:
                assert projective_dimension(ssb, v) == len(projective_basis(ssb, v))


class TestGraphOfSSB:
    def test_roundtrips(self, e21, line3, loop_graph, star3):
        for g in (e21, line3, loop_graph, star3):
            assert is_isomorphic(graph_of_ssb(algebra_of(g)), g)

    def test_loop_recovered_from_double_occurrence(self, loop_graph):
        back = graph_of_ssb(algebra_of(loop_graph))
        assert len(back.multiplicities) == 1
        assert len(back.edges) == 1

    def test_occurrence_invariant(self, e21, line3, loop_graph, star3):
        for g in (e21, line3, loop_graph, star3):
            ssb = algebra_of(g)
            entries = []
            for rep, _ in ssb.cycle_families:
                entries.extend(p_cycle(rep))
            for d in ssb.projectives:
                if d.is_uniserial():
                    entries.append(d.vertex)
            for v in ssb.quiver.vertices:
                assert entries.count(v) == 2

    def test_a_vertex_without_two_germs_is_refused(self, line3):
        """Descriptors that place a quiver vertex on fewer than two germs are
        refused, naming the least such vertex and its count."""
        ssb = algebra_of(line3)
        (rep, _), *rest = ssb.cycle_families
        broken = replace(ssb, cycle_families=tuple(rest))
        counts = Counter(p_cycle(rep))
        least = min(v for v in ssb.quiver.vertices if counts[v] > 0)
        message = rf"vertex '{least}' has {2 - counts[least]} germ occurrences instead of 2"
        with pytest.raises(InconsistencyError, match=message):
            graph_of_ssb(broken)


class TestIsomorphismSSB:
    def test_relabeled_copy(self, line3):
        ssb = algebra_of(line3)
        vmap = {v: f"w{i}" for i, v in enumerate(ssb.quiver.vertices)}
        amap = {a.name: f"g{i}" for i, a in enumerate(ssb.quiver.arrows)}
        other = ssb_presentation(relabel_presentation(ssb.presentation, vmap, amap))
        assert is_isomorphic_ssb(ssb, other)

    def test_dimension_distinguishes(self, e21, loop_graph):
        assert not is_isomorphic_ssb(algebra_of(e21), algebra_of(loop_graph))

    def test_line_vs_star_algebras(self, line3, star3):
        assert not is_isomorphic_ssb(algebra_of(line3), algebra_of(star3))

    def test_socle_representative_choice_is_immaterial(self):
        # pendant edge plus loop: relabeling swaps the two socle cycles
        from quiveralg.brauer import BrauerGraph

        g = BrauerGraph(
            {"v0": 1, "v1": 1},
            {"E0": ("h0", "h1"), "E1": ("h2", "h3")},
            {"v0": ("h0",), "v1": ("h1", "h2", "h3")},
        )
        ssb = algebra_of(g)
        amap = {"h1": "z1", "h2": "z2", "h3": "z0"}
        other = ssb_presentation(relabel_presentation(ssb.presentation, None, amap))
        assert is_isomorphic_ssb(ssb, other)


def _relabeled(ssb, rng):
    """A copy of ``ssb`` under shuffled vertex and arrow names."""
    vertices = list(ssb.quiver.vertices)
    arrows = [a.name for a in ssb.quiver.arrows]
    vnames = [f"w{i}" for i in range(len(vertices))]
    anames = [f"g{i}" for i in range(len(arrows))]
    rng.shuffle(vnames)
    rng.shuffle(anames)
    return ssb_presentation(
        relabel_presentation(
            ssb.presentation, dict(zip(vertices, vnames)), dict(zip(arrows, anames))
        )
    )


class TestIsomorphismCensus:
    """The propagation search against the brute-force oracle on every
    census algebra up to the given (edges, multiplicity)."""

    @pytest.mark.parametrize("bounds", [(3, 3), (4, 1)])
    def test_relabeled_copies_are_found(self, bounds):
        rng = random.Random(2)
        for ssb in map(algebra_of, connected_brauer_graphs(*bounds)):
            vertices, arrows = ssb.quiver.vertices, [a.name for a in ssb.quiver.arrows]
            identity = (dict(zip(vertices, vertices)), dict(zip(arrows, arrows)))
            assert find_ssb_isomorphism(ssb, ssb) == identity
            other = _relabeled(ssb, rng)
            witness = find_ssb_isomorphism(ssb, other)
            assert witness is not None and carries_bases(ssb, other, witness)
            assert brute_force_ssb_isomorphism(ssb, other) is not None

    @pytest.mark.parametrize("bounds", [(3, 3), (4, 1)])
    def test_witness_is_the_first_accepted_start(self, bounds):
        """The witness is the isomorphism whose image of the first arrow of
        ``a`` comes first among the arrows of ``b``: each start arrow gives at
        most one candidate, and each isomorphism is the candidate of its
        image of that arrow."""
        rng = random.Random(5)
        for ssb in map(algebra_of, connected_brauer_graphs(*bounds)):
            other = _relabeled(ssb, rng)
            rank = {x.name: i for i, x in enumerate(other.quiver.arrows)}
            first = ssb.quiver.arrows[0].name
            expected = min(ssb_isomorphisms(ssb, other), key=lambda w: rank[w[1][first]])
            assert find_ssb_isomorphism(ssb, other) == expected

    @pytest.mark.parametrize("bounds, pairs", [((3, 3), 603), ((4, 1), 485)])
    def test_representatives_are_not_isomorphic(self, bounds, pairs):
        classes = {}
        for ssb in map(algebra_of, connected_brauer_graphs(*bounds)):
            size = (ssb.dimension, len(ssb.quiver.vertices), len(ssb.quiver.arrows))
            classes.setdefault(size, []).append(ssb)
        same_size = [pair for group in classes.values() for pair in combinations(group, 2)]
        assert len(same_size) == pairs
        for a, b in same_size:
            assert find_ssb_isomorphism(a, b) is None
            assert brute_force_ssb_isomorphism(a, b) is None


def _mutations(g):
    """The presentation of ``g``, and copies of it that break it in one
    place each: one relation deleted (a quadratic zero relation among
    them), one relation given twice, a zero relation added on a cycle
    step, a quadratic zero relation moved to the other arrow after its
    first, a socle relation with a power raised to the square, a zero
    relation along three cycle steps, an arrow added beside another with a
    commutativity relation between the two, and a vertex added apart."""
    pres = presentation_of(g)
    quiver, relations = pres.quiver, list(pres.relations)
    yield pres
    for i in range(len(relations)):
        yield Presentation(quiver, relations[:i] + relations[i + 1 :])
        yield Presentation(quiver, relations[: i + 1] + relations[i:])
    cycle_step = {h: g.successor(h) for h in g.half_edges if not g.is_silent_leaf(h)}
    for a, b in cycle_step.items():
        yield Presentation(quiver, relations + [Monomial(quiver.path([a, b]))])
        c = cycle_step.get(b)
        if c is not None:
            yield Presentation(quiver, relations + [Monomial(quiver.path([a, b, c]))])
    for i, r in enumerate(relations):
        if isinstance(r, Monomial) and len(r.path) == 2:
            a, b = r.path.arrows
            for other in quiver.arrows_from[quiver.arrow(a).target]:
                if other.name != b:
                    moved = Monomial(quiver.path([a, other.name]))
                    yield Presentation(quiver, relations[:i] + [moved] + relations[i + 1 :])
        squared = None
        if isinstance(r, Binomial):
            try:
                squared = Binomial(compose(r.left, r.left), r.right)
            except ValueError:
                pass
        elif len(r.path) > 2:
            power = r.path.prefix(len(r.path) - 1)
            squared = Monomial(compose(power, r.path))
        if squared is not None:
            yield Presentation(quiver, relations[:i] + [squared] + relations[i + 1 :])
    for a in quiver.arrows:
        beside = Quiver(quiver.vertices, [*quiver.arrows, ("x", a.source, a.target)])
        twin = Binomial(beside.path(["x"]), beside.path([a.name]))
        yield Presentation(beside, relations + [twin])
    yield Presentation(Quiver([*quiver.vertices, "apart"], quiver.arrows), relations)


def _findings(report):
    return [(p.code, p.message) for p in report.problems]


def test_validator_agrees_with_the_reference_validator():
    """On the graphs with at most three edges and multiplicity three, their
    presentations and every one-place break of them (see ``_mutations``),
    and the presentations of the problem table, the validator gives the
    problems of the reference validator, the worded checks alone, in the
    same order; and the same algebra when it finds none."""
    graphs = list(connected_brauer_graphs(3, 3))
    assert len(graphs) == 312
    corpus = [pres for g in graphs for pres in _mutations(g)]
    corpus += [parse_presentation(text) for text, _ in PROBLEM_TABLE.values()]
    codes_seen = Counter()
    for pres in corpus:
        report, reference = validate_ssb(pres), reference_validate_ssb(pres)
        assert _findings(report) == _findings(reference), serialize_presentation(pres)
        if report.ok:
            assert report.algebra.projectives == reference.algebra.projectives
            assert report.algebra.cycle_families == reference.algebra.cycle_families
        codes_seen.update({p.code for p in report.problems} or {"accepted"})
    # every check has failed somewhere, and most presentations are broken
    assert set(codes_seen) == {
        "accepted", "degenerate", "connected", "S1", "S2", "normal-form", "projectives", "cycles"
    }
    assert codes_seen["accepted"] < len(corpus) / 2


@pytest.mark.parametrize("length", range(1, 7))
def test_period_and_rotation_match_the_full_scans(length):
    """Over every word of the given length on three loops, the least
    period and the least rotation, read from the first letter and the
    least letter where they can be, agree with the scans over every
    divisor and every rotation."""
    bouquet = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v"), ("z", "v", "v")])
    for word in product("xyz", repeat=length):
        p = bouquet.path(word)
        period = min(
            d for d in range(1, length + 1) if length % d == 0 and word == word[:d] * (length // d)
        )
        assert _least_period(word) == period
        least = min(range(length), key=lambda k: word[k:] + word[:k])
        assert least_rotation(p) == rotate(p, least)


def test_special_biserial_count_test_matches_the_worded_check():
    """The walk that both validators run first fails exactly when the worded
    special-biserial check or S4 (at most one zero pair starting, and one
    ending, with each arrow) fails, on every quiver with two vertices and at
    most three arrows, under every set of length-two zero relations; where
    S4 alone fails, the worded check finds nothing, and the validator gives
    the problems of the reference validator."""
    ends = [("1", "1"), ("1", "2"), ("2", "1"), ("2", "2")]
    checked = Counter()
    for n_arrows in range(4):
        for endpoints in combinations_with_replacement(ends, n_arrows):
            quiver = Quiver(["1", "2"], [(f"a{i}", s, t) for i, (s, t) in enumerate(endpoints)])
            pairs = [
                (a.name, b.name) for a in quiver.arrows for b in quiver.arrows_from[a.target]
            ]
            for chosen in product((False, True), repeat=len(pairs)):
                zero = [pair for pair, on in zip(pairs, chosen) if on]
                pres = Presentation(quiver, [Monomial(quiver.path(pair)) for pair in zero])
                biserial = validate_special_biserial(pres) == []
                s4 = len({a for a, _ in zero}) == len(zero) == len({b for _, b in zero})
                assert (_allowed_walk(pres) is not None) == (biserial and s4)
                checked[biserial, s4] += 1
                if biserial and not s4:
                    assert _findings(validate_ssb(pres)) == _findings(reference_validate_ssb(pres))
    assert checked[True, True] and checked[False, True] and checked[True, False]
