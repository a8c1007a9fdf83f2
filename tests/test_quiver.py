import pytest
from hypothesis import given, strategies as st

from oracles import relabel_presentation
from quiveralg.errors import CompositionError, ParseError, RotationError
from quiveralg.quiver import (
    Binomial,
    Monomial,
    Path,
    Presentation,
    Quiver,
    compose,
    is_subpath,
    parse_presentation,
    presentation_dot,
    rotate,
    serialize_presentation,
    trivial_path,
)


@pytest.fixture
def chain3():
    return Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])


class TestCompose:
    def test_concatenation(self, chain3):
        a, b = chain3.path(["a"]), chain3.path(["b"])
        assert compose(a, b) == chain3.path(["a", "b"])

    def test_trivial_identities(self, chain3):
        a = chain3.path(["a"])
        assert compose(trivial_path("1"), a) == a
        assert compose(a, trivial_path("2")) == a

    def test_endpoint_mismatch(self, chain3):
        with pytest.raises(CompositionError):
            compose(chain3.path(["b"]), chain3.path(["a"]))


class TestRotate:
    @pytest.fixture
    def two_loop(self):
        return Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])

    def test_swap_on_two_cycle(self, two_loop):
        p = two_loop.path(["x", "y"])
        assert rotate(p, 1) == two_loop.path(["y", "x"])

    def test_full_rotation_is_identity(self, two_loop):
        p = two_loop.path(["x", "y"])
        assert rotate(p, 2) == p
        assert rotate(p, 0) == p

    def test_non_cyclic_rejected(self, chain3):
        with pytest.raises(RotationError):
            rotate(chain3.path(["a", "b"]), 1)
        with pytest.raises(RotationError):
            rotate(trivial_path("1"), 1)

    @given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=6))
    def test_orbit_size_divides_length(self, k, n):
        q = Quiver(["v"], [(f"x{i}", "v", "v") for i in range(3)])
        p = q.path(["x0", "x1"] * n)
        orbit = {rotate(p, i) for i in range(len(p))}
        assert len(p) % len(orbit) == 0
        assert rotate(p, k) in orbit


class TestSubpath:
    def test_suffix(self, chain3):
        assert is_subpath(chain3.path(["b"]), chain3.path(["a", "b"]))

    def test_longer_not_in_shorter(self, chain3):
        assert not is_subpath(chain3.path(["a", "b"]), chain3.path(["a"]))

    def test_trivial_iff_visited(self, chain3):
        ab = chain3.path(["a", "b"])
        assert is_subpath(trivial_path("2"), ab)
        assert not is_subpath(trivial_path("4"), ab)


class TestQuiverConstruction:
    def test_duplicate_arrow_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])

    def test_undeclared_endpoint_rejected(self):
        with pytest.raises(ValueError, match="undeclared"):
            Quiver(["1"], [("a", "1", "2")])

    def test_connectivity(self, chain3):
        assert chain3.is_connected()
        assert not Quiver(["1", "2"], []).is_connected()
        assert not Quiver([], []).is_connected()
        # 1 -> 2 <- 3: vertex 3 is reached only against the direction of b
        into = [("a", "1", "2"), ("b", "3", "2")]
        assert Quiver(["1", "2", "3"], into).is_connected()
        assert Quiver(["2", "1", "3"], into).is_connected()
        assert not Quiver(["1", "2", "3", "4"], into).is_connected()
        # a loop and two parallel arrows
        loop = [("l", "1", "1"), ("a", "1", "2"), ("b", "1", "2")]
        assert Quiver(["1", "2"], loop).is_connected()
        assert Quiver(["2", "1"], loop).is_connected()
        assert not Quiver(["1", "2", "3"], loop).is_connected()
        assert not Quiver(["1", "2"], loop[:1]).is_connected()


class TestRelationInvariants:
    def test_monomial_needs_length_two(self, chain3):
        with pytest.raises(ValueError):
            Monomial(chain3.path(["a"]))

    def test_binomial_needs_parallel_paths(self, chain3):
        with pytest.raises(ValueError):
            Binomial(chain3.path(["a"]), chain3.path(["b"]))

    def test_binomial_rejects_prefix_pair(self):
        q = Quiver(["1"], [("x", "1", "1")])
        with pytest.raises(ValueError, match="prefix"):
            Binomial(q.path(["x"]), q.path(["x", "x"]))

    def test_presentation_rejects_foreign_paths(self, chain3):
        class Bare:  # carries any path, trivial ones too, to the presentation's check
            def __init__(self, path):
                self.path = path

            def paths(self):
                return (self.path,)

        foreign = Path(("1", "1"), ("z",))
        table = {
            "unknown arrow": Monomial(compose(foreign, foreign)),
            "wrong source": Monomial(Path(("2", "2", "3"), ("a", "b"))),
            "wrong target": Monomial(Path(("1", "1", "2"), ("a", "a"))),
            "undeclared vertex": Bare(trivial_path("9")),
        }
        rejected = []
        for case, relation in table.items():
            try:
                Presentation(chain3, [relation])
            except ValueError as exc:
                if "not a path" in str(exc):
                    rejected.append(case)
        assert rejected == list(table)
        # the same shapes with the right steps, and a declared vertex, pass
        Presentation(chain3, [Monomial(chain3.path(["a", "b"])), Bare(trivial_path("1"))])

    def test_presentation_names_the_first_bad_path(self, chain3):
        first = Path(("2", "2", "3"), ("a", "b"))  # wrong source
        second = Path(("1", "1", "2"), ("a", "a"))  # wrong target
        relations = [Monomial(chain3.path(["a", "b"])), Monomial(first), Monomial(second)]
        with pytest.raises(ValueError) as raised:
            Presentation(chain3, relations)
        assert str(raised.value) == "relation path Path<a b> is not a path of the quiver"
        with pytest.raises(ValueError) as raised:
            Presentation(chain3, relations[:1] + relations[:0:-1])
        assert str(raised.value) == "relation path Path<a a> is not a path of the quiver"

    def test_relations_are_sorted_in_one_pass(self):
        q = Quiver(["1"], [("x", "1", "1"), ("y", "1", "1")])
        square, cube = Monomial(q.path(["x", "x"])), Monomial(q.path(["y", "y", "y"]))
        swap = Binomial(q.path(["x", "y"]), q.path(["y", "x"]))
        pres = Presentation(q, [cube, swap, square])
        assert pres.monomials == (cube.path, square.path)
        assert pres.binomials == (swap,)
        assert pres.quadratic_monomials == frozenset({("x", "x")})
        assert pres.long_monomials == (cube.path,)


class TestTextFormat:
    def test_smallest_quiver(self):
        pres = parse_presentation("vertex 1\nvertex 2\narrow a 1 2\n")
        assert pres.quiver.vertices == ("1", "2")
        assert [a.name for a in pres.quiver.arrows] == ["a"]

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_presentation("arrow a 1 2\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_presentation("vertex 1\nfrob 2\n")
        assert err.value.line == 2

    def test_non_composable_relation_reported(self):
        text = "vertex 1\nvertex 2\nvertex 3\narrow a 1 2\narrow b 2 3\nrel mono b a\n"
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert err.value.line == 6

    def test_trivial_side_rejected_with_line(self):
        text = "vertex 1\narrow x 1 1\nrel comm x x = e(1)\n"
        with pytest.raises(ParseError) as err:
            parse_presentation(text)
        assert err.value.line == 3

    def test_comments_and_blanks_ignored(self):
        pres = parse_presentation("# header\n\nvertex 1  # inline\n")
        assert pres.quiver.vertices == ("1",)

    def test_roundtrip_fig1(self, fig1_algebra):
        text = serialize_presentation(fig1_algebra.presentation)
        assert parse_presentation(text) == fig1_algebra.presentation
        assert serialize_presentation(parse_presentation(text)) == text

    @given(st.data())
    def test_roundtrip_generated(self, data):
        nv = data.draw(st.integers(min_value=1, max_value=4))
        vertices = [str(i) for i in range(nv)]
        na = data.draw(st.integers(min_value=0, max_value=5))
        arrows = []
        for i in range(na):
            s = data.draw(st.sampled_from(vertices))
            t = data.draw(st.sampled_from(vertices))
            arrows.append((f"a{i}", s, t))
        quiver = Quiver(vertices, arrows)
        relations = []
        for a in quiver.arrows:
            for b in quiver.arrows_from[a.target]:
                if data.draw(st.booleans()):
                    relations.append(Monomial(quiver.path([a.name, b.name])))
        pres = Presentation(quiver, relations)
        assert parse_presentation(serialize_presentation(pres)) == pres


class TestRelabel:
    def test_relabel_preserves_structure(self, chain3):
        pres = Presentation(chain3, [Monomial(chain3.path(["a", "b"]))])
        out = relabel_presentation(pres, {"1": "x"}, {"a": "f"})
        assert "x" in out.quiver.vertices
        assert out.quiver.arrow("f").source == "x"
        assert out.monomials[0].arrows == ("f", "b")


def test_dot_is_sorted_and_stable(chain3):
    pres = Presentation(chain3, [])
    dot = presentation_dot(pres)
    assert dot.index('"a"') < dot.index('"b"')
    assert presentation_dot(pres) == dot


def _paths_up_to(quiver: Quiver, cap: int):
    """Every nontrivial path of the quiver with at most ``cap`` arrows."""
    stack = [quiver.path([a.name]) for a in quiver.arrows]
    while stack:
        p = stack.pop()
        yield p
        if len(p) < cap:
            for b in quiver.arrows_from[p.target]:
                stack.append(Path(p.vertices + (b.target,), p.arrows + (b.name,)))


def test_zero_test_matches_subpath_scan():
    """The pair lookup plus long-monomial scan agrees with a plain scan over
    all monomials, on every path up to the longest monomial plus one.

    Brauer graphs with multiplicity-one leaves give monomials of length three
    or more; gentle algebras have only quadratic ones.
    """
    from quiveralg.brauer import presentation_of
    from quiveralg.census import connected_brauer_graphs, gentle_algebras

    presentations = [presentation_of(g) for g in connected_brauer_graphs(3, 3)]
    presentations += [a.presentation for a in gentle_algebras(4, 4)]
    assert any(pres.long_monomials for pres in presentations)
    for pres in presentations:
        cap = max((len(m) for m in pres.monomials), default=1) + 1
        for p in _paths_up_to(pres.quiver, cap):
            expected = not any(is_subpath(m, p) for m in pres.monomials)
            assert pres.word_is_nonzero_monomially(p.arrows) == expected
