"""Shared fixtures: the small named instances used throughout the suite."""

from __future__ import annotations

import pytest

from quiveralg.brauer import BrauerGraph
from quiveralg.gentle import gentle_algebra
from quiveralg.quiver import Monomial, Presentation, Quiver
from quiveralg.surface import Triangulation


@pytest.fixture
def a3r():
    """1 -a-> 2 -b-> 3 with ab = 0."""
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return gentle_algebra(Presentation(q, [Monomial(q.path(["a", "b"]))]))


@pytest.fixture
def loopx():
    """One vertex, one loop x, x^2 = 0 (the smallest gentle algebra with a loop)."""
    q = Quiver(["1"], [("x", "1", "1")])
    return gentle_algebra(Presentation(q, [Monomial(q.path(["x", "x"]))]))


@pytest.fixture
def a2():
    """1 -a-> 2, no relations."""
    q = Quiver(["1", "2"], [("a", "1", "2")])
    return gentle_algebra(Presentation(q, []))


@pytest.fixture
def fig1_algebra():
    """Three arcs of the annulus fixture: p: 1->2, u: 1->3, v: 3->2, no relations."""
    q = Quiver(
        ["1", "2", "3"],
        [("p", "1", "2"), ("u", "1", "3"), ("v", "3", "2")],
    )
    return gentle_algebra(Presentation(q, []))


@pytest.fixture
def e21():
    """One edge with endpoint multiplicities 2 and 1."""
    return BrauerGraph(
        multiplicities={"u": 2, "w": 1},
        edges={"E1": ("h1", "h2")},
        rotations={"u": ("h1",), "w": ("h2",)},
    )


@pytest.fixture
def line3():
    """Path graph with three edges, all multiplicities one."""
    return BrauerGraph(
        multiplicities={"v0": 1, "v1": 1, "v2": 1, "v3": 1},
        edges={"E1": ("a0", "a1"), "E2": ("b0", "b1"), "E3": ("c0", "c1")},
        rotations={
            "v0": ("a0",),
            "v1": ("a1", "b0"),
            "v2": ("b1", "c0"),
            "v3": ("c1",),
        },
    )


@pytest.fixture
def line3_alg_pair():
    """The algebra of a three-edge path graph (multiplicities one) as two
    presentation texts whose names run along the path in opposite
    directions; the path's reflection gives a second isomorphism."""
    first = (
        "vertex E0\nvertex E1\nvertex E2\n"
        "arrow h1 E0 E1\narrow h2 E1 E0\narrow h3 E1 E2\narrow h4 E2 E1\n"
        "rel mono h1 h2 h1\nrel comm h2 h1 = h3 h4\nrel mono h4 h3 h4\n"
        "rel mono h1 h3\nrel mono h4 h2\n"
    )
    second = (
        "vertex w0\nvertex w1\nvertex w2\n"
        "arrow g0 w1 w2\narrow g1 w2 w1\narrow g2 w2 w0\narrow g3 w0 w2\n"
        "rel mono g3 g2 g3\nrel comm g2 g3 = g1 g0\nrel mono g0 g1 g0\n"
        "rel mono g3 g1\nrel mono g0 g2\n"
    )
    return first, second


@pytest.fixture
def loop_graph():
    """One vertex with a single loop edge, multiplicity one."""
    return BrauerGraph(
        multiplicities={"v": 1},
        edges={"E": ("h", "k")},
        rotations={"v": ("h", "k")},
    )


@pytest.fixture
def star3():
    """Three edges around one centre, all multiplicities one."""
    return BrauerGraph(
        multiplicities={"c": 1, "l1": 1, "l2": 1, "l3": 1},
        edges={"E1": ("h1", "g1"), "E2": ("h2", "g2"), "E3": ("h3", "g3")},
        rotations={
            "c": ("h1", "h2", "h3"),
            "l1": ("g1",),
            "l2": ("g2",),
            "l3": ("g3",),
        },
    )


@pytest.fixture
def fig1_triangulation():
    """Triangulated annulus: points a, b outer, c inner; arcs 1, 2: a-c, 3: c-b."""
    return Triangulation(
        points=["a", "b", "c"],
        boundary_segments={"s1": ("a", "b"), "s2": ("b", "a"), "s3": ("c", "c")},
        arcs={"1": ("a", "c"), "2": ("a", "c"), "3": ("c", "b")},
        triangles={"t1": ("1", "2", "s3"), "t2": ("1", "3", "s1"), "t3": ("3", "2", "s2")},
    )
