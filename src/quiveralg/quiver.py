"""Quivers, paths, relations and presentations.

A quiver is a finite directed multigraph.  Paths compose left to right:
``p = a1 a2 ... an`` means "first ``a1``, then ``a2``"; the source of the
path is the source of its first arrow and the target is the target of the
last one.  A trivial path carries an explicit base vertex, so the trivial
paths at two different vertices are distinct values.

A presentation is a quiver together with a list of relations, each either a
monomial (one path, set to zero) or a binomial (a difference of two parallel
paths).  Presentations are the common carrier passed between all the higher
modules; they serialize to a line-oriented text format (see
:func:`parse_presentation`).

All values in this module are immutable after construction and all
operations are pure functions; instances can be shared freely between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Generic, Iterable, TypeVar, Union

from .errors import CompositionError, ParseError, RotationError


class cached_property:
    """:func:`functools.cached_property` without its lock, which Python 3.11
    takes on every first read; values here are pure, so a rare second
    computation is harmless."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Problem:
    """A single validation finding: a short machine code plus a human message."""

    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


_Algebra = TypeVar("_Algebra")


@dataclass(frozen=True)
class Validation(Generic[_Algebra]):
    """A validator's findings, and the validated algebra when there are none."""

    problems: tuple[Problem, ...]
    algebra: _Algebra | None

    @property
    def ok(self) -> bool:
        return not self.problems


# The frozen value classes below write out their constructors: each checks
# its arguments and sets its fields with ``object.__setattr__`` in one call,
# where a generated ``__init__`` would call ``__post_init__`` as a second.
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Arrow:
    name: str
    source: str
    target: str

    def __init__(self, name: str, source: str, target: str):
        _set(self, "name", name)
        _set(self, "source", source)
        _set(self, "target", target)

    def is_loop(self) -> bool:
        return self.source == self.target


@dataclass(frozen=True, slots=True, init=False)
class Path:
    """A path, stored as its vertex itinerary plus the arrow names traversed.

    ``vertices`` always has one more entry than ``arrows``; a trivial path is
    ``Path((v,), ())``.  Storing the itinerary makes paths self-contained:
    composition, rotation and vertex queries need no quiver lookup.  Use
    :meth:`Quiver.path` to build a path with endpoint checking against a
    quiver.
    """

    vertices: tuple[str, ...]
    arrows: tuple[str, ...]

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[str, ...]):
        if len(vertices) != len(arrows) + 1:
            raise ValueError(
                f"itinerary of {len(vertices)} vertices does not fit {len(arrows)} arrows"
            )
        _set(self, "vertices", vertices)
        _set(self, "arrows", arrows)

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.arrows)

    def is_trivial(self) -> bool:
        return not self.arrows

    def is_cyclic(self) -> bool:
        return self.source == self.target

    def prefix(self, length: int) -> "Path":
        return Path(self.vertices[: length + 1], self.arrows[:length])

    def label(self) -> str:
        if self.is_trivial():
            return f"e({self.source})"
        return " ".join(self.arrows)

    def __repr__(self):
        return f"Path<{self.label()}>"


def trivial_path(vertex: str) -> Path:
    return Path((vertex,), ())


def path_sort_key(p: Path):
    """Deterministic total order on paths: by length, then arrows, then base."""
    return (len(p.arrows), p.arrows, p.vertices)


def compose(p: Path, q: Path) -> Path:
    """Concatenate ``p`` then ``q``; trivial paths act as identities."""
    if p.target != q.source:
        raise CompositionError(
            f"cannot compose: target {p.target!r} != source {q.source!r}"
        )
    return Path(p.vertices + q.vertices[1:], p.arrows + q.arrows)


def rotate(p: Path, k: int) -> Path:
    """Cyclic rotation: the same cycle read from its ``k``-th arrow onwards."""
    if p.is_trivial() or not p.is_cyclic():
        raise RotationError(f"{p!r} is not a nontrivial cycle")
    k %= len(p.arrows)
    if k == 0:
        return p
    arrows = p.arrows[k:] + p.arrows[:k]
    vertices = p.vertices[k:] + p.vertices[1 : k + 1]
    return Path(vertices, arrows)


def is_subpath(p: Path, q: Path) -> bool:
    """Whether ``p`` occurs as a contiguous block of ``q``.

    A trivial path at ``v`` is a subpath of ``q`` exactly when ``q``
    visits ``v``.
    """
    if p.is_trivial():
        return p.source in q.vertices
    return _is_subword(p.arrows, q.arrows)


def _is_subword(word: tuple[str, ...], arrows: tuple[str, ...]) -> bool:
    """Whether ``word`` occurs as a contiguous block of ``arrows``."""
    n = len(word)
    return any(arrows[i : i + n] == word for i in range(len(arrows) - n + 1))


@dataclass(frozen=True, slots=True, init=False)
class Monomial:
    """A zero relation: the path is declared zero in the algebra."""

    path: Path

    def __init__(self, path: Path):
        if len(path.arrows) < 2:
            raise ValueError("monomial relation needs a path of length >= 2")
        _set(self, "path", path)

    def paths(self) -> tuple[Path, ...]:
        return (self.path,)

    def __repr__(self):
        return f"Monomial<{self.path.label()}>"


@dataclass(frozen=True, slots=True, init=False)
class Binomial:
    """A commutativity relation ``left - right`` between two parallel paths."""

    left: Path
    right: Path

    def __init__(self, left: Path, right: Path):
        a, b = left.arrows, right.arrows
        if not a or not b:
            raise ValueError("binomial relation needs two nontrivial paths")
        if left.vertices[0] != right.vertices[0] or left.vertices[-1] != right.vertices[-1]:
            raise ValueError("binomial relation needs parallel paths")
        if a[: len(b)] == b[: len(a)]:  # the shorter word begins the longer
            raise ValueError("binomial relation paths must not be prefixes of each other")
        _set(self, "left", left)
        _set(self, "right", right)

    def paths(self) -> tuple[Path, ...]:
        return (self.left, self.right)

    def __repr__(self):
        return f"Binomial<{self.left.label()} = {self.right.label()}>"


Relation = Union[Monomial, Binomial]

_name = attrgetter("name")


@dataclass(frozen=True)
class Quiver:
    """A finite quiver; vertices and arrows are identified by opaque strings.

    The constructor normalizes order (so structurally equal quivers compare
    equal) and checks that arrow names are unique and arrow endpoints are
    declared vertices.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __init__(self, vertices: Iterable[str], arrows: Iterable):
        vs = tuple(sorted(set(vertices)))
        normalized = [a if isinstance(a, Arrow) else Arrow(*a) for a in arrows]
        normalized.sort(key=_name)
        if len({a.name for a in normalized}) != len(normalized):
            names = [a.name for a in normalized]
            dup = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate arrow names: {', '.join(dup)}")
        declared = set(vs)
        for a in normalized:
            if a.source not in declared or a.target not in declared:
                raise ValueError(f"arrow {a.name!r} uses undeclared vertices")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "arrows", tuple(normalized))

    @cached_property
    def arrow_map(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def arrows_from(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    @cached_property
    def arrows_into(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.target].append(a)
        return {v: tuple(lst) for v, lst in out.items()}

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrow_map[name]
        except KeyError:
            raise KeyError(f"no arrow named {name!r}") from None

    def path(self, arrow_names: Iterable[str]) -> Path:
        """Build a path from one or more arrow names, checking composability."""
        names = tuple(arrow_names)
        arrows = [self.arrow(n) for n in names]
        vertices = [arrows[0].source]
        for prev, nxt in zip(arrows, arrows[1:]):
            if prev.target != nxt.source:
                raise CompositionError(
                    f"arrows {prev.name!r} and {nxt.name!r} do not compose"
                )
            vertices.append(prev.target)
        vertices.append(arrows[-1].target)
        return Path(tuple(vertices), names)

    def contains_path(self, p: Path) -> bool:
        """Whether ``p`` is a genuine path of this quiver (names and itinerary)."""
        vertices = p.vertices
        if not p.arrows:
            return vertices[0] in self.arrows_from
        arrow_map = self.arrow_map
        for i, name in enumerate(p.arrows):
            a = arrow_map.get(name)
            if a is None or a.source != vertices[i] or a.target != vertices[i + 1]:
                return False
        return True

    def is_connected(self) -> bool:
        """Connectivity as an undirected graph, walked along the cached
        :attr:`arrows_from` and :attr:`arrows_into`; the empty quiver is not
        connected."""
        if not self.vertices:
            return False
        outs, ins = self.arrows_from, self.arrows_into
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for a in outs[v]:
                if a.target not in seen:
                    seen.add(a.target)
                    stack.append(a.target)
            for a in ins[v]:
                if a.source not in seen:
                    seen.add(a.source)
                    stack.append(a.source)
        return len(seen) == len(self.vertices)


@dataclass(frozen=True)
class Presentation:
    """A quiver with relations; every relation path must live in the quiver.

    The constructor reads the relations once.  It checks every relation
    path against the quiver, each step against the source and the target of
    its arrow (:meth:`Quiver.contains_path`), and the error names the first
    path that is not a path of the quiver.  The same pass sorts the
    relations into these attributes:

    * ``monomials``: the zero relation paths, in order;
    * ``binomials``: the commutativity relations, in order;
    * ``quadratic_monomials``: the length-two zero relations, as a frozenset
      of pairs of arrow names;
    * ``long_monomials``: the zero relations of length three or more.
    """

    quiver: Quiver
    relations: tuple[Relation, ...]

    def __init__(self, quiver: Quiver, relations: Iterable[Relation] = ()):
        rels = tuple(relations)
        monomials: list[Path] = []
        binomials: list[Binomial] = []
        quadratic: list[tuple[str, ...]] = []
        longer: list[Path] = []
        paths: list[Path] = []  # every relation path, in order
        for r in rels:
            if isinstance(r, Monomial):
                p = r.path
                monomials.append(p)
                paths.append(p)
                if len(p.arrows) == 2:
                    quadratic.append(p.arrows)
                else:
                    longer.append(p)
            else:
                if isinstance(r, Binomial):
                    binomials.append(r)
                paths += r.paths()
        contains = quiver.contains_path
        for p in paths:
            if not contains(p):
                raise ValueError(f"relation path {p!r} is not a path of the quiver")
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "relations", rels)
        self.__dict__.update(
            monomials=tuple(monomials),
            binomials=tuple(binomials),
            quadratic_monomials=frozenset(quadratic),
            long_monomials=tuple(longer),
        )

    def word_is_nonzero_monomially(self, arrows: tuple[str, ...]) -> bool:
        """Whether the arrow word ``arrows`` contains no monomial relation
        as a contiguous subword.  For presentations whose ideal is generated
        by monomials this is exactly "the path is nonzero in the algebra".

        The length-two relations are looked up as consecutive arrow pairs in
        :attr:`quadratic_monomials`; only the longer ones are scanned, when
        they are no longer than the word and their first arrow occurs in
        it.  Every relation has at least two arrows, so on the word of a
        path this is the :func:`is_subpath` test of each relation path.
        """
        if not self.quadratic_monomials.isdisjoint(zip(arrows, arrows[1:])):
            return False
        longer = self.long_monomials
        return not longer or not any(
            _is_subword(m.arrows, arrows)
            for m in longer
            if len(m.arrows) <= len(arrows) and m.arrows[0] in arrows
        )


# ---------------------------------------------------------------------------
# Text format
#
#   # comment
#   vertex <id>
#   arrow <id> <src> <tgt>
#   rel mono <arrow> <arrow> ...
#   rel comm <arrow> ... = <arrow> ...
#
# A trivial path may be written e(<vertex>) where a whole relation side is
# trivial; the relation invariants then decide whether that is admissible
# (it never is for mono/comm relations, and the parser reports the line).
# ---------------------------------------------------------------------------


def _declare(table: dict, key: str, value, lineno: int, kind: str) -> None:
    """``table[key] = value``, unless ``key`` was declared on an earlier line."""
    if key in table:
        raise ParseError(lineno, f"{kind} {key!r} declared twice")
    table[key] = value


def _strip(line: str) -> str:
    if "#" in line:
        line = line[: line.index("#")]
    return line.strip()


def _parse_side(tokens: list[str], quiver: Quiver, lineno: int) -> Path:
    if not tokens:
        raise ParseError(lineno, "empty relation side")
    if len(tokens) == 1 and tokens[0].startswith("e(") and tokens[0].endswith(")"):
        v = tokens[0][2:-1]
        if v not in set(quiver.vertices):
            raise ParseError(lineno, f"undeclared vertex {v!r} in trivial path")
        return trivial_path(v)
    for t in tokens:
        if t not in quiver.arrow_map:
            raise ParseError(lineno, f"undeclared arrow {t!r}")
    try:
        return quiver.path(tokens)
    except CompositionError as exc:
        raise ParseError(lineno, str(exc)) from None


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format; errors carry line numbers."""
    vertices: dict[str, int] = {}  # id -> its line
    arrows: dict[str, tuple[int, tuple[str, ...]]] = {}  # id -> its line, id, ends
    raw_relations: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "vertex":
            if len(tokens) != 2:
                raise ParseError(lineno, "expected: vertex <id>")
            _declare(vertices, tokens[1], lineno, lineno, "vertex")
        elif kind == "arrow":
            if len(tokens) != 4:
                raise ParseError(lineno, "expected: arrow <id> <src> <tgt>")
            _declare(arrows, tokens[1], (lineno, tuple(tokens[1:])), lineno, "arrow")
        elif kind == "rel":
            if len(tokens) < 2 or tokens[1] not in ("mono", "comm"):
                raise ParseError(lineno, "expected: rel mono ... or rel comm ...")
            raw_relations.append((lineno, tokens[1:]))
        else:
            raise ParseError(lineno, f"unknown directive {kind!r}")

    for lineno, (name, src, tgt) in arrows.values():
        for v in (src, tgt):
            if v not in vertices:
                raise ParseError(lineno, f"undeclared vertex {v!r} in arrow {name!r}")
    quiver = Quiver(vertices, (a for _, a in arrows.values()))

    relations: list[Relation] = []
    for lineno, tokens in raw_relations:
        try:
            if tokens[0] == "mono":
                relations.append(Monomial(_parse_side(tokens[1:], quiver, lineno)))
            else:
                if "=" not in tokens:
                    raise ParseError(lineno, "rel comm needs '=' between the two sides")
                split = tokens.index("=")
                left = _parse_side(tokens[1:split], quiver, lineno)
                right = _parse_side(tokens[split + 1 :], quiver, lineno)
                relations.append(Binomial(left, right))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return Presentation(quiver, relations)


def serialize_presentation(pres: Presentation) -> str:
    """Canonical text for a presentation: declarations sorted, relations in order."""
    lines = [f"vertex {v}" for v in pres.quiver.vertices]
    lines += [f"arrow {a.name} {a.source} {a.target}" for a in pres.quiver.arrows]
    for r in pres.relations:
        if isinstance(r, Monomial):
            lines.append(f"rel mono {' '.join(r.path.arrows)}")
        else:
            lines.append(
                f"rel comm {' '.join(r.left.arrows)} = {' '.join(r.right.arrows)}"
            )
    return "\n".join(lines) + "\n"


def presentation_dot(pres: Presentation, dashed_arrows: frozenset[str] = frozenset()) -> str:
    """Graphviz DOT for the quiver, vertices and arrows in lexicographic order."""
    lines = ["digraph quiver {"]
    for v in pres.quiver.vertices:
        lines.append(f'  "{v}";')
    for a in pres.quiver.arrows:
        style = ", style=dashed" if a.name in dashed_arrows else ""
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
