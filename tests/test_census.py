"""Enumeration tests.  The Brauer class counts are backed by the rooted-map
counts, a brute-force sweep of rotation systems, the orbit-counting
identity and the census by canonical-form dedup.  The gentle class counts
are backed by the reference census of ``oracles``, which enumerates
quivers and relations where the library's census takes admissible cuts of
Brauer graphs: its quiver layer against an unpruned sweep, its relation
layer against the orbit-counting identity, and its presentation key against
a brute-force oracle.  The library's census is checked against a sweep of
every relation set, the reference's dedup census, and the reference's key
sets and per-size counts, which also back the cut-surjectivity identity;
the keys of every admissible cut of the multiplicity-one graphs up to
five edges are the reference's classes too."""

import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product, zip_longest
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    bfs_encoding,
    brauer_shapes,
    brute_force_gentle_keys,
    brute_force_presentation_key,
    brute_force_quiver_keys,
    brute_force_shape_keys,
    dedup_brauer_graphs,
    dedup_gentle_algebras,
    gentle_quivers,
    presentations_isomorphic,
    reference_gentle_algebras,
    relabel_presentation,
    relation_products,
)
from quiveralg.brauer import (
    algebra_of,
    canonical_form,
    relabel_brauer_graph,
    validate_brauer_graph,
)
from quiveralg.census import (
    _cycles_of,
    _map_groups,
    canonical_presentation_key,
    connected_brauer_graphs,
    gentle_algebras,
    rooted_maps,
)
from quiveralg.cut import admissible_cut, enumerate_cutting_sets
from quiveralg.gentle import validate_gentle
from quiveralg.quiver import Presentation, Quiver
from quiveralg.trivext import trivial_extension

BRAUER_COUNTS = {
    (1, 1): 1,
    (2, 1): 6,
    (3, 1): 26,
    (4, 1): 133,
    (2, 2): 21,
    (3, 2): 112,
    (2, 3): 47,
    (3, 3): 312,
    (4, 3): 2952,
    (5, 1): 1003,
    (5, 2): 8267,
    (5, 4): 125182,
    (6, 1): 10439,
}

GENTLE_COUNTS = {
    (1, 2): 1,
    (2, 2): 7,
    (2, 4): 10,
    (3, 4): 72,
    (3, 6): 87,
    (4, 4): 190,
    (4, 6): 876,
    (4, 8): 981,
    (5, 6): 4092,
    (5, 8): 13434,
    (5, 10): 14379,
}

# connected rooted maps with n edges (Walsh-Lehman 1972; OEIS A000698)
ROOTED_MAP_COUNTS = {1: 2, 2: 10, 3: 74, 4: 706, 5: 8162, 6: 110410}

# sum over the classes with n = 1, 2, ... edges and multiplicities at most M
# of 2^n n! / |Aut(g)|, keyed by M
ORBIT_SUMS = {
    1: [1, 20, 592, 33888, 3134208, 423974400],
    2: [5, 84, 3312, 242784, 27834624],
    3: [11, 216, 10656, 955584, 131424768],
}


@pytest.mark.parametrize("bounds,expected", sorted(BRAUER_COUNTS.items()))
def test_brauer_graph_counts(bounds, expected):
    assert sum(1 for _ in connected_brauer_graphs(*bounds)) == expected


# (5, 10) is counted by test_admissible_cuts_are_exactly_the_gentle_algebras,
# which goes through that census anyway
@pytest.mark.parametrize(
    "bounds,expected", sorted(item for item in GENTLE_COUNTS.items() if item[0] != (5, 10))
)
def test_gentle_algebra_counts(bounds, expected):
    assert sum(1 for _ in gentle_algebras(*bounds)) == expected


@pytest.mark.parametrize("n_vertices,max_arrows", [(1, 6), (2, 6), (3, 6), (4, 6), (5, 5)])
def test_gentle_quivers_are_the_quiver_classes_once_each(n_vertices, max_arrows):
    """The reference's degree-sorted quiver layer against keys of every
    connected labelled endpoint multiset, up to its cap of 2n - 1 arrows
    (that no gentle algebra has 2n arrows is checked on the same sweep by
    test_gentle_algebras_are_the_presentation_classes_once_each at (1, 6)
    and (2, 6), and by the reference census in
    test_admissible_cuts_are_exactly_the_gentle_algebras)."""
    keys = [
        canonical_presentation_key(Presentation(q, ()))
        for q, _ in gentle_quivers(n_vertices, max_arrows)
    ]
    assert len(set(keys)) == len(keys)
    assert set(keys) == brute_force_quiver_keys(
        n_vertices, min(max_arrows, 2 * n_vertices - 1), canonical_presentation_key
    )


@pytest.mark.parametrize("n_vertices,max_arrows", [(1, 6), (2, 6), (3, 5), (4, 4)])
def test_gentle_algebras_are_the_presentation_classes_once_each(n_vertices, max_arrows):
    """The census against keys of every valid set of length-two zero
    relations on every connected labelled quiver."""
    keys = [
        canonical_presentation_key(a.presentation)
        for a in gentle_algebras(n_vertices, max_arrows)
        if len(a.quiver.vertices) == n_vertices
    ]
    assert len(set(keys)) == len(keys)
    assert set(keys) == brute_force_gentle_keys(
        n_vertices, max_arrows, canonical_presentation_key
    )


@pytest.mark.parametrize("bounds", [(4, 6), (5, 5)])
def test_gentle_census_is_the_dedup_census(bounds):
    """The census of cuts gives each class of the reference's
    presentation-key dedup exactly once."""
    keys = [canonical_presentation_key(a.presentation) for a in gentle_algebras(*bounds)]
    dedup = [canonical_presentation_key(a.presentation) for a in dedup_gentle_algebras(*bounds)]
    assert len(set(keys)) == len(keys) == len(dedup)
    assert set(keys) == set(dedup)


def _arrow_automorphisms(quiver: Quiver) -> list[dict[str, str]]:
    """Every automorphism of ``quiver`` as an arrow map: every vertex
    bijection, and within it every endpoint-respecting arrow bijection."""
    between: dict[tuple[str, str], list[str]] = {}
    for a in quiver.arrows:
        between.setdefault((a.source, a.target), []).append(a.name)
    found = []
    for images in permutations(quiver.vertices):
        vmap = dict(zip(quiver.vertices, images))
        targets = [between.get((vmap[s], vmap[t]), []) for s, t in between]
        if any(len(names) != len(image) for names, image in zip(between.values(), targets)):
            continue
        for arrangement in product(*(permutations(image) for image in targets)):
            found.append(
                {
                    name: image
                    for names, perm in zip(between.values(), arrangement)
                    for name, image in zip(names, perm)
                }
            )
    return found


def _endpoints(quiver: Quiver) -> tuple:
    return len(quiver.vertices), tuple((a.source, a.target) for a in quiver.arrows)


def test_gentle_census_satisfies_the_orbit_counting_identity():
    """On each quiver class, the valid relation sets in the unreduced product
    of per-vertex choices number the sum of |Aut(Q)| / |Stab(R)| over the
    reference census's classes on that quiver; Aut(Q) by brute force, which
    must also be the group that the quiver layer reads off its key."""
    on_quiver = defaultdict(list)
    for algebra in reference_gentle_algebras(4, 6):
        on_quiver[_endpoints(algebra.quiver)].append(algebra.presentation.quadratic_monomials)
    checked = 0
    for n_vertices in range(1, 5):
        for quiver, perms in gentle_quivers(n_vertices, 6):
            automorphisms = _arrow_automorphisms(quiver)
            index = {a.name: i for i, a in enumerate(quiver.arrows)}
            as_perms = {tuple(index[s[a.name]] for a in quiver.arrows) for s in automorphisms}
            assert len(perms) + 1 == len(automorphisms)
            assert as_perms == {*perms, tuple(range(len(quiver.arrows)))}
            valid = sum(1 for pres in relation_products(quiver) if validate_gentle(pres).ok)
            orbits = Fraction(0)
            for zero in on_quiver.pop(_endpoints(quiver), []):
                stabilizer = sum(
                    1 for s in automorphisms if {(s[a], s[b]) for a, b in zero} == zero
                )
                orbits += Fraction(len(automorphisms), stabilizer)
            assert valid == orbits
            checked += valid
    assert not on_quiver
    assert checked > GENTLE_COUNTS[(4, 6)]


@pytest.mark.parametrize("n", range(1, 7))
def test_top_arrow_count_has_the_odd_double_factorial_classes(n):
    """The connected gentle algebras with n vertices and 2n - 1 arrows, the
    most there can be, number (2n - 1)!! = 1, 3, 15, 105, 945, 10395: they
    are the cuts of the one-vertex maps with n edges, one per rooting of
    such a map up to isomorphism, and the rooted one-vertex maps are the
    pairings of 2n points on a line.  Counted from the census groups of
    those maps, without building an algebra."""
    assert sum(count for count, _ in _map_groups(n, range(1, 2))) == prod(range(1, 2 * n, 2))


# Six vertices and eleven arrows, named a0 to a10 as the quiver layer names
# them; swapping vertices 1 and 2 and vertices 3 and 4 is an automorphism
# that moves arrows on both sides of a9 and a10.
ELEVEN_ARROWS = [
    (0, 1), (0, 2), (1, 3), (2, 4), (1, 4), (2, 3), (3, 5), (4, 5), (3, 1), (4, 2), (5, 0)
]


def test_automorphisms_act_on_arrows_in_numeric_order(monkeypatch):
    """Past ten arrows the names' string order (a1, a10, a2, ...) is not
    the numeric order of the automorphisms; the relation layer must use
    the numeric one.  Burnside's count of the valid relation sets under the
    brute-force Aut(Q) gives the number of classes of the reference census
    on a stubbed quiver layer."""
    vertices = [str(v) for v in range(6)]
    quiver = Quiver(
        vertices, [(f"a{i}", vertices[s], vertices[t]) for i, (s, t) in enumerate(ELEVEN_ARROWS)]
    )
    automorphisms = _arrow_automorphisms(quiver)
    perms = {tuple(int(s[f"a{i}"][1:]) for i in range(11)) for s in automorphisms}
    perms.discard(tuple(range(11)))
    assert len(automorphisms) == 2 and len(perms) == 1
    monkeypatch.setattr(
        oracles, "gentle_quivers", lambda n, a: iter([(quiver, list(perms))] if n == 6 else [])
    )
    keys = [canonical_presentation_key(a.presentation) for a in reference_gentle_algebras(6, 11)]
    valid = [
        pres.quadratic_monomials for pres in relation_products(quiver) if validate_gentle(pres).ok
    ]
    fixed = sum(
        1 for s in automorphisms for zero in valid if {(s[a], s[b]) for a, b in zero} == zero
    )
    assert len(set(keys)) == len(keys) == Fraction(fixed, len(automorphisms)) == 8


def _is_bfs_code(succ: tuple[int, ...], partner: tuple[int, ...]) -> bool:
    """Whether ``succ`` is a permutation, ``partner`` a fixed-point-free
    involution, and breadth-first discovery from germ 0 (successor first,
    then partner) numbers the germs 0, 1, 2, ... in order."""
    size = len(succ)
    if sorted(succ) != list(range(size)):
        return False
    if any(partner[h] == h or partner[partner[h]] != h for h in range(size)):
        return False
    order = [0]
    for h in order:
        for nb in (succ[h], partner[h]):
            if nb not in order:
                order.append(nb)
    return order == list(range(size))


@pytest.mark.parametrize("n_edges,expected", sorted(ROOTED_MAP_COUNTS.items()))
def test_rooted_map_codes_are_the_rooted_maps(n_edges, expected):
    """Distinct breadth-first codes are distinct rooted maps, so with the
    A000698 count they are all of them, once each."""
    codes = list(rooted_maps(n_edges))
    assert len(codes) == expected
    assert len(set(codes)) == expected
    assert all(_is_bfs_code(*code) for code in codes)


@pytest.mark.parametrize(
    "n_edges,min_vertices",
    [(n, v) for n in range(1, 6) for v in range(1, 2 * n + 1)] + [(6, 7)],
)
def test_the_pruned_walk_is_the_filtered_walk(n_edges, min_vertices):
    """Bounding the vertex count below abandons exactly the codes with
    fewer vertices: the rooted maps with enough vertices, in walk order."""
    filtered = (
        code for code in rooted_maps(n_edges) if len(_cycles_of(code[0])) >= min_vertices
    )
    pruned = rooted_maps(n_edges, min_vertices)
    assert all(a == b for a, b in zip_longest(filtered, pruned))


@pytest.mark.parametrize("n_edges", [1, 2, 3, 4])
def test_shapes_match_the_permutation_sweep(n_edges):
    shapes = brauer_shapes(n_edges)
    assert all(set(g.multiplicities.values()) == {1} for g in shapes)
    keys = [tuple(step[:2] for step in canonical_form(g)) for g in shapes]
    assert len(set(keys)) == len(keys)
    assert set(keys) == brute_force_shape_keys(n_edges)


@pytest.mark.parametrize("bounds", [(4, 3), (5, 1)])
def test_census_is_the_dedup_census(bounds):
    """The orderly census gives each class of the canonical-form dedup
    exactly once."""
    forms = [canonical_form(g) for g in connected_brauer_graphs(*bounds)]
    assert len(set(forms)) == len(forms) == BRAUER_COUNTS[bounds]
    assert set(forms) == {canonical_form(g) for g in dedup_brauer_graphs(*bounds)}


def _orbit_sum_formula(n: int, m: int) -> Fraction:
    """n! [x^n] log sum_k m(m+1)...(m+2k-1) x^k / k!, in exact arithmetic.

    Over n labelled edges with oriented ends, sum over all rotation systems
    of m^(vertex count) is the rising factorial m(m+1)...(m+2n-1); the
    logarithm of the exponential generating function keeps the connected
    ones, and each class g is counted 2^n n! / |Aut(g)| times.
    """
    a = [Fraction(1)]
    for k in range(1, n + 1):
        a.append(a[-1] * (m + 2 * k - 2) * (m + 2 * k - 1) / k)
    b = [Fraction(0)] * (n + 1)
    for j in range(1, n + 1):
        b[j] = a[j] - sum((k * b[k] * a[j - k] for k in range(1, j)), Fraction(0)) / j
    return b[n] * factorial(n)


@pytest.mark.parametrize("max_mult,expected", sorted(ORBIT_SUMS.items()))
def test_census_satisfies_the_orbit_counting_identity(max_mult, expected):
    """|Aut(g)| is the number of starting germs that reach the canonical
    encoding, counted with the reference traversal; the degenerate single
    edge (|Aut| = 2) is the 1 missing at n = 1."""
    max_edges = len(expected)
    sums = [Fraction(0)] * max_edges
    for g in connected_brauer_graphs(max_edges, max_mult):
        n = len(g.edges)
        codes = [bfs_encoding(g, h) for h in g.half_edges]
        automorphisms = codes.count(min(codes))
        sums[n - 1] += Fraction(2**n * factorial(n), automorphisms)
    assert sums == expected
    formula = [_orbit_sum_formula(n, max_mult) - (n == 1) for n in range(1, max_edges + 1)]
    assert formula == expected


def test_successor_is_the_next_germ_of_the_rotation():
    rng = random.Random(3)
    for g in connected_brauer_graphs(3, 3):
        for graph in (g, relabel_brauer_graph(g, rng)):
            checked = 0
            for seq in graph.rotations.values():
                for i, h in enumerate(seq):
                    assert graph.successor(h) == seq[(i + 1) % len(seq)]
                    checked += 1
            assert checked == len(graph.half_edges)


def test_enumerated_graphs_validate_and_are_distinct():
    forms = set()
    for g in connected_brauer_graphs(3, 2):
        assert validate_brauer_graph(g) == []
        forms.add(canonical_form(g))
    assert len(forms) == BRAUER_COUNTS[(3, 2)]


def test_enumerated_graphs_yield_valid_algebras():
    for g in connected_brauer_graphs(3, 2):
        ssb = algebra_of(g)  # raises if the normalized validation fails
        assert ssb.dimension > 0


def test_enumeration_is_deterministic():
    first = [canonical_form(g) for g in connected_brauer_graphs(3, 1)]
    second = [canonical_form(g) for g in connected_brauer_graphs(3, 1)]
    assert first == second
    keys1 = [canonical_presentation_key(a.presentation) for a in gentle_algebras(3, 4)]
    keys2 = [canonical_presentation_key(a.presentation) for a in gentle_algebras(3, 4)]
    assert keys1 == keys2


def test_presentation_key_is_relabeling_invariant(a3r, fig1_algebra):
    for algebra in (a3r, fig1_algebra):
        pres = algebra.presentation
        vmap = {v: f"W{v}" for v in pres.quiver.vertices}
        amap = {a.name: f"G{a.name}" for a in pres.quiver.arrows}
        other = relabel_presentation(pres, vmap, amap)
        assert canonical_presentation_key(pres) == canonical_presentation_key(other)
        assert presentations_isomorphic(pres, other)


def test_presentation_key_separates(a3r, a2, loopx):
    keys = {
        canonical_presentation_key(algebra.presentation)
        for algebra in (a3r, a2, loopx)
    }
    assert len(keys) == 3


def test_enumerated_gentle_are_pairwise_distinct():
    algebras = list(gentle_algebras(2, 4))
    for i, a in enumerate(algebras):
        for b in algebras[i + 1 :]:
            assert not presentations_isomorphic(a.presentation, b.presentation)


def _shuffled(pres: Presentation, rng: random.Random) -> Presentation:
    """An isomorphic copy: vertices and arrows renamed at random, arrows and
    relations listed in a random order."""
    vertices = list(pres.quiver.vertices)
    arrows = [a.name for a in pres.quiver.arrows]
    vnames = [f"x{i}" for i in range(len(vertices))]
    anames = [f"g{i}" for i in range(len(arrows))]
    rng.shuffle(vnames)
    rng.shuffle(anames)
    copy = relabel_presentation(pres, dict(zip(vertices, vnames)), dict(zip(arrows, anames)))
    arrow_list = list(copy.quiver.arrows)
    relations = list(copy.relations)
    rng.shuffle(arrow_list)
    rng.shuffle(relations)
    return Presentation(Quiver(copy.quiver.vertices, arrow_list), relations)


def test_presentation_key_partition_matches_brute_force_oracle():
    """Equal keys exactly when the all-bijections oracle gives equal keys, on
    the gentle census, relabeled copies, and trivial extensions (which carry
    commutativity relations)."""
    rng = random.Random(11)
    presentations = []
    for algebra in gentle_algebras(4, 4):
        pres = algebra.presentation
        presentations.append(pres)
        presentations.extend(_shuffled(pres, rng) for _ in range(2))
        extension = trivial_extension(algebra).presentation
        presentations.extend((extension, _shuffled(extension, rng)))
    key_to_oracle: dict = {}
    oracle_to_key: dict = {}
    for pres in presentations:
        key, oracle = canonical_presentation_key(pres), brute_force_presentation_key(pres)
        assert key_to_oracle.setdefault(key, oracle) == oracle
        assert oracle_to_key.setdefault(oracle, key) == key
    assert len(key_to_oracle) > GENTLE_COUNTS[(4, 4)]


@lru_cache(maxsize=None)
def _gentle_46() -> tuple:
    return tuple(gentle_algebras(4, 6))


@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=GENTLE_COUNTS[(4, 6)] - 1),
    extend=st.booleans(),
    rng=st.randoms(use_true_random=False),
)
def test_presentation_key_is_invariant_under_random_relabeling(index, extend, rng):
    algebra = _gentle_46()[index]
    pres = trivial_extension(algebra).presentation if extend else algebra.presentation
    assert canonical_presentation_key(_shuffled(pres, rng)) == canonical_presentation_key(pres)


def _keys_by_size(algebras) -> tuple[dict[int, list], Counter]:
    """Presentation keys grouped by vertex count, and the number of
    algebras per (vertices, arrows)."""
    keys: dict[int, list] = defaultdict(list)
    sizes: Counter = Counter()
    for algebra in algebras:
        n = len(algebra.quiver.vertices)
        keys[n].append(canonical_presentation_key(algebra.presentation))
        sizes[n, len(algebra.quiver.arrows)] += 1
    return keys, sizes


def test_admissible_cuts_are_exactly_the_gentle_algebras():
    """Cut surjectivity: the census's admissible cuts of the
    multiplicity-one Brauer graphs with n edges, one per automorphism orbit
    of cutting sets, are the gentle algebras with n vertices of the
    reference census, which enumerates quivers and relations, each once.

    Counted by size, the gentle algebras with n vertices and a arrows
    number the cut orbits over the maps with n edges and 2n - a vertices;
    the census and the reference agree on every (n, a).  A map has a
    vertex, so a <= 2n - 1: neither census, asked for 2n arrows at n = 5,
    has an algebra with them at any n.

    Every cutting set of every such graph, not only the census's orbit
    representatives, is cut and keyed too: the keys are the reference's
    classes again, so cuts that an automorphism relates (or that differ
    only in the order of names) land in one class."""
    reference, reference_sizes = _keys_by_size(reference_gentle_algebras(5, 10))
    cuts: dict[int, set] = {n: set() for n in range(1, 6)}
    for g in connected_brauer_graphs(5, 1):
        ssb = algebra_of(g)
        for c in enumerate_cutting_sets(ssb):
            cut = admissible_cut(ssb, c).presentation
            cuts[len(g.edges)].add(canonical_presentation_key(cut))
    assert cuts == {n: set(reference[n]) for n in range(1, 6)}
    found, sizes = _keys_by_size(gentle_algebras(5, 10))
    assert [len(found[n]) for n in range(1, 6)] == [1, 9, 77, 894, 13398]
    assert all(len(set(keys)) == len(keys) for keys in found.values())
    assert {n: set(keys) for n, keys in found.items()} == {
        n: set(keys) for n, keys in reference.items()
    }
    assert sizes == reference_sizes
    assert sum(sizes.values()) == GENTLE_COUNTS[(5, 10)]
