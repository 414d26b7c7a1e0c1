"""Finite poset construction, order queries, cores, and isomorphism."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linedyn import (
    InvalidPosetError,
    NotFoundError,
    Poset,
    build_line_window,
    face_poset,
    graph_poset,
    interval_triangulation,
    is_isomorphic,
    order_complex,
)
from linedyn.catalog import (
    antichain_poset,
    chain_poset,
    constant_interval_map,
    expanding_interval_map,
    minimal_circle_poset,
    split_point_map,
    three_zone_flow_map,
)
from linedyn.homology import homology


def fence_poset(n):
    return build_line_window(-n, n).poset


@st.composite
def random_posets(draw):
    """Posets built by transitively closing an acyclic pair set on 0..n-1."""
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
            max_size=10,
        )
    )
    return Poset.from_relation(range(n), pairs)


def test_from_relation_takes_transitive_closure():
    p = Poset.from_relation([0, 1, 2], [(0, 1), (1, 2)])
    assert p.leq(0, 2)
    assert p.lt(0, 2)
    assert not p.leq(2, 0)


def test_from_relation_rejects_cycles():
    with pytest.raises(InvalidPosetError):
        Poset.from_relation([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(InvalidPosetError):
        Poset.from_relation([0, 1, 2], [(0, 1), (1, 2), (2, 0)])


def test_constructors_agree_on_chain():
    n = 4
    a = Poset.from_relation(range(n), [(i, i + 1) for i in range(n - 1)])
    b = Poset.from_covers(range(n), [(i, i + 1) for i in range(n - 1)])
    c = Poset.from_leq(range(n), lambda x, y: x <= y)
    for p in (a, b, c):
        for x, y in itertools.product(range(n), repeat=2):
            assert p.leq(x, y) == (x <= y)


def test_covers_are_irredundant():
    p = Poset.from_leq(range(4), lambda x, y: x <= y)
    assert set(p.covers) == {(0, 1), (1, 2), (2, 3)}


@given(random_posets())
def test_covers_match_definition(p):
    expected = [
        (a, b) for b in p.elements for a in p.elements
        if p.lt(a, b) and not any(p.lt(a, c) and p.lt(c, b) for c in p.elements)
    ]
    assert list(p.covers) == expected


def test_down_and_up_sets():
    p = fence_poset(2)
    assert p.down_set(0) == frozenset({-1, 0, 1})
    assert p.down_set(1) == frozenset({1})
    assert p.up_set(1) == frozenset({0, 1, 2})
    assert p.minimal_open(0) == p.down_set(0)
    assert p.strictly_below(0) == frozenset({-1, 1})


def test_unknown_element_raises():
    p = chain_poset(3)
    with pytest.raises(NotFoundError):
        p.down_set(99)


def test_minimal_and_maximal_elements():
    p = fence_poset(2)
    assert set(p.minimal_elements()) == {-1, 1}
    assert set(p.maximal_elements()) == {-2, 0, 2}
    q = antichain_poset(3)
    assert set(q.minimal_elements()) == set(q.maximal_elements()) == {0, 1, 2}


def test_heights():
    p = chain_poset(3)
    assert [p.height(x) for x in p.elements] == [0, 1, 2]
    assert p.height() == 2
    f = fence_poset(1)
    assert f.height(-1) == 0 and f.height(0) == 1


def test_comparable():
    p = fence_poset(1)
    assert p.comparable(-1, 0)
    assert not p.comparable(-1, 1)


def test_induced_subposet():
    p = chain_poset(5)
    q = p.induced([0, 2, 4])
    assert set(q.elements) == {0, 2, 4}
    assert q.leq(0, 4)
    assert set(q.covers) == {(0, 2), (2, 4)}
    # a one-shot iterator gives the same subposet as a list
    assert p.induced(x for x in [0, 2, 4]) == q
    w = fence_poset(2)
    assert len(w.induced(x for x in [-1, 0, 1])) == 3


def test_product_of_chains_is_grid():
    two = chain_poset(2)
    d = two.product(two)
    assert len(d.elements) == 4
    assert d.leq((0, 0), (1, 1))
    assert not d.comparable((0, 1), (1, 0))
    assert d.height() == 2


def test_linear_extension_respects_order():
    p = fence_poset(3)
    order = p.linear_extension()
    pos = {x: k for k, x in enumerate(order)}
    assert sorted(order) == sorted(p.elements)
    for x, y in itertools.product(p.elements, repeat=2):
        if p.lt(x, y):
            assert pos[x] < pos[y]


@given(random_posets())
def test_linear_extension_respects_order_random(p):
    pos = {x: k for k, x in enumerate(p.linear_extension())}
    for x, y in itertools.product(p.elements, repeat=2):
        if p.lt(x, y):
            assert pos[x] < pos[y]


def test_chains_of_small_chain():
    p = chain_poset(3)
    got = sorted(p.chains(), key=lambda c: (len(c), c))
    assert got == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    assert sorted(p.chains(max_length=1)) == [(0,), (1,), (2,)]


def test_chains_of_antichain_are_singletons():
    p = antichain_poset(4)
    assert sorted(p.chains()) == [(0,), (1,), (2,), (3,)]


def test_is_chain():
    p = fence_poset(2)
    assert p.is_chain([1, 0])
    assert p.is_chain([2])
    assert not p.is_chain([-1, 1])


def test_is_connected():
    assert fence_poset(3).is_connected()
    assert not antichain_poset(2).is_connected()
    assert antichain_poset(1).is_connected()


def test_is_order_preserving_with_witness():
    w = build_line_window(-2, 2)
    p = w.poset
    ok, witness = p.is_order_preserving(lambda i: -i, p)
    assert ok and witness is None
    bad = {-2: -2, -1: -1, 0: 1, 1: 1, 2: 2}
    ok, witness = p.is_order_preserving(bad, p)
    assert not ok
    x, y = witness
    assert p.leq(x, y) and not p.leq(bad[x], bad[y])


def test_core_of_fence_is_point():
    p = fence_poset(3)
    core, retraction = p.core()
    assert len(core.elements) == 1
    assert set(retraction) == set(p.elements)
    assert set(retraction.values()) <= set(core.elements)


def test_core_of_circle_is_itself():
    c = minimal_circle_poset()
    core, retraction = c.core()
    assert len(core.elements) == 4
    assert retraction == {x: x for x in c.elements}


def test_core_retraction_is_order_preserving_and_fixes_core():
    p = Poset.from_covers(range(6), [(0, 2), (1, 2), (1, 3), (2, 4), (3, 5)])
    core, r = p.core()
    ok, _ = p.is_order_preserving(r, core)
    assert ok
    for x in core.elements:
        assert r[x] == x


def oracle_core(p):
    """Beat-point removal by rescanning every live element for each
    candidate, O(n^3); the reference for ``Poset.core``."""
    elems = list(p.elements)
    down = {x: set(p.down_set(x)) for x in elems}
    retract = {x: x for x in elems}
    alive = set(elems)

    def beat_target(x):
        above = [y for y in alive if y != x and x in down[y]]
        if above:
            mins = [y for y in above if not any(z != y and z in down[y] for z in above)]
            if len(mins) == 1:
                return mins[0]
        below = [y for y in alive if y != x and y in down[x]]
        if below:
            maxs = [y for y in below if not any(z != y and y in down[z] for z in below)]
            if len(maxs) == 1:
                return maxs[0]
        return None

    changed = True
    while changed:
        changed = False
        for x in list(alive):
            if len(alive) == 1:
                break
            target = beat_target(x)
            if target is not None:
                alive.discard(x)
                for y in alive:
                    down[y].discard(x)
                for orig, img in retract.items():
                    if img == x:
                        retract[orig] = target
                changed = True
    core_elems = [x for x in elems if x in alive]
    return Poset(core_elems, {x: frozenset(down[x]) for x in core_elems}), retract


def has_beat_point(p):
    return any(len(p.covers_of(x)) == 1 or len(p.covered_by(x)) == 1 for x in p)


def assert_core_matches_oracle(p):
    core, r = p.core()
    assert not has_beat_point(core)
    expected, _ = oracle_core(p)
    assert not has_beat_point(expected)
    assert is_isomorphic(core, expected)[0]
    assert set(r) == set(p.elements)
    assert set(r.values()) <= set(core.elements)
    assert all(r[x] == x for x in core.elements)
    ok, _ = p.is_order_preserving(r, core)
    assert ok
    for x in core.elements:
        assert core.down_set(x) == p.down_set(x) & set(core.elements)


@given(random_posets())
def test_core_matches_oracle(p):
    assert_core_matches_oracle(p)


def test_core_matches_oracle_on_seeded_posets():
    # from about nine points on, a worklist that also linked a lower cover to
    # an upper cover it reaches through another cover would leave beat points
    rng = random.Random(20)
    for _ in range(300):
        n = rng.randint(6, 10)
        density = rng.choice([0.2, 0.3, 0.45])
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < density]
        assert_core_matches_oracle(Poset.from_relation(range(n), pairs))
    assert_core_matches_oracle(Poset.from_covers(range(9), [
        (0, 3), (1, 3), (0, 4), (1, 4), (2, 5), (4, 5), (0, 6), (1, 6), (2, 7), (4, 7),
        (3, 8), (4, 8),
    ]))


def test_core_of_empty_poset_is_empty():
    core, r = Poset([], {}).core()
    assert len(core) == 0 and r == {}


def assert_same_homology_as_order_complex(p):
    for reduced in (True, False):
        a = homology(p, reduced=reduced)
        b = homology(order_complex(p), reduced=reduced)
        assert a == b
        assert list(a.betti) == list(b.betti) and list(a.torsion) == list(b.torsion)
        assert a.to_json() == b.to_json()


@given(random_posets())
def test_core_preserves_homology(p):
    assert_same_homology_as_order_complex(p)


def test_core_preserves_homology_on_corpus():
    posets = [Poset([], {}), minimal_circle_poset(), antichain_poset(3), chain_poset(4)]
    posets += [build_line_window(lo, lo + n - 1).poset for n in range(1, 41) for lo in (0, 1)]
    posets += [face_poset(interval_triangulation(n)) for n in range(7)]
    zone_maps = [three_zone_flow_map(n) for n in (1, 2, 3, 8)]
    zone_maps += [constant_interval_map(build_line_window(-2, 4)), expanding_interval_map(4)]
    zone_maps += [split_point_map(1), split_point_map(2)]
    posets += [graph_poset(F).poset for F in zone_maps]
    for p in posets:
        assert_same_homology_as_order_complex(p)


def test_isomorphism_positive():
    a = fence_poset(2)
    b = Poset.from_covers("vwxyz", [("w", "v"), ("w", "x"), ("y", "x"), ("y", "z")])
    ok, phi = is_isomorphic(a, b)
    assert ok
    assert sorted(phi) == sorted(a.elements)
    for x, y in itertools.product(a.elements, repeat=2):
        assert a.leq(x, y) == b.leq(phi[x], phi[y])


def test_isomorphism_negative():
    assert not is_isomorphic(chain_poset(5), fence_poset(2))[0]
    assert not is_isomorphic(chain_poset(2), chain_poset(3))[0]
    # equal-size windows of opposite boundary parity are dual, not isomorphic
    a = build_line_window(0, 4).poset
    b = build_line_window(1, 5).poset
    assert not is_isomorphic(a, b)[0]


def test_to_dot_mentions_all_elements():
    p = fence_poset(1)
    dot = p.to_dot()
    assert "rankdir" in dot
    for x in p.elements:
        assert str(x) in dot
