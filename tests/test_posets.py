"""Finite poset construction, order queries, cores, and isomorphism."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linedyn import InvalidPosetError, NotFoundError, Poset, build_line_window, is_isomorphic
from linedyn.catalog import antichain_poset, chain_poset, minimal_circle_poset
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


@given(random_posets())
def test_core_preserves_homology(p):
    core, _ = p.core()
    a, b = homology(p), homology(core)
    assert {k: v for k, v in a.betti.items() if v} == {k: v for k, v in b.betti.items() if v}
    assert {k: t for k, t in a.torsion.items() if t} == {k: t for k, t in b.torsion.items() if t}


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
