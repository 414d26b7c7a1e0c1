"""Order structure of the integer-indexed line and its finite windows."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linedyn import (
    Collapse,
    Direction,
    Interval,
    InvalidRangeError,
    InvalidTailError,
    Mirror,
    NoTail,
    NotFoundError,
    Shift,
    build_line_window,
    interval_indices,
    is_maximal_index,
    is_minimal_index,
    line_leq,
    tail_from_json,
    tends_to,
)

small_ints = st.integers(min_value=-50, max_value=50)


def test_line_leq_basic_pairs():
    assert line_leq(0, 0)
    assert line_leq(1, 0)
    assert line_leq(1, 2)
    assert line_leq(-3, -2)
    assert not line_leq(0, 1)
    assert not line_leq(1, 3)
    assert not line_leq(2, 4)


@given(small_ints, small_ints)
def test_line_leq_closed_form(i, j):
    expected = i == j or (abs(i - j) == 1 and i % 2 != 0)
    assert line_leq(i, j) == expected


@given(small_ints, small_ints)
def test_line_leq_antisymmetric(i, j):
    if line_leq(i, j) and line_leq(j, i):
        assert i == j


@given(small_ints)
def test_index_parity_roles(i):
    assert is_minimal_index(i) == (i % 2 != 0)
    assert is_maximal_index(i) == (i % 2 == 0)
    assert is_minimal_index(i) != is_maximal_index(i)


def test_interval_indices_order_insensitive():
    assert list(interval_indices(0, 3)) == [0, 1, 2, 3]
    assert list(interval_indices(3, 0)) == [0, 1, 2, 3]
    assert list(interval_indices(2, 2)) == [2]


def test_interval_endpoints_and_points():
    iv = Interval(3, 0)
    assert iv.lo == 0 and iv.hi == 3
    # same point set as the reversed interval, but orientation is kept
    assert iv == Interval(0, 3)
    assert iv.points == (3, 2, 1, 0)
    assert Interval(0, 3).points == (0, 1, 2, 3)
    assert iv.point_set == frozenset({0, 1, 2, 3})
    assert 2 in iv and 4 not in iv
    assert len(iv) == 4
    assert list(iv) == [3, 2, 1, 0]


def test_interval_hash_consistent_with_eq():
    assert hash(Interval(3, 0)) == hash(Interval(0, 3))
    assert len({Interval(0, 3), Interval(3, 0), Interval(1, 1)}) == 2


def test_shift_rule_requires_even_offset():
    # odd shifts do not preserve the min/max parity pattern
    with pytest.raises(InvalidTailError):
        Shift(1)
    with pytest.raises(InvalidTailError):
        Shift(-3)
    assert Shift(2).apply(5) == 7
    assert Shift(-4).apply(1) == -3


def test_tail_rule_apply():
    assert NoTail().apply(9) is None
    assert Collapse(0).apply(99) == 0
    assert Mirror().apply(7) == -7
    assert Mirror().apply(-4) == 4


@given(st.sampled_from([NoTail(), Shift(2), Shift(-6), Collapse(3), Collapse(-1), Mirror()]))
def test_tail_json_round_trip(rule):
    assert tail_from_json(rule.to_json()) == rule


def test_tail_from_json_rejects_unknown_kind():
    with pytest.raises(InvalidTailError):
        tail_from_json({"kind": "teleport"})
    # a tail is an object, and its offset or target a JSON integer
    for obj in (
        "mirror",
        [],
        {"kind": "shift"},
        {"kind": "shift", "offset": "2"},
        {"kind": "shift", "offset": True},
        {"kind": "collapse", "target": 1.5},
        {"kind": "collapse", "target": False},
    ):
        with pytest.raises(InvalidTailError):
            tail_from_json(obj)


def test_tends_to_directions():
    assert tends_to(Shift(2)) is Direction.PLUS_INFINITY
    assert tends_to(Shift(-2)) is Direction.MINUS_INFINITY
    assert tends_to(Shift(0)) is Direction.NEITHER
    assert tends_to(NoTail()) is Direction.NEITHER
    assert tends_to(Collapse(5)) is Direction.NEITHER
    assert tends_to(Mirror()) is Direction.NEITHER


def test_window_rejects_reversed_range():
    with pytest.raises(InvalidRangeError):
        build_line_window(2, -2)


def test_window_size_and_membership():
    w = build_line_window(-2, 2)
    assert w.size == 5
    assert len(w) == 5
    assert list(w) == [-2, -1, 0, 1, 2]
    assert 2 in w and 3 not in w
    w.check_member(0)
    with pytest.raises(NotFoundError):
        w.check_member(5)


def test_window_minimal_open_sets():
    w = build_line_window(-2, 2)
    # odd points are open on their own, even points pull in both odd neighbors
    assert w.minimal_open(1) == frozenset({1})
    assert w.minimal_open(0) == frozenset({-1, 0, 1})
    # truncated at the boundary
    assert w.minimal_open(2) == frozenset({1, 2})
    assert w.minimal_open(-2) == frozenset({-2, -1})


def test_window_heights():
    w = build_line_window(-2, 2)
    assert w.height(1) == 0
    assert w.height(0) == 1
    assert w.height() == 1
    assert build_line_window(1, 1).height() == 0


def test_window_poset_covers_are_adjacencies():
    w = build_line_window(-2, 2)
    p = w.poset
    assert set(p.elements) == set(w.indices)
    assert set(p.covers) == {(-1, -2), (-1, 0), (1, 0), (1, 2)}
    assert p.is_connected()


def test_window_clip():
    w = build_line_window(-3, 3)
    assert w.clip(10) == 3
    assert w.clip(-10) == -3
    assert w.clip(2) == 2


def test_window_equality_includes_tails():
    a = build_line_window(-1, 1)
    b = a.with_tails(Shift(2), Shift(2))
    assert a == build_line_window(-1, 1)
    assert a != b
    assert b == build_line_window(-1, 1, left_tail=Shift(2), right_tail=Shift(2))


def test_window_dot_output():
    w = build_line_window(-2, 2)
    dot = w.to_dot()
    assert dot.count("label=") == 5
    assert dot.count("->") == 4
    assert "x-2" in dot and "x2" in dot


def test_singleton_window():
    w = build_line_window(0, 0)
    assert w.size == 1
    assert w.poset.covers == ()
