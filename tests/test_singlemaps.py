"""Single-valued continuous self-maps: orbits, classification, enumeration."""

import itertools

import pytest

from linedyn import (
    Collapse,
    Direction,
    DynamicsTag,
    InconclusiveDynamicsError,
    Interval,
    NoPeriodTwoError,
    NotContinuousError,
    NotFoundError,
    OrbitStatus,
    OutOfWindowError,
    SelfMap,
    Shift,
    SizeGuardError,
    build_line_window,
    classify_dynamics,
    contains_interval_check,
    count_continuous_selfmaps,
    enumerate_continuous_selfmaps,
    image_of_interval,
    is_order_preserving_line,
    iterate,
    line_leq,
    period_two_set,
    periodic_points,
    selfmap_lefschetz,
)
from linedyn.catalog import (
    folded_mirror_selfmap,
    identity_selfmap,
    mirror_selfmap,
    shift_selfmap,
)

W2 = build_line_window(-2, 2)
CORPUS_2 = list(enumerate_continuous_selfmaps(W2))


def brute_force_continuous_count(w):
    """Filter all |W|^|W| functions by the adjacency condition. Oracle for small windows."""
    idx = list(w.indices)
    count = 0
    for vals in itertools.product(idx, repeat=len(idx)):
        f = dict(zip(idx, vals))
        ok = True
        for o in idx:
            if o % 2 == 0:
                continue
            for e in (o - 1, o + 1):
                if e in f and not line_leq(f[o], f[e]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_selfmap_validates_domain():
    w = build_line_window(-1, 1)
    with pytest.raises(NotFoundError):
        SelfMap(w, {-1: 0, 0: 0})
    with pytest.raises(NotFoundError):
        SelfMap(w, {-1: 0, 0: 0, 1: 0, 2: 0})


def test_selfmap_value_uses_tails():
    w = build_line_window(-1, 1)
    f = SelfMap(w, {-1: -1, 0: 0, 1: 1}, left_tail=Collapse(0), right_tail=Shift(2))
    assert f(0) == 0
    assert f.value(-5) == 0
    assert f.value(3) == 5
    g = SelfMap(w, {-1: -1, 0: 0, 1: 1})
    assert g.value(3) is None


def test_order_preservation_witness():
    f = SelfMap(build_line_window(-1, 1), {-1: 1, 0: -1, 1: 1})
    ok, witness = is_order_preserving_line(f)
    assert not ok
    assert witness == (-1, 0)
    assert f.check_continuity() == (False, (-1, 0))


def test_mirror_is_continuous():
    m = mirror_selfmap(3)
    assert m.check_continuity() == (True, None)
    ok, witness = is_order_preserving_line(m)
    assert ok and witness is None
    assert m.maps_into_window
    assert m.fixed_points() == frozenset({0})


def test_image_of_interval():
    m = mirror_selfmap(3)
    assert image_of_interval(m, 1, 3) == frozenset({-3, -2, -1})
    assert image_of_interval(m, 0, 0) == frozenset({0})
    s = shift_selfmap(build_line_window(-4, 4), 2)
    with pytest.raises(OutOfWindowError):
        image_of_interval(s, 3, 4)


def test_image_of_continuous_map_is_interval():
    for f in CORPUS_2:
        for a in W2.indices:
            for b in range(a, W2.hi + 1):
                img = image_of_interval(f, a, b)
                assert img == frozenset(range(min(img), max(img) + 1))
                assert contains_interval_check(f, a, b)


def test_iterate_periodic():
    m = mirror_selfmap(3)
    r = iterate(m, 2)
    assert r.status is OrbitStatus.PERIODIC
    assert r.points == (2, -2)
    assert r.period == 2 and r.preperiod == 0
    r0 = iterate(m, 0)
    assert r0.period == 1 and r0.points == (0,)


def test_iterate_drift():
    s = shift_selfmap(build_line_window(-4, 4), 2)
    r = iterate(s, 0, max_steps=12)
    assert r.status is OrbitStatus.LEFT_WINDOW
    assert r.direction is Direction.PLUS_INFINITY
    assert r.points == (0, 2, 4, 6)


def test_iterate_without_tail_is_inconclusive():
    f = SelfMap(build_line_window(0, 2), {0: 4, 1: 3, 2: 4})
    r = iterate(f, 0)
    assert r.status is OrbitStatus.INCONCLUSIVE
    assert "no tail rule" in r.reason


def test_iterate_budget_exhaustion():
    m = mirror_selfmap(3)
    r = iterate(m, 2, max_steps=1)
    assert r.status is OrbitStatus.INCONCLUSIVE
    assert "budget" in r.reason


def test_iterate_absorbed_outside_window():
    f = SelfMap(build_line_window(0, 2), {0: 4, 1: 3, 2: 4}, right_tail=Collapse(4))
    r = iterate(f, 0)
    assert r.status is OrbitStatus.PERIODIC
    assert r.points == (0, 4)
    assert r.period == 1 and r.preperiod == 1


def test_periodic_points_of_mirror():
    m = mirror_selfmap(3)
    assert periodic_points(m) == {
        1: frozenset({0}),
        2: frozenset({-3, -2, -1, 1, 2, 3}),
    }


def test_periodic_points_cap():
    m = mirror_selfmap(3)
    assert set(periodic_points(m, max_period=1)) == {1}


def test_classify_identity():
    c = classify_dynamics(identity_selfmap(W2))
    assert c.tag is DynamicsTag.IDENTITY


def test_classify_mirror():
    c = classify_dynamics(mirror_selfmap(3))
    assert c.tag is DynamicsTag.PERIOD_TWO_HOMEOMORPHISM
    assert c.fixed_point == 0
    assert c.interval == Interval(-3, 3)


def test_classify_folded_mirror():
    c = classify_dynamics(folded_mirror_selfmap(3))
    assert c.tag is DynamicsTag.PERIOD_TWO_ATTRACTOR
    assert c.fixed_point == 0
    assert c.interval == Interval(-1, 1)
    assert c.details["absorption_steps"] == 1


def test_classify_drifts():
    w = build_line_window(-4, 4)
    assert classify_dynamics(shift_selfmap(w, 2)).tag is DynamicsTag.DRIFT_RIGHT
    assert classify_dynamics(shift_selfmap(w, -2)).tag is DynamicsTag.DRIFT_LEFT


def test_classify_constant():
    c = classify_dynamics(SelfMap(W2, {i: 0 for i in W2.indices}))
    assert c.tag is DynamicsTag.EVENTUALLY_FIXED_INTERVAL
    assert c.interval == Interval(0, 0)
    assert c.details["absorption_steps"] == 1


def test_classify_plateau_of_fixed_points():
    f = SelfMap(W2, {-2: -2, -1: -1, 0: 0, 1: -1, 2: 0})
    c = classify_dynamics(f)
    assert c.tag is DynamicsTag.EVENTUALLY_FIXED_INTERVAL
    assert c.interval == Interval(-2, 0)


def test_classify_absorbed_outside_window():
    f = SelfMap(build_line_window(0, 2), {0: 4, 1: 3, 2: 4}, right_tail=Collapse(4))
    c = classify_dynamics(f)
    assert c.tag is DynamicsTag.EVENTUALLY_FIXED_INTERVAL
    assert c.fixed_point == 4
    assert c.details.get("fixed_outside_window") is True


def test_classify_inconclusive_without_tails():
    f = SelfMap(build_line_window(0, 2), {0: 4, 1: 3, 2: 4})
    with pytest.raises(InconclusiveDynamicsError):
        classify_dynamics(f)


def test_classify_requires_continuity():
    f = SelfMap(build_line_window(-1, 1), {-1: 1, 0: -1, 1: 1})
    with pytest.raises(NotContinuousError):
        classify_dynamics(f)


def test_period_two_set():
    assert period_two_set(mirror_selfmap(3)) == Interval(-3, 3)
    assert period_two_set(folded_mirror_selfmap(3)) == Interval(-1, 1)
    with pytest.raises(NoPeriodTwoError):
        period_two_set(identity_selfmap(W2))
    with pytest.raises(NoPeriodTwoError):
        period_two_set(shift_selfmap(build_line_window(-4, 4), 2))


def test_enumeration_counts_match_brute_force():
    for n in (1, 2):
        w = build_line_window(-n, n)
        assert count_continuous_selfmaps(w) == brute_force_continuous_count(w)


def test_enumeration_counts_frozen():
    # values from the brute-force oracle on the two smallest windows,
    # carried forward by the recursive enumerator for the larger two
    expected = {1: 11, 2: 99, 3: 811, 4: 6187}
    for n, count in expected.items():
        assert count_continuous_selfmaps(build_line_window(-n, n)) == count


def test_enumeration_yields_distinct_continuous_maps():
    seen = set()
    for f in CORPUS_2:
        assert f.check_continuity()[0]
        assert f.maps_into_window
        key = tuple(sorted(f.values.items()))
        assert key not in seen
        seen.add(key)
    assert len(seen) == 99


def test_enumeration_guard():
    big = build_line_window(-7, 7)
    with pytest.raises(SizeGuardError):
        count_continuous_selfmaps(big)
    with pytest.raises(SizeGuardError):
        list(enumerate_continuous_selfmaps(big))
    gen = enumerate_continuous_selfmaps(big, force=True)
    first = next(gen)
    assert first.check_continuity()[0]


def test_enumerated_maps_have_low_periods():
    for f in CORPUS_2:
        assert set(periodic_points(f)) <= {1, 2}


def test_classification_is_mirror_conjugation_invariant():
    for f in CORPUS_2:
        g = SelfMap(W2, {i: -f(-i) for i in W2.indices})
        cf, cg = classify_dynamics(f), classify_dynamics(g)
        assert cf.tag is cg.tag
        if cf.interval is not None:
            assert (cg.interval.lo, cg.interval.hi) == (-cf.interval.hi, -cf.interval.lo)


def test_selfmap_lefschetz():
    assert selfmap_lefschetz(mirror_selfmap(3)) == 1
    assert selfmap_lefschetz(identity_selfmap(W2)) == 1
    with pytest.raises(OutOfWindowError):
        selfmap_lefschetz(shift_selfmap(build_line_window(-4, 4), 2))


def test_selfmap_json_round_trip():
    from linedyn import parse_map

    m = mirror_selfmap(3)
    assert parse_map(m.to_json()) == m
    f = SelfMap(build_line_window(0, 2), {0: 0, 1: 1, 2: 2}, right_tail=Shift(2))
    assert parse_map(f.to_json()) == f
