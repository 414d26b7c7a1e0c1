"""Interval-valued maps: graph posets, fiber checks, Lefschetz numbers,
orbit enumeration, and invariant set classification."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linedyn import (
    Interval,
    InvalidMapError,
    InvalidMultiMapError,
    LefschetzResult,
    MultiMap,
    NotFoundError,
    NotVietorisError,
    as_multimap,
    build_line_window,
    classify_invariant_sets,
    fixed_points,
    graph_poset,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
    lefschetz_number,
    orbit_stream,
    parse_map,
    period_spectrum,
    periodic_orbits,
    selfmap_lefschetz,
    transition_graph,
)
from linedyn.complexes import SimplicialMap
from linedyn.homology import (
    homology_map_from_simplicial,
    invert_matrix,
    is_acyclic,
    rational_homology_basis,
    trace,
)
from linedyn.catalog import (
    constant_interval_map,
    expanding_interval_map,
    identity_multimap,
    identity_selfmap,
    mirror_selfmap,
    shift_selfmap,
    split_point_map,
    three_zone_flow_map,
)
from linedyn.line import line_leq
from linedyn.multimaps import _cover_witness
from linedyn.posets import Poset

BAND = constant_interval_map(build_line_window(1, 3))
THREE_ZONE = three_zone_flow_map(10)


def mirrored(F):
    vals = {i: frozenset(-v for v in F.value(-i)) for i in F.window.indices}
    return MultiMap(F.window, vals, clipped={-c for c in F.clipped})


def test_multimap_validation():
    w = build_line_window(0, 2)
    with pytest.raises(InvalidMultiMapError):
        MultiMap(w, {0: [], 1: [1], 2: [2]})
    with pytest.raises(InvalidMultiMapError):
        MultiMap(w, {0: [5], 1: [1], 2: [2]})
    with pytest.raises(InvalidMultiMapError):
        MultiMap(w, {0: [0], 1: [1]})


def test_from_rule_records_clipping():
    w = build_line_window(0, 2)
    F = MultiMap.from_rule(w, lambda i: [i, i + 1])
    assert F.clipped == frozenset({2})
    assert F.value(2) == frozenset({2})
    assert F.value(0) == frozenset({0, 1})
    with pytest.raises(InvalidMultiMapError):
        MultiMap.from_rule(w, lambda i: [i, i + 1], clip=False)


def test_singleton_conversion_round_trip():
    w = build_line_window(-1, 1)
    i = identity_multimap(w)
    assert i.is_singleton_valued
    assert i.to_selfmap().values == {-1: -1, 0: 0, 1: 1}
    assert not BAND.is_singleton_valued
    with pytest.raises(InvalidMultiMapError):
        BAND.to_selfmap()


def test_as_multimap_requires_window_image():
    m = as_multimap(mirror_selfmap(2))
    assert m.is_singleton_valued
    assert m.value(2) == frozenset({-2})
    with pytest.raises(InvalidMultiMapError):
        as_multimap(shift_selfmap(build_line_window(-4, 4), 2))


def test_fixed_points():
    assert fixed_points(BAND) == frozenset({1, 2, 3})
    assert BAND.fixed_point_set() == frozenset({1, 2, 3})
    # the split point itself is not fixed, but its neighbors are
    assert fixed_points(split_point_map(1)) == frozenset({-1, 1})
    assert fixed_points(THREE_ZONE) == frozenset(range(-7, 11))


def test_multimap_json_round_trip():
    for F in (BAND, THREE_ZONE, split_point_map(1), expanding_interval_map(12)):
        assert parse_map(F.to_json()) == F
    j = THREE_ZONE.to_json()
    assert sorted(j) == ["clipped", "kind", "values", "window"]


def test_graph_poset_of_band():
    gp = graph_poset(BAND)
    assert len(gp.poset.elements) == 9
    assert gp.p[(1, 2)] == 1 and gp.q[(1, 2)] == 2
    # each first-projection fiber is a copy of the value interval
    fiber = [g for g, v in gp.p.items() if v == 2]
    sub = gp.poset.induced(fiber)
    assert len(sub.elements) == 3
    assert sub.is_connected()
    assert sub.height() == 1


def test_graph_poset_of_identity_matches_window():
    from linedyn import is_isomorphic

    w = build_line_window(-2, 2)
    gp = graph_poset(identity_multimap(w))
    ok, _ = is_isomorphic(gp.poset, w.poset)
    assert ok


def test_vietoris_check_on_poset_maps():
    p = build_line_window(-1, 1).poset
    ok, witness = is_vietoris_like_map({x: x for x in p.elements}, p, p)
    assert ok and witness is None
    # a constant map has an empty preimage over the other minimal point
    ok, witness = is_vietoris_like_map({x: -1 for x in p.elements}, p, p)
    assert not ok
    assert witness == (1,)
    with pytest.raises(InvalidMapError):
        is_vietoris_like_map({-1: 0, 0: -1, 1: 1}, p, p)


def test_vietoris_like_multimaps():
    assert is_vietoris_like_multimap(BAND) == (True, None)
    assert is_vietoris_like_multimap(expanding_interval_map(12)) == (True, None)
    assert is_vietoris_like_multimap(THREE_ZONE) == (True, None)
    embedded = constant_interval_map(build_line_window(-2, 6))
    assert is_vietoris_like_multimap(embedded) == (True, None)


def test_split_point_fails_vietoris_with_singleton_witness():
    ok, witness = is_vietoris_like_multimap(split_point_map(1))
    assert not ok
    assert witness == (0,)
    # the fiber over the witness point is two incomparable graph elements
    F = split_point_map(1)
    gp = graph_poset(F)
    fiber = [g for g in gp.poset.elements if gp.p[g] == 0]
    assert sorted(fiber) == [(0, -1), (0, 1)]
    sub = gp.poset.induced(fiber)
    assert not sub.is_connected()


def _general_lefschetz(F):
    """Oracle: push rational cycle bases through both projections of the
    graph and invert the first; exact rational arithmetic throughout."""
    gp = graph_poset(F)
    gamma_basis = rational_homology_basis(gp.poset)
    window_basis = rational_homology_basis(F.window.poset)
    p_simpl = SimplicialMap(gamma_basis.complex, window_basis.complex, gp.p)
    q_simpl = SimplicialMap(gamma_basis.complex, window_basis.complex, gp.q)
    p_mats = homology_map_from_simplicial(p_simpl, gamma_basis, window_basis)
    q_mats = homology_map_from_simplicial(q_simpl, gamma_basis, window_basis)
    top = max(gamma_basis.chain.dimension, window_basis.chain.dimension, 0)
    for k in range(top + 1):
        assert gamma_basis.dim(k) == window_basis.dim(k), f"homology differs in degree {k}"
    traces = {}
    total = Fraction(0)
    for k in sorted(set(p_mats) | set(q_mats)):
        q_k = q_mats.get(k, [])
        inv = invert_matrix(p_mats.get(k, []))
        assert inv is not None, f"projection is singular on degree {k} homology"
        if not inv:
            continue
        m = [
            [sum(q_k[i][t] * inv[t][j] for t in range(len(inv))) for j in range(len(inv))]
            for i in range(len(q_k))
        ]
        traces[k] = trace(m)
        total += (-1) ** k * traces[k]
    return LefschetzResult(traces=traces, lambda_=total, fixed_point_predicted=total != 0)


def small_multimaps(sizes, value_sets):
    """Every map on windows of the given sizes, both parities, whose value
    sets come from value_sets(window)."""
    for lo in (0, 1):
        for n in sizes:
            w = build_line_window(lo, lo + n - 1)
            for vals in itertools.product(value_sets(w), repeat=n):
                yield MultiMap(w, dict(zip(w.indices, vals)))


def all_value_sets(w):
    return [
        frozenset(c) for r in range(1, w.size + 1) for c in itertools.combinations(w.indices, r)
    ]


def interval_value_sets(w):
    return [frozenset(range(a, b + 1)) for a in w.indices for b in w.indices if a <= b]


def test_local_vietoris_check_matches_global_oracle():
    corpus = itertools.chain(
        small_multimaps((1, 2, 3), all_value_sets),
        small_multimaps((4,), interval_value_sets),
    )
    count = 0
    for F in corpus:
        gp = graph_poset(F)
        assert is_vietoris_like_multimap(F) == is_vietoris_like_map(
            gp.p, gp.poset, F.window.poset
        ), F.values
        count += 1
    assert count == 2 * (1 + 3**2 + 7**3 + 10**4)


def _cover_fibre_acyclic(odd_values, even_values):
    """Oracle: homology of the graph fibre over a cover chain {o, e}, given
    F(o) and F(e).

    The fibre is {o} x F(o) together with {e} x F(e), each ordered as F(o)
    and F(e) are on the line, with (o, y) below (e, z) exactly when y <= z
    on the line; its shape depends only on the two value sets.
    """
    elements = [(0, y) for y in sorted(odd_values)] + [(1, z) for z in sorted(even_values)]
    return is_acyclic(
        Poset.from_leq(elements, lambda s, t: s[0] <= t[0] and line_leq(s[1], t[1]))
    )


def test_cover_witness_matches_fibre_homology_oracle():
    """Every ordered pair of runs in a 14-point stretch, as the values of
    the odd and the even point of a cover pair, on 2-point windows of both
    parities."""
    runs = [(a, b) for a in range(-6, 8) for b in range(a, 8)]
    assert len(runs) == 105
    passed = 0
    for odd_run, even_run in itertools.product(runs, repeat=2):
        ok = _cover_fibre_acyclic(range(odd_run[0], odd_run[1] + 1),
                                  range(even_run[0], even_run[1] + 1))
        passed += ok
        # window [1, 2] has the odd point first, [0, 1] the even point first
        assert _cover_witness(1, [odd_run, even_run]) == (None if ok else (1, 2))
        assert _cover_witness(0, [even_run, odd_run]) == (None if ok else (1, 0))
    assert passed == 7840  # of 11,025: both verdicts are exercised


@pytest.mark.parametrize(
    "odd_values, even_values, acyclic",
    [
        ({1}, {2, 3}, True),    # odd end 1 lies below 2
        ({2}, {3, 4}, False),   # 2 is even: below nothing but itself
        ({3}, {1, 2}, True),    # odd end 3 lies below 2
        ({4}, {2, 3}, False),   # 4 is even
    ],
)
def test_touching_value_runs(odd_values, even_values, acyclic):
    assert _cover_fibre_acyclic(odd_values, even_values) == acyclic
    # x_1 is odd and x_2 even; the other cover pairs repeat a value set, so
    # their runs meet and only {1, 2} can fail
    w = build_line_window(0, 4)
    F = MultiMap(w, {0: odd_values, 1: odd_values, 2: even_values, 3: even_values, 4: even_values})
    expected = (True, None) if acyclic else (False, (1, 2))
    assert is_vietoris_like_multimap(F) == expected
    gp = graph_poset(F)
    assert is_vietoris_like_map(gp.p, gp.poset, w.poset) == expected


def test_lefschetz_matches_general_oracle_on_small_maps():
    vietoris = [
        F for F in small_multimaps((1, 2, 3), all_value_sets) if is_vietoris_like_multimap(F)[0]
    ]
    assert len(vietoris) == 342
    for F in vietoris:
        assert lefschetz_number(F).lambda_ == _general_lefschetz(F).lambda_ == 1


def test_lefschetz_band():
    r = lefschetz_number(BAND)
    assert r.lambda_ == 1
    assert r.fixed_point_predicted
    assert r.traces == {0: 1}
    assert _general_lefschetz(BAND) == r


def test_lefschetz_singleton_strategy():
    for F in (as_multimap(mirror_selfmap(3)), identity_multimap(build_line_window(-2, 2))):
        assert lefschetz_number(F).lambda_ == _general_lefschetz(F).lambda_ == 1


def test_lefschetz_general_strategy_agrees():
    for F in (BAND, identity_multimap(build_line_window(-2, 2)), expanding_interval_map(4)):
        assert _general_lefschetz(F).lambda_ == lefschetz_number(F).lambda_ == 1


def test_lefschetz_rejects_non_vietoris():
    with pytest.raises(NotVietorisError):
        lefschetz_number(split_point_map(1))
    # the oracle sees why: the graph has two components over a contractible window
    with pytest.raises(AssertionError, match="degree 0"):
        _general_lefschetz(split_point_map(1))


def test_lefschetz_agrees_with_single_valued_computation():
    for f in (mirror_selfmap(3), identity_selfmap(build_line_window(-2, 2))):
        assert lefschetz_number(as_multimap(f)).lambda_ == selfmap_lefschetz(f)


def test_periodic_orbits_of_band():
    assert periodic_orbits(BAND, 3) == {
        1: [(1,), (2,), (3,)],
        2: [(1, 2), (1, 3), (2, 3)],
        3: [(1, 2, 3), (1, 3, 2)],
    }
    assert periodic_orbits(BAND, 2) == {
        1: [(1,), (2,), (3,)],
        2: [(1, 2), (1, 3), (2, 3)],
    }


def test_period_spectrum():
    assert period_spectrum(BAND, 3) == frozenset({1, 2, 3})
    assert period_spectrum(identity_multimap(build_line_window(-2, 2)), 5) == frozenset({1})
    assert period_spectrum(THREE_ZONE, 4) == frozenset({1})
    spectrum = period_spectrum(expanding_interval_map(10), 5)
    assert spectrum >= {1, 2, 3, 4, 5}


def test_periodic_orbits_are_normalized_and_deterministic():
    a = periodic_orbits(expanding_interval_map(10), 4)
    b = periodic_orbits(expanding_interval_map(10), 4)
    assert a == b
    for period, orbits in a.items():
        assert orbits == sorted(orbits)
        for orbit in orbits:
            assert len(orbit) == period
            assert orbit[0] == min(orbit)


def test_orbit_stream_least_index():
    assert orbit_stream(BAND, 1, max_steps=6) == [1, 2, 1, 2, 1, 2, 1]
    assert orbit_stream(BAND, 1, max_steps=6, stall_bound=2) == [1, 1, 2, 1, 1, 2, 1]


def test_orbit_stream_enters_attracting_zone():
    assert orbit_stream(THREE_ZONE, -4, max_steps=8) == [-4, -3, -2, -1, -1, -1, -1, -1, -1]
    assert orbit_stream(THREE_ZONE, -9, max_steps=6) == [-9, -7, -7, -7, -7, -7, -7]
    assert orbit_stream(THREE_ZONE, 6, max_steps=6) == [6] * 7


def test_orbit_stream_random_policy():
    a = orbit_stream(BAND, 1, policy="random", seed=7, max_steps=20)
    b = orbit_stream(BAND, 1, policy="random", seed=7, max_steps=20)
    assert a == b
    for x, y in zip(a, a[1:]):
        assert y in BAND.value(x)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_orbit_stream_steps_are_valid_transitions(seed):
    walk = orbit_stream(THREE_ZONE, -10, policy="random", seed=seed, max_steps=25)
    assert walk[0] == -10
    for x, y in zip(walk, walk[1:]):
        assert y in THREE_ZONE.value(x)
    # a point with other options never rests longer than the stall bound
    for x, y in zip(walk, walk[1:]):
        if x == y:
            assert len(THREE_ZONE.value(x)) == 1 or x in THREE_ZONE.value(x)


def test_orbit_stream_argument_errors():
    with pytest.raises(NotFoundError):
        orbit_stream(THREE_ZONE, 99)
    with pytest.raises(ValueError):
        orbit_stream(THREE_ZONE, 0, policy="teleport")


def test_three_zone_invariant_sets():
    report = classify_invariant_sets(THREE_ZONE)
    assert not report.degenerate
    assert [
        (s.interval, s.kind, s.left_side, s.right_side) for s in report.sets
    ] == [
        (Interval(-7, -5), "Saddle", "attracting", "repelling"),
        (Interval(-1, 1), "Attractor", "attracting", "attracting"),
        (Interval(5, 7), "Repeller", "repelling", "repelling"),
    ]


def test_three_zone_classification_mirrors():
    report = classify_invariant_sets(mirrored(THREE_ZONE))
    assert [
        (s.interval, s.kind, s.left_side, s.right_side) for s in report.sets
    ] == [
        (Interval(-7, -5), "Repeller", "repelling", "repelling"),
        (Interval(-1, 1), "Attractor", "attracting", "attracting"),
        (Interval(5, 7), "Saddle", "repelling", "attracting"),
    ]


def test_all_stationary_map_reports_degenerate_sets():
    report = classify_invariant_sets(identity_multimap(build_line_window(-2, 2)))
    assert report.degenerate
    assert len(report.sets) == 5
    assert {s.kind for s in report.sets} == {None}
    inner = [s for s in report.sets if s.interval == Interval(0, 0)][0]
    assert inner.left_side == "stationary" and inner.right_side == "stationary"
    assert any("at rest" in d for s in report.sets for d in s.diagnostics)


def test_cyclic_invariant_set_from_strong_component():
    F = MultiMap(build_line_window(0, 2), {0: [2], 1: [1], 2: [0]})
    report = classify_invariant_sets(F)
    assert len(report.sets) == 1
    s = report.sets[0]
    assert s.interval == Interval(0, 2)
    assert s.kind is None
    assert s.diagnostics == ("set touches both window edges",)


def test_clipping_suppresses_boundary_artifacts():
    # the drift zone pressed against the right edge must not register as invariant
    report = classify_invariant_sets(THREE_ZONE)
    assert all(10 not in s.interval for s in report.sets)
    unclipped = MultiMap(THREE_ZONE.window, THREE_ZONE.values, clipped=())
    extra = classify_invariant_sets(unclipped)
    assert any(10 in s.interval for s in extra.sets)


def test_transition_graph_dot():
    tg = transition_graph(BAND)
    assert tg.self_loop_multi == frozenset({1, 2, 3})
    dot = tg.to_dot()
    assert dot.count("->") == 9
    assert dot.count("style=bold") == 3
    report = classify_invariant_sets(THREE_ZONE)
    clustered = transition_graph(THREE_ZONE).to_dot(clusters=report)
    assert clustered.count("subgraph cluster") == 3
    for label in ("Saddle", "Attractor", "Repeller"):
        assert label in clustered
