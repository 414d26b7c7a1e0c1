"""Integer homology via Smith normal form, plus rational homology of maps."""

import itertools
from fractions import Fraction as Fr

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linedyn import (
    InternalConsistencyError,
    InvalidMapError,
    NotFoundError,
    Poset,
    build_line_window,
    order_complex,
)
from linedyn.catalog import (
    antichain_poset,
    chain_poset,
    minimal_circle_poset,
    minimal_circle_reflection,
    minimal_circle_rotation,
    small_complex_corpus,
)
from linedyn.complexes import SimplicialComplex
from linedyn.homology import (
    boundary_matrices,
    determinant,
    homology,
    integer_rank,
    invert_matrix,
    is_acyclic,
    lefschetz_number_of_map,
    matrix_product,
    rational_homology_basis,
    rational_homology_map,
    smith_normal_form,
    snf_diagonal,
    trace,
)
from linedyn.singlemaps import enumerate_value_tuples

int_entries = st.integers(min_value=-9, max_value=9)


def int_matrices(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(int_entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def permutation_determinant(m):
    """Leibniz formula, usable up to 4x4."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i, j in itertools.combinations(range(n), 2):
            if perm[i] > perm[j]:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def test_determinant_known_values():
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant([[1]]) == 1
    assert determinant([]) == 1


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_determinant_matches_permutation_formula(m):
    assert determinant(m) == permutation_determinant(m)


def test_snf_known_diagonals():
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]
    # zero invariant factors are dropped
    assert snf_diagonal([[0, 0], [0, 0]]) == []
    assert snf_diagonal([[2, 0], [0, 0]]) == [2]
    assert snf_diagonal([]) == []


def _check_snf_identities(m):
    rows, cols = len(m), len(m[0]) if m else 0
    u, d, v = smith_normal_form(m)
    assert matrix_product(matrix_product(u, m), v) == d
    if rows:
        assert determinant(u) in (-1, 1)
    if cols:
        assert determinant(v) in (-1, 1)
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0


@given(int_matrices())
def test_snf_identities_random(m):
    _check_snf_identities(m)


def test_integer_rank():
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 0], [0, 1]]) == 2
    assert integer_rank([[0]]) == 0


def test_boundary_matrices_of_triangle():
    k = SimplicialComplex("abc", [("a", "b", "c")])
    cc = boundary_matrices(k)
    assert cc.dimension == 2
    assert [len(cc.basis(d)) for d in (0, 1, 2)] == [3, 3, 1]
    d1, d2 = cc.boundary(1), cc.boundary(2)
    assert d1 == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert matrix_product(d1, d2) == [[0], [0], [0]]


def test_boundary_squared_is_zero_on_corpus():
    for k in small_complex_corpus():
        cc = boundary_matrices(k)
        for d in range(1, cc.dimension + 1):
            prod = matrix_product(cc.boundary(d), cc.boundary(d + 1))
            assert all(x == 0 for row in prod for x in row)


def test_window_posets_are_acyclic():
    for lo in range(-4, 5):
        for hi in range(lo, 5):
            p = build_line_window(lo, hi).poset
            assert homology(p).is_zero
            assert is_acyclic(p)


def test_circle_poset_homology():
    h = homology(minimal_circle_poset())
    assert h.betti_number(0) == 0
    assert h.betti_number(1) == 1
    assert h.torsion_of(1) == ()
    assert not is_acyclic(minimal_circle_poset())


def test_reduced_vs_unreduced():
    two_points = antichain_poset(2)
    assert homology(two_points).betti_number(0) == 1
    assert homology(two_points, reduced=False).betti_number(0) == 2
    chain = chain_poset(3)
    assert homology(chain).is_zero
    assert homology(chain, reduced=False).betti_number(0) == 1


def test_empty_complex_reduced_homology():
    empty = SimplicialComplex([], [])
    h = homology(empty)
    assert h.betti == {-1: 1}
    assert not is_acyclic(empty)


def test_projective_plane_has_two_torsion():
    faces = [(1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
             (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6)]
    k = SimplicialComplex(range(1, 7), faces)
    assert k.f_vector() == (6, 15, 10)
    h = homology(k)
    assert h.betti == {0: 0, 1: 0, 2: 0}
    assert h.torsion_of(1) == (2,)
    assert not h.is_zero
    assert not is_acyclic(k)


def test_homology_groups_json():
    h = homology(minimal_circle_poset())
    j = h.to_json()
    assert j["betti"]["1"] == 1


def test_rational_basis_dimensions_match_betti():
    c = minimal_circle_poset()
    b = rational_homology_basis(c)
    assert b.dim(0) == 1 and b.dim(1) == 1
    w = build_line_window(-2, 2).poset
    bw = rational_homology_basis(w)
    assert bw.dim(0) == 1 and bw.dim(1) == 0


def test_rational_basis_reduce():
    b = rational_homology_basis(minimal_circle_poset())
    # the square cycle generates degree-1 homology
    assert b.reduce(1, [Fr(1), Fr(-1), Fr(-1), Fr(1)]) == [Fr(1)]
    # a difference of two vertices bounds
    assert b.reduce(0, [Fr(1), Fr(0), Fr(-1), Fr(0)]) == [Fr(0)]
    assert b.reduce(0, [Fr(1), Fr(0), Fr(0), Fr(0)]) == [Fr(1)]


def test_rational_basis_rejects_non_cycle():
    b = rational_homology_basis(minimal_circle_poset())
    with pytest.raises(InternalConsistencyError):
        b.reduce(1, [Fr(1), Fr(0), Fr(0), Fr(0)])


def test_invert_matrix():
    assert invert_matrix([[Fr(1), Fr(2)], [Fr(2), Fr(4)]]) is None
    m = [[Fr(2), Fr(1)], [Fr(1), Fr(1)]]
    inv = invert_matrix(m)
    assert matrix_product(m, inv) == [[Fr(1), Fr(0)], [Fr(0), Fr(1)]]
    assert invert_matrix([]) == []


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(int_entries, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_invert_matrix_random(m):
    frac = [[Fr(x) for x in row] for row in m]
    inv = invert_matrix(frac)
    if determinant(m) == 0:
        assert inv is None
    else:
        n = len(m)
        ident = [[Fr(int(i == j)) for j in range(n)] for i in range(n)]
        assert matrix_product(frac, inv) == ident
        assert matrix_product(inv, frac) == ident


def test_trace():
    assert trace([[Fr(1), Fr(5)], [Fr(7), Fr(3)]]) == Fr(4)
    assert trace([]) == 0


def test_degree_one_action_distinguishes_reflection_from_rotation():
    c = minimal_circle_poset()
    refl = rational_homology_map(minimal_circle_reflection(), c, c)
    rot = rational_homology_map(minimal_circle_rotation(), c, c)
    assert refl[1] == [[Fr(-1)]]
    assert rot[1] == [[Fr(1)]]
    assert refl[0] == rot[0] == [[Fr(1)]]


def test_constant_map_kills_degree_one():
    c = minimal_circle_poset()
    h = rational_homology_map({x: 0 for x in c.elements}, c, c)
    assert h[0] == [[Fr(1)]]
    assert h[1] == [[Fr(0)]]


def test_lefschetz_number_of_circle_maps():
    c = minimal_circle_poset()
    refl = minimal_circle_reflection()
    rot = minimal_circle_rotation()
    # reflection fixes two points and has trace sum 1 - (-1)
    assert lefschetz_number_of_map(refl, c) == 2
    assert any(refl[x] == x for x in c.elements)
    # rotation is fixed point free and its number vanishes
    assert lefschetz_number_of_map(rot, c) == 0
    assert all(rot[x] != x for x in c.elements)
    # the identity fixes the whole circle, a constant map one point
    identity, constant = {x: x for x in c.elements}, {x: 2 for x in c.elements}
    assert lefschetz_number_of_map(identity, c) == 0
    assert lefschetz_number_of_map(constant, c) == 1
    for f in (refl, rot, identity, constant):
        assert lefschetz_number_of_map(f, c) == basis_lefschetz(f, c)


def test_lefschetz_number_on_window_maps():
    p = build_line_window(-2, 2).poset
    assert lefschetz_number_of_map(lambda i: i, p) == 1
    assert lefschetz_number_of_map(lambda i: -i, p) == 1


def test_identity_induces_identity_on_homology():
    c = minimal_circle_poset()
    h = rational_homology_map({x: x for x in c.elements}, c, c)
    assert h[0] == [[Fr(1)]] and h[1] == [[Fr(1)]]


def basis_lefschetz(f, p):
    """Oracle: alternating sum of traces of the map induced on rational
    homology bases."""
    mats = rational_homology_map(f, p, p)
    return sum(((-1) ** k * trace(m) for k, m in mats.items()), Fr(0))


def test_fixed_point_lefschetz_matches_basis_route_on_window_maps():
    checked = 0
    for size in range(1, 6):
        for lo in (-2, -1, 0, 1):
            p = build_line_window(lo, lo + size - 1).poset
            for values in enumerate_value_tuples(lo, lo + size - 1):
                f = dict(zip(range(lo, lo + size), values))
                assert lefschetz_number_of_map(f, p) == basis_lefschetz(f, p), f
                checked += 1
    assert checked == 580


@st.composite
def posets_with_selfmaps(draw):
    """A random poset on 0..n-1 with one of its order-preserving self-maps."""
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1]),
            max_size=8,
        )
    )
    p = Poset.from_relation(range(n), pairs)
    maps = [
        f for f in itertools.product(range(n), repeat=n)
        if p.is_order_preserving(f.__getitem__, p)[0]
    ]
    return p, dict(enumerate(draw(st.sampled_from(maps))))


@given(posets_with_selfmaps())
def test_fixed_point_lefschetz_matches_basis_route_on_random_posets(pf):
    p, f = pf
    assert lefschetz_number_of_map(f, p) == basis_lefschetz(f, p)


def test_lefschetz_number_of_map_rejects_bad_maps():
    p = build_line_window(-1, 1).poset
    with pytest.raises(InvalidMapError):
        lefschetz_number_of_map({-1: 0, 0: -1, 1: 1}, p)
    with pytest.raises(NotFoundError):
        lefschetz_number_of_map({-1: -1, 0: 5, 1: 1}, p)
    with pytest.raises(InvalidMapError):
        lefschetz_number_of_map({0: 7}, build_line_window(0, 0).poset)
