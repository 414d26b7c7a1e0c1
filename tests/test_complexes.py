"""Simplicial complexes, order complexes, face posets, and simplicial maps."""

import pytest

from linedyn import (
    InvalidMapError,
    barycentric_subdivision,
    build_line_window,
    face_poset,
    induced_poset_map,
    induced_simplicial_map,
    interval_triangulation,
    order_complex,
)
from linedyn.catalog import chain_poset, minimal_circle_poset, small_complex_corpus
from linedyn.complexes import SimplicialComplex, SimplicialMap
from linedyn.homology import homology


def triangle():
    return SimplicialComplex("abc", [("a", "b", "c")])


def test_complex_closes_under_faces():
    k = triangle()
    assert k.f_vector() == (3, 3, 1)
    assert k.dimension == 2
    assert k.num_simplices == 7
    assert ("a", "c") in k
    assert ("a",) in k
    assert ("a", "b", "c") in k


def test_simplices_listing():
    k = triangle()
    assert k.simplices_of_dim(1) == (("a", "b"), ("a", "c"), ("b", "c"))
    assert sorted(k.simplices(), key=len)[-1] == ("a", "b", "c")


def test_complex_rejects_unknown_vertex():
    with pytest.raises(Exception):
        SimplicialComplex("ab", [("a", "z")])


def test_order_complex_of_chain_is_full_simplex():
    k = order_complex(chain_poset(4))
    # every subset of a chain is a chain
    assert k.f_vector() == (4, 6, 4, 1)


def test_order_complex_of_circle_has_no_triangles():
    k = order_complex(minimal_circle_poset())
    assert k.f_vector() == (4, 4)


def test_face_poset_of_triangle_boundary():
    boundary = SimplicialComplex("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    p = face_poset(boundary)
    assert len(p.elements) == 6
    assert p.height() == 1
    assert len(p.minimal_elements()) == 3
    # its order complex is a hexagon, so degree-1 homology survives
    assert homology(p).betti_number(1) == 1


def test_face_poset_ordering_is_containment():
    p = face_poset(triangle())
    assert p.leq(("a",), ("a", "b", "c"))
    assert not p.leq(("a", "b"), ("a", "c"))


def test_barycentric_subdivision_of_edge():
    k = SimplicialComplex("ab", [("a", "b")])
    sd = barycentric_subdivision(k)
    # one new vertex at the edge midpoint: a path of two edges
    assert sd.f_vector() == (3, 2)


def test_barycentric_subdivision_of_triangle():
    sd = barycentric_subdivision(triangle())
    assert sd.f_vector() == (7, 12, 6)
    assert homology(sd).is_zero


def test_interval_triangulation_shape():
    for n in range(1, 5):
        k = interval_triangulation(n)
        assert k.f_vector() == (n + 1, n)
        assert homology(k).is_zero


def test_simplicial_map_validation():
    k = triangle()
    boundary = SimplicialComplex("abc", [("a", "b"), ("a", "c"), ("b", "c")])
    # the full triangle cannot map onto its boundary by the identity on vertices
    with pytest.raises(InvalidMapError):
        SimplicialMap(k, boundary, {"a": "a", "b": "b", "c": "c"})
    SimplicialMap(boundary, k, {"a": "a", "b": "b", "c": "c"})


def test_simplicial_map_apply_and_sign():
    k = triangle()
    swap = SimplicialMap(k, k, {"a": "b", "b": "a", "c": "c"})
    assert swap.apply(("a", "b")) == ("a", "b")
    assert swap.apply_with_sign(("a", "b")) == (("a", "b"), -1)
    assert swap.apply_with_sign(("a", "b", "c")) == (("a", "b", "c"), -1)
    assert swap.apply_with_sign(("c",)) == (("c",), 1)


def test_simplicial_map_collapse_has_sign_zero():
    k = triangle()
    const = SimplicialMap(k, k, {"a": "a", "b": "a", "c": "a"})
    assert const.apply(("a", "b", "c")) == ("a",)
    assert const.apply_with_sign(("a", "b")) == (("a",), 0)


def test_simplicial_map_compose_and_identity():
    k = triangle()
    swap = SimplicialMap(k, k, {"a": "b", "b": "a", "c": "c"})
    assert swap.compose(swap).vertex_map == SimplicialMap.identity(k).vertex_map
    ident = SimplicialMap.identity(k)
    assert ident.apply_with_sign(("a", "b", "c")) == (("a", "b", "c"), 1)


def test_induced_simplicial_map_from_poset_map():
    p = build_line_window(-1, 1).poset
    g = induced_simplicial_map(lambda i: -i, p, p)
    # chain vertices are listed in linear-extension order, minimal element first
    assert g.apply((-1, 0)) == (1, 0)
    assert g.apply((1,)) == (-1,)


def test_induced_simplicial_map_rejects_order_breaking():
    p = build_line_window(-1, 1).poset
    with pytest.raises(InvalidMapError):
        induced_simplicial_map({-1: 0, 0: -1, 1: 1}, p, p)


def test_induced_poset_map_round_trip():
    k = interval_triangulation(2)
    mirror = SimplicialMap(k, k, {0: 2, 1: 1, 2: 0})
    fmap = induced_poset_map(mirror)
    assert fmap[(0,)] == (2,)
    assert fmap[(0, 1)] == (1, 2)
    p = face_poset(k)
    ok, _ = p.is_order_preserving(fmap, p)
    assert ok


def test_face_poset_order_complex_functor_round_trip():
    for k in small_complex_corpus():
        assert order_complex(face_poset(k)).f_vector()[0] == k.num_simplices


def test_small_complex_corpus_size():
    corpus = small_complex_corpus()
    assert len(corpus) == 20
    # no duplicates up to vertex relabeling is too strong; just require distinct f-vector multiset sanity
    assert all(isinstance(k, SimplicialComplex) for k in corpus)
