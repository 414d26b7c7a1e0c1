"""Integer simplicial homology via Smith normal form, acyclicity testing,
and induced maps on rational homology.

All integer work is exact (Python ints); all rational work uses
fractions.Fraction.  Matrices are lists of rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .complexes import (
    SimplicialComplex,
    SimplicialMap,
    _as_mapping,
    induced_simplicial_map,
    order_complex,
)
from .errors import InternalConsistencyError, InvalidMapError
from .posets import Poset

IntMatrix = list  # list of rows of ints


def _identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matrix_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cols):
                    oi[j] += v * bk[j]
    return out


def determinant(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(matrix: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with D = U @ matrix @ V, U and V unimodular, D diagonal with
    each diagonal entry dividing the next.

    Pivoting: smallest non-zero absolute value in the working block, earliest
    position on ties; entries are reduced by floor-division remainders, so all
    arithmetic stays on exact ints.
    """
    a = [[int(v) for v in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = _identity_matrix(rows)
    v = _identity_matrix(cols)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_add(dst, src, c):
        # row dst += c * row src
        ad, as_ = a[dst], a[src]
        for j in range(cols):
            ad[j] += c * as_[j]
        ud, us = u[dst], u[src]
        for j in range(rows):
            ud[j] += c * us[j]

    def col_add(dst, src, c):
        for r in a:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # locate the smallest-magnitude non-zero entry of the working block
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                val = a[i][j]
                if val != 0 and (best is None or abs(val) < best[0]):
                    best = (abs(val), i, j)
        if best is None:
            break
        if best[1] != t:
            row_swap(t, best[1])
        if best[2] != t:
            col_swap(t, best[2])

        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        row_add(i, t, -q)
                    if a[i][t]:
                        # remainder smaller than the pivot: promote it
                        row_swap(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        col_add(j, t, -q)
                    if a[t][j]:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide everything that remains
            d = a[t][t]
            fixed = False
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % d:
                        row_add(t, i, 1)
                        fixed = True
                        break
                if fixed:
                    break
            if not fixed:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return u, a, v


def snf_diagonal(matrix: IntMatrix) -> list[int]:
    """Non-zero invariant factors of the matrix."""
    if not matrix or not matrix[0]:
        return []
    _, d, _ = smith_normal_form(matrix)
    out = []
    for i in range(min(len(d), len(d[0]))):
        if d[i][i]:
            out.append(abs(d[i][i]))
    return out


def integer_rank(matrix: IntMatrix) -> int:
    return len(snf_diagonal(matrix))


# -- chain complexes ----------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """Bases of simplices per degree plus signed boundary matrices.

    boundaries[k] maps degree-k chains to degree-(k-1) chains, k >= 1; the
    degree-0 augmentation row is implied (all ones) and applied only when
    reduced homology is requested.
    """

    bases: dict
    boundaries: dict

    @property
    def dimension(self) -> int:
        return max(self.bases, default=-1)

    def basis(self, k: int) -> tuple:
        return self.bases.get(k, ())

    def boundary(self, k: int) -> IntMatrix:
        """Matrix of the k-th boundary; trivial when either side is empty."""
        if k in self.boundaries:
            return self.boundaries[k]
        return [[0] * len(self.basis(k)) for _ in range(len(self.basis(k - 1)))]


def boundary_matrices(k: SimplicialComplex) -> ChainComplex:
    """Signed incidence matrices under the complex's global vertex order."""
    bases = {d: k.simplices_of_dim(d) for d in range(k.dimension + 1)}
    index = {d: {s: i for i, s in enumerate(faces)} for d, faces in bases.items()}
    boundaries = {}
    for d in range(1, k.dimension + 1):
        mat = [[0] * len(bases[d]) for _ in range(len(bases[d - 1]))]
        for col, s in enumerate(bases[d]):
            for j in range(len(s)):
                face = s[:j] + s[j + 1:]
                mat[index[d - 1][face]][col] = -1 if j % 2 else 1
        boundaries[d] = mat
    return ChainComplex(bases=bases, boundaries=boundaries)


@dataclass(frozen=True)
class HomologyGroups:
    """Betti numbers and torsion invariant factors per degree."""

    betti: dict
    torsion: dict
    reduced: bool

    @property
    def is_zero(self) -> bool:
        return all(b == 0 for b in self.betti.values()) and not any(
            self.torsion.values()
        )

    def betti_number(self, k: int) -> int:
        return self.betti.get(k, 0)

    def torsion_of(self, k: int) -> tuple:
        return tuple(self.torsion.get(k, ()))

    def to_json(self) -> dict:
        return {
            "reduced": self.reduced,
            "betti": {str(k): v for k, v in sorted(self.betti.items())},
            "torsion": {str(k): list(v) for k, v in sorted(self.torsion.items())},
        }


def _complex_of(x) -> SimplicialComplex:
    if isinstance(x, Poset):
        return order_complex(x)
    if isinstance(x, SimplicialComplex):
        return x
    raise InvalidMapError(f"cannot take homology of {type(x).__name__}")


def _complex_homology(k: SimplicialComplex, reduced: bool) -> HomologyGroups:
    """Homology by Smith normal form of every boundary matrix."""
    if k.dimension < 0:
        if reduced:
            return HomologyGroups(betti={-1: 1}, torsion={}, reduced=True)
        return HomologyGroups(betti={}, torsion={}, reduced=False)
    cc = boundary_matrices(k)
    dim = cc.dimension
    betti = {}
    torsion = {}
    ranks = {}
    factors = {}
    for d in range(1, dim + 1):
        factors[d] = snf_diagonal(cc.boundaries[d])
        ranks[d] = len(factors[d])
    n0 = len(cc.basis(0))
    rank0 = (1 if n0 else 0) if reduced else 0
    for d in range(dim + 1):
        n = len(cc.basis(d))
        below = rank0 if d == 0 else ranks.get(d, 0)
        above = ranks.get(d + 1, 0)
        betti[d] = n - below - above
        torsion[d] = tuple(f for f in factors.get(d + 1, []) if f > 1)
    return HomologyGroups(betti=betti, torsion=torsion, reduced=reduced)


def homology(x, reduced: bool = True) -> HomologyGroups:
    """Simplicial homology of a complex, or of a poset via its order complex.

    A poset is first reduced to its beat-point core, which has the homotopy
    type of the poset (Stong), and only the core's order complex goes
    through Smith normal form; a one-point core needs no matrices.  Degrees
    above the core's dimension, up to the poset's, report zero, so the
    degrees listed are those of the poset's own order complex.  The empty
    complex reports a single unit in degree -1 under the reduced
    convention, so it never counts as acyclic.
    """
    if not isinstance(x, Poset) or len(x) == 0:
        return _complex_homology(_complex_of(x), reduced)
    core, _ = x.core()
    if len(core) == 1:
        betti, torsion = {0: 0 if reduced else 1}, {0: ()}
    else:
        groups = _complex_homology(order_complex(core), reduced)
        betti, torsion = groups.betti, groups.torsion
    for d in range(len(betti), x.height() + 1):
        betti[d], torsion[d] = 0, ()
    return HomologyGroups(betti=betti, torsion=torsion, reduced=reduced)


def reduced_homology(x) -> HomologyGroups:
    return homology(x, reduced=True)


def is_acyclic(x) -> bool:
    """All reduced homology vanishes.  The empty space is not acyclic: its
    reduced homology has a class in degree -1."""
    return reduced_homology(x).is_zero


# -- rational linear algebra -------------------------------------------

FracMatrix = list  # list of rows of Fractions


def _rref(m: FracMatrix) -> tuple[FracMatrix, list[int]]:
    a = [[Fraction(x) for x in row] for row in m]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def kernel_basis(m: FracMatrix, cols: int) -> list[list[Fraction]]:
    """Basis of the null space, one vector per free column, deterministic."""
    if cols == 0:
        return []
    if not m:
        return [[Fraction(1) if i == j else Fraction(0) for i in range(cols)] for j in range(cols)]
    red, pivots = _rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for row, pc in enumerate(pivots):
            vec[pc] = -red[row][free]
        basis.append(vec)
    return basis


def solve_in_span(vectors: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Coefficients expressing target in the span of the given vectors, or
    None when it lies outside; free coefficients are set to zero."""
    n = len(target)
    cols = len(vectors)
    aug = [[vectors[j][i] for j in range(cols)] + [target[i]] for i in range(n)]
    red, pivots = _rref(aug)
    if cols in pivots:
        return None
    coeffs = [Fraction(0)] * cols
    for row, pc in enumerate(pivots):
        coeffs[pc] = red[row][cols]
    return coeffs


@dataclass(frozen=True)
class HomologyBasis:
    """Rational homology data of one complex: cycle representatives per
    degree, plus the boundary vectors needed to reduce classes."""

    complex: SimplicialComplex
    chain: ChainComplex
    boundary_span: dict     # degree -> list of boundary vectors (independent)
    representatives: dict   # degree -> list of homology class representatives

    def dim(self, k: int) -> int:
        return len(self.representatives.get(k, []))

    def reduce(self, k: int, vector: list[Fraction]) -> list[Fraction]:
        """Coordinates of a cycle's class in the degree-k representative
        basis."""
        reps = self.representatives.get(k, [])
        span = self.boundary_span.get(k, [])
        coeffs = solve_in_span(span + reps, vector)
        if coeffs is None:
            raise InternalConsistencyError("vector is not a cycle of this complex")
        return coeffs[len(span):]


def rational_homology_basis(x) -> HomologyBasis:
    """Unreduced rational homology with deterministic bases.

    Cycle spaces come from row-reduced kernels of the boundary maps, boundary
    spans from the pivot columns of the next boundary; representatives are
    the cycles among the pivot columns of [span | cycles].  A pivot column
    is one outside the span of the columns before it, so each echelon pass
    picks what a greedy scan for independent vectors would pick.
    """
    k = _complex_of(x)
    cc = boundary_matrices(k)
    boundary_span: dict[int, list] = {}
    representatives: dict[int, list] = {}
    for d in range(cc.dimension + 1):
        n = len(cc.basis(d))
        if d == 0:
            cycles = [
                [Fraction(1) if i == j else Fraction(0) for i in range(n)]
                for j in range(n)
            ]
        else:
            frac_boundary = [[Fraction(v) for v in row] for row in cc.boundary(d)]
            cycles = kernel_basis(frac_boundary, n)
        nxt = cc.boundary(d + 1) if d + 1 <= cc.dimension else []
        span = [[Fraction(row[col]) for row in nxt] for col in _rref(nxt)[1]]
        columns = span + cycles
        _, pivots = _rref([[vec[i] for vec in columns] for i in range(n)])
        boundary_span[d] = span
        representatives[d] = [columns[col] for col in pivots if col >= len(span)]
    return HomologyBasis(
        complex=k, chain=cc, boundary_span=boundary_span, representatives=representatives
    )


def chain_map_matrix(g: SimplicialMap, k: int) -> IntMatrix:
    """Matrix of the induced degree-k chain map; degenerate images drop out."""
    dom = g.domain.simplices_of_dim(k)
    cod = g.codomain.simplices_of_dim(k)
    index = {s: i for i, s in enumerate(cod)}
    mat = [[0] * len(dom) for _ in range(len(cod))]
    for col, s in enumerate(dom):
        image, sign = g.apply_with_sign(s)
        if sign:
            mat[index[image]][col] = sign
    return mat


def homology_map_from_simplicial(
    g: SimplicialMap,
    domain_basis: HomologyBasis,
    codomain_basis: HomologyBasis,
) -> dict[int, FracMatrix]:
    """Per-degree matrices of the induced map on unreduced rational homology,
    written in the two deterministic representative bases."""
    out: dict[int, FracMatrix] = {}
    top = max(domain_basis.chain.dimension, codomain_basis.chain.dimension)
    for k in range(top + 1):
        dn = domain_basis.dim(k)
        cn = codomain_basis.dim(k)
        if dn == 0 and cn == 0:
            continue
        mat = chain_map_matrix(g, k) if dn else []
        cols = []
        for rep in domain_basis.representatives.get(k, []):
            pushed = [
                sum(Fraction(mat[row][j]) * rep[j] for j in range(len(rep)))
                for row in range(len(mat))
            ]
            if not pushed:
                pushed = [Fraction(0)] * len(codomain_basis.chain.basis(k))
            cols.append(codomain_basis.reduce(k, pushed))
        out[k] = [[cols[j][i] for j in range(dn)] for i in range(cn)]
    return out


def rational_homology_map(
    f: Mapping | Callable, domain: Poset, codomain: Poset
) -> dict[int, FracMatrix]:
    """Matrices of the map induced on unreduced rational homology by an
    order-preserving poset map."""
    g = induced_simplicial_map(f, domain, codomain)
    return homology_map_from_simplicial(
        g, rational_homology_basis(domain), rational_homology_basis(codomain)
    )


def trace(m: FracMatrix) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def lefschetz_number_of_map(f: Mapping | Callable, p: Poset) -> Fraction:
    """Lefschetz number of an order-preserving self-map of a poset.

    By the Hopf trace formula the alternating sum of homology traces equals
    that of chain traces, and a chain of the order complex is sent to
    itself exactly when each of its points is fixed; so the number is the
    Euler characteristic of the order complex of the fixed-point subposet
    (Baclawski and Björner).  It is counted in one pass over a linear
    extension: s(x) = 1 - sum of s(y) over fixed y < x is the signed number
    of chains of fixed points topped by a fixed x.
    """
    mapping = _as_mapping(f, p.elements)
    ok, witness = p.is_order_preserving(mapping, p)
    if not ok:
        raise InvalidMapError(f"map is not order-preserving at pair {witness!r}")
    for x, y in mapping.items():
        if y not in p:
            raise InvalidMapError(f"image {y!r} of {x!r} is not an element of the poset")
    signed: dict = {}
    for x in p.linear_extension():
        if mapping[x] == x:
            signed[x] = 1 - sum(signed.get(y, 0) for y in p.strictly_below(x))
    return Fraction(sum(signed.values()))


def invert_matrix(m: FracMatrix) -> FracMatrix | None:
    """Inverse of a square rational matrix, or None when singular."""
    n = len(m)
    if n == 0:
        return []
    if any(len(row) != n for row in m):
        return None
    aug = [[Fraction(v) for v in row] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = _rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]
