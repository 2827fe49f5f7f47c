"""Cup products, fundamental-class evaluation, and the intersection form.

The product is the front-face/back-face one on ordered simplices,

    (a cup b)(v_0 .. v_{k+l}) = a(v_0 .. v_k) * b(v_k .. v_{k+l}),

taken over the global vertex order.  It is bilinear, satisfies the Leibniz
rule with the coboundary, and is graded-commutative at cohomology level only
(never at cochain level; callers must not assume otherwise).

The intersection form is this product paired with the fundamental class on
the middle-degree integral cocycles of the exact reduction.  It is an
integer matrix, so b+, b-, the signature and the skew rank are read from it
exactly: no weights, harmonic basis or eigenvalue cut enter, and a
degenerate form is reported rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import Cochain, Orientation, SimplicialComplex, orient
from .homology import cohomology_reduction, exact_rank, poincare_duality_check

__all__ = [
    "cup",
    "evaluate_on_fundamental_class",
    "IntersectionForm",
    "intersection_form",
]

def cup(K: SimplicialComplex, a: Cochain, b: Cochain) -> Cochain:
    """Alexander-Whitney product of a k-cochain and an l-cochain."""
    k, l = a.degree, b.degree
    if k + l > K.dimension:
        raise ValueError(
            f"cup degree {k}+{l} exceeds the complex dimension {K.dimension}"
        )
    if len(a.values) != K.simplex_count(k) or len(b.values) != K.simplex_count(l):
        raise ValueError("cochain lengths do not match the complex")
    front = K.faces(k + l, range(k + 1))
    back = K.faces(k + l, range(k, k + l + 1))
    av, bv = a.values, b.values
    if av.dtype == object or bv.dtype == object:
        # exact cochains (ints, Fractions) keep Python arithmetic
        out = np.asarray(av, dtype=object)[front] * np.asarray(bv, dtype=object)[back]
    else:
        out = np.asarray(av, dtype=np.float64)[front] * np.asarray(bv, dtype=np.float64)[back]
    return Cochain(k + l, out)


def evaluate_on_fundamental_class(
    K: SimplicialComplex, orientation: Orientation, c: Cochain
):
    """Signed sum of a top cochain over the oriented facets."""
    if c.degree != K.dimension:
        raise ValueError("fundamental class pairs with top-degree cochains only")
    if len(orientation.facet_signs) != len(K.facets):
        raise ValueError("orientation does not match the complex")
    if c.values.dtype == object:
        return sum(s * v for s, v in zip(orientation.facet_signs, c.values))
    return float(np.dot(np.asarray(orientation.facet_signs, dtype=np.float64), c.values))


@dataclass(frozen=True, eq=False)
class IntersectionForm:
    """Middle-degree pairing Q_ij = <x_i cup x_j, [K]> on integral cocycles.

    ``matrix`` is an int64 array.  For n = 4m it is symmetric and carries
    b_plus/b_minus/b_zero/signature; for n = 4m+2 it is skew and only the
    rank is meaningful, so the sign fields stay None.  A degenerate form
    (b_zero > 0, or skew_rank below the middle Betti number) is a fact about
    the complex, not a numerical failure, and is reported as such.
    """

    degree: int
    matrix: np.ndarray
    symmetric: bool
    b_plus: int | None
    b_minus: int | None
    b_zero: int | None
    signature: int | None
    skew_rank: int | None


def _inertia(Q: np.ndarray) -> tuple[int, int]:
    """(positive, negative) pivot counts of a symmetric integer matrix:
    Sylvester's law of inertia, by symmetric elimination over the rationals."""
    A = [[Fraction(int(x)) for x in row] for row in Q]
    plus = minus = 0
    while A:
        p = next((i for i in range(len(A)) if A[i][i]), None)
        if p is None:
            # every diagonal entry is 0: adding row and column j into p
            # puts 2 A_pj != 0 on the diagonal
            nonzero = [(i, j) for i, row in enumerate(A) for j, x in enumerate(row) if x]
            if not nonzero:
                break  # what is left is the radical
            p, j = nonzero[0]
            for row in A:
                row[p] += row[j]
            A[p] = [x + y for x, y in zip(A[p], A[j])]
        pivot_row = A.pop(p)
        d = pivot_row.pop(p)
        plus += d > 0
        minus += d < 0
        for row in A:
            c = row.pop(p) / d
            if c:
                for s, x in enumerate(pivot_row):
                    row[s] -= c * x
    return plus, minus


def _pairing(K: SimplicialComplex) -> IntersectionForm:
    m = K.dimension // 2
    X = cohomology_reduction(K).cocycles[m].astype(object)
    front = K.faces(2 * m, range(m + 1))
    back = K.faces(2 * m, range(m, 2 * m + 1))
    signs = np.array(orient(K).facet_signs, dtype=object)
    # Python-int products; the int64 conversion raises rather than wraps.
    # On cocycles the pairing is exactly (skew-)symmetric: x cup y and
    # +-y cup x differ by a coboundary, which the fundamental class kills.
    Q = np.array((X[front].T * signs) @ X[back], dtype=np.int64)
    if m % 2 == 0:
        plus, minus = _inertia(Q)
        zero = len(Q) - plus - minus
        return IntersectionForm(m, Q, True, plus, minus, zero, plus - minus, None)
    return IntersectionForm(m, Q, False, None, None, None, None, exact_rank(Q))


def intersection_form(K: SimplicialComplex) -> IntersectionForm:
    """Pairing matrix Q_ij = <x_i cup x_j, fundamental class> over the
    middle-degree integral cocycles of :func:`cohomology_reduction`, with
    its exact invariants; computed once per complex."""
    if K.dimension % 2 != 0:
        raise ValueError("intersection form needs an even-dimensional complex")
    if orient(K) is None:
        raise ValueError("intersection form needs an orientable complex")
    if not poincare_duality_check(K):
        raise ValueError("intersection form requires the duality check to pass")
    return K.derived("intersection_form", _pairing)
