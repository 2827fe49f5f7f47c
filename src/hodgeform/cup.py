"""The cup product and the intersection form.

The product is the front-face/back-face (Alexander-Whitney) one on ordered
simplices,

    (a cup b)(v_0 .. v_{k+l}) = a(v_0 .. v_k) * b(v_k .. v_{k+l}),

taken over the global vertex order (the two faces are looked up in
:func:`_faces` only).  It is bilinear, satisfies the Leibniz rule with the
coboundary, and is graded-commutative at cohomology level only (never at
cochain level; callers must not assume otherwise).  :func:`cup` multiplies
blocks of cochains, as the pair sweep of :mod:`hodgeform.formality` does.

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

from .complexes import SimplicialComplex, orient
from .homology import cohomology_reduction, exact_rank, poincare_duality_check

__all__ = [
    "cup",
    "IntersectionForm",
    "intersection_form",
]


def _faces(K: SimplicialComplex, k: int, l: int) -> tuple[np.ndarray, np.ndarray]:
    # the front k-face and the back l-face of every (k+l)-simplex
    return K.faces(k + l, range(k + 1)), K.faces(k + l, range(k, k + l + 1))


def cup(K: SimplicialComplex, A: np.ndarray, k: int, B: np.ndarray, l: int) -> np.ndarray:
    """Alexander-Whitney products of every row of A (degree-k cochains)
    with every row of B (degree-l cochains): row i * len(B) + j is
    A[i] cup B[j], a (k+l)-cochain.  The dtype is numpy's product of the
    two: float rows give float64, exact object rows (ints, Fractions) stay
    exact."""
    if k + l > K.dimension:
        raise ValueError(f"cup degree {k}+{l} exceeds the complex dimension {K.dimension}")
    A, B = np.asarray(A), np.asarray(B)
    f = K.f_vector
    for X, d in ((A, k), (B, l)):
        if X.ndim != 2 or X.shape[1] != f[d]:
            raise ValueError(f"degree-{d} rows need shape (m, {f[d]}), got {X.shape}")
    front, back = _faces(K, k, l)
    return (A[:, front][:, None, :] * B[:, back][None, :, :]).reshape(-1, len(front))


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
    front, back = _faces(K, m, m)
    signs = np.array(orient(K), dtype=object)
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
