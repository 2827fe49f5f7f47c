"""Boundary operators, rational Betti numbers and integral cocycles.

Ranks are computed exactly over the rationals; that is the source of truth.
One column reduction does all exact work: the coboundaries d_0 .. d_{n-1}
of a complex are reduced once, bottom-up with clearing (the cohomology
reduction of de Silva, Morozov and Vejdemo-Johansson, "Dualities in
persistent (co)homology", 2011), with the column operations tracked.  That
gives the ranks behind the Betti numbers, integral cocycle representatives
of every cohomology class, and an independent column set of each d_k; the
harmonic bases in :mod:`hodgeform.hodge` are built from the last two.
Betti numbers are integers and come from these exact ranks only, so they
cannot be victims of round-off.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .complexes import SimplicialComplex, is_closed_pseudomanifold, orient

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "boundary_matrix",
    "CohomologyReduction",
    "cohomology_reduction",
    "betti_numbers",
    "euler_characteristic",
    "poincare_duality_check",
    "exact_rank",
]


def boundary_matrix(K: SimplicialComplex, k: int) -> sp.csc_matrix:
    """Signed incidence of k-simplices on their (k-1)-faces.

    Column j lists the faces of the j-th k-simplex with alternating signs
    (-1)^i for the face omitting the i-th vertex.
    """
    import scipy.sparse as sp

    if not 1 <= k <= K.dimension:
        raise ValueError(f"degree {k} out of range 1..{K.dimension}")
    m = K.simplex_count(k)
    rows = np.column_stack(
        [K.faces(k, (*range(i), *range(i + 1, k + 1))) for i in range(k + 1)]
    )
    data = np.tile((-1) ** np.arange(k + 1, dtype=np.int64), m)
    indptr = np.arange(0, (m + 1) * (k + 1), k + 1)
    mat = sp.csc_matrix((data, rows.ravel(), indptr), shape=(K.simplex_count(k - 1), m))
    mat.sort_indices()
    return mat


def _strip_content(*vectors: dict[int, int]) -> None:
    """Divide the vectors by the gcd of all their entries (one common factor,
    so a relation between them survives)."""
    g = 0
    for vec in vectors:
        for v in vec.values():
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for vec in vectors:
            for r in vec:
                vec[r] //= g


def _combine(x: dict[int, int], a: int, y: dict[int, int], b: int) -> dict[int, int]:
    """a*x - b*y for sparse integer vectors, without explicit zeros."""
    out = {r: v * a for r, v in x.items()}
    for r, v in y.items():
        nv = out.get(r, 0) - v * b
        if nv:
            out[r] = nv
        else:
            out.pop(r, None)
    return out


def _reduce_columns(columns: Iterable[dict[int, int] | None]):
    """Left-to-right column reduction over Q (integer arithmetic, gcd-stripped),
    with the column operations recorded.

    ``None`` entries are skipped: the caller knows those columns depend on
    earlier ones (clearing).  Returns ``(pivots, kernel)``: ``pivots`` maps
    the low (largest row index) of each nonzero reduced column to that
    column's index, so its values are an independent column set and its size
    is the rank; ``kernel`` maps each column that reduced to zero to an
    integral kernel vector ``{column: coefficient}`` whose largest column is
    that column.
    """
    pivots: dict[int, tuple[dict[int, int], dict[int, int], int]] = {}
    kernel: dict[int, dict[int, int]] = {}
    for j, col in enumerate(columns):
        if col is None:
            continue
        ops = {j: 1}
        while col:
            low = max(col)
            hit = pivots.get(low)
            if hit is None:
                _strip_content(col, ops)
                pivots[low] = (col, ops, j)
                break
            other, other_ops, _ = hit
            a, b = other[low], col[low]
            g = gcd(a, b)
            a //= g
            b //= g
            col = _combine(col, a, other, b)
            ops = _combine(ops, a, other_ops, b)
        else:
            _strip_content(ops)
            kernel[j] = ops
    return {low: j for low, (_, _, j) in pivots.items()}, kernel


def _columns_as_dicts(
    mat: sp.csc_matrix, skip: Container[int] = ()
) -> list[dict[int, int] | None]:
    """Column j of ``mat`` as {row: value}, or None for j in ``skip``."""
    indptr, indices, data = mat.indptr.tolist(), mat.indices.tolist(), mat.data.tolist()
    return [
        None if j in skip else dict(zip(indices[lo:hi], data[lo:hi]))
        for j, (lo, hi) in enumerate(zip(indptr, indptr[1:]))
    ]


def exact_rank(mat: sp.csc_matrix) -> int:
    """Rank over Q of an integer sparse matrix."""
    import scipy.sparse as sp

    pivots, _ = _reduce_columns(_columns_as_dicts(sp.csc_matrix(mat, dtype=np.int64)))
    return len(pivots)


@dataclass(frozen=True, eq=False)
class CohomologyReduction:
    """The exact reduction of one complex's coboundaries d_0 .. d_{n-1}.

    ``ranks[k]`` is the rank of d_{k-1} (equivalently of the boundary
    operator in degree k), with ``ranks[0] = ranks[n+1] = 0``.
    ``cocycles[k]`` is an f_k x b_k integer matrix whose columns are cocycles
    (d_k X = 0 exactly) representing a basis of H^k(K; Q), in class order:
    by the index of each column's last nonzero simplex.
    ``independent[k]`` lists, in increasing order, the k-simplices whose
    columns of d_k form a basis of its column space.  ``coboundaries[k]`` is
    the integer matrix d_k that was reduced (k < n).
    """

    ranks: tuple[int, ...]
    cocycles: tuple[np.ndarray, ...]
    independent: tuple[np.ndarray, ...]
    coboundaries: tuple[sp.csc_matrix, ...]


def _reduce_complex(K: SimplicialComplex) -> CohomologyReduction:
    # Bottom-up with clearing: a low of the reduced d_{k-1} is a k-simplex
    # whose column in d_k is a combination of earlier columns (the reduced
    # column is a coboundary, hence a cocycle, ending at that simplex), so
    # that column is skipped.  The columns of d_k that reduce to zero
    # without being cleared are the essential classes of degree k.
    n = K.dimension
    ranks = [0] * (n + 2)
    cocycles, independent = [], []
    coboundaries = tuple(boundary_matrix(K, k + 1).T.tocsc() for k in range(n))
    cleared: set[int] = set()
    for k in range(n + 1):
        m = K.simplex_count(k)
        if k < n:
            cols = _columns_as_dicts(coboundaries[k], cleared)
        else:
            cols = [None if j in cleared else {} for j in range(m)]
        pivots, kernel = _reduce_columns(cols)
        ranks[k + 1] = len(pivots)
        X = np.zeros((m, len(kernel)), dtype=np.int64)
        for c, j in enumerate(sorted(kernel)):
            for r, v in kernel[j].items():
                X[r, c] = v
        cocycles.append(X)
        independent.append(np.array(sorted(pivots.values()), dtype=np.int64))
        cleared = set(pivots)
    return CohomologyReduction(
        tuple(ranks), tuple(cocycles), tuple(independent), coboundaries
    )


def cohomology_reduction(K: SimplicialComplex) -> CohomologyReduction:
    """Ranks, integral cocycle representatives and independent column sets
    of every coboundary of K, from one exact reduction kept with K."""
    return K.derived("cohomology_reduction", _reduce_complex)


def betti_numbers(K: SimplicialComplex) -> tuple[int, ...]:
    """Rational Betti vector b_0..b_n, from the exact ranks of
    :func:`cohomology_reduction`."""
    ranks = cohomology_reduction(K).ranks
    f = K.f_vector
    return tuple(f[k] - ranks[k] - ranks[k + 1] for k in range(K.dimension + 1))


def euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating sum of face counts."""
    return sum((-1) ** k * c for k, c in enumerate(K.f_vector))


def poincare_duality_check(K: SimplicialComplex) -> bool:
    """b_k == b_{n-k} for all k; requires a closed orientable complex."""
    if not is_closed_pseudomanifold(K):
        raise ValueError("duality check requires a closed pseudomanifold")
    if orient(K) is None:
        raise ValueError("duality check requires an orientable complex")
    b = betti_numbers(K)
    return b == b[::-1]
