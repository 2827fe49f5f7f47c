"""Cup products, fundamental-class evaluation, and the intersection form.

The product is the front-face/back-face one on ordered simplices,

    (a cup b)(v_0 .. v_{k+l}) = a(v_0 .. v_k) * b(v_k .. v_{k+l}),

taken over the global vertex order.  It is bilinear, satisfies the Leibniz
rule with the coboundary, and is graded-commutative at cohomology level only
(never at cochain level; callers must not assume otherwise).

The middle-dimension pairing on harmonic representatives defines b+, b- and
the signature without any discrete Hodge star: those invariants only ever
enter through the intersection form, which this pairing reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .complexes import Cochain, Orientation, SimplicialComplex, orient
from .errors import NumericalError
from .hodge import MetricWeights, harmonic_basis, unit_weights
from .homology import betti_numbers, poincare_duality_check

__all__ = [
    "cup",
    "evaluate_on_fundamental_class",
    "IntersectionForm",
    "intersection_form",
]

# |eigenvalue| below this fraction of ||Q|| counts as zero; on a complex
# that passed the duality check, hitting it means numerics failed, not
# topology.
ZERO_EIGENVALUE_RTOL = 1e-8


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
    """Middle-degree pairing on harmonic representatives.

    For n = 4m the symmetrized matrix carries b_plus/b_minus/signature; for
    n = 4m+2 the pairing is skew and only the rank is meaningful, so the
    sign fields stay None.
    """

    degree: int
    matrix: np.ndarray
    symmetric: bool
    b_plus: int | None
    b_minus: int | None
    b_zero: int | None
    signature: int | None
    skew_rank: int | None

    def matrix_rational(self) -> list[list[str]]:
        """Entries as exact fraction strings (every float is a rational)."""
        return [[str(Fraction(float(x))) for x in row] for row in self.matrix]


def intersection_form(
    K: SimplicialComplex, w: MetricWeights | None = None, tol: float = 1e-9
) -> IntersectionForm:
    """Pairing matrix Q_ij = <[h_i cup h_j], fundamental class> over a
    harmonic basis of the middle degree."""
    n = K.dimension
    if n % 2 != 0:
        raise ValueError("intersection form needs an even-dimensional complex")
    orientation = orient(K)
    if orientation is None:
        raise ValueError("intersection form needs an orientable complex")
    if not poincare_duality_check(K):
        raise ValueError("intersection form requires the duality check to pass")
    if w is None:
        w = unit_weights(K)
    m = n // 2
    basis = harmonic_basis(K, w, m, tol)
    b = basis.cardinality
    Q = np.zeros((b, b))
    cochains = basis.cochains
    for i in range(b):
        for j in range(b):
            Q[i, j] = evaluate_on_fundamental_class(
                K, orientation, cup(K, cochains[i], cochains[j])
            )

    if m % 2 == 0:
        sym = 0.5 * (Q + Q.T)
        if b == 0:
            return IntersectionForm(m, sym, True, 0, 0, 0, 0, None)
        eigs = np.linalg.eigvalsh(sym)
        cut = ZERO_EIGENVALUE_RTOL * float(np.max(np.abs(eigs)))
        plus = int(np.count_nonzero(eigs > cut))
        minus = int(np.count_nonzero(eigs < -cut))
        zero = b - plus - minus
        if zero:
            raise NumericalError(
                f"intersection form degenerate ({zero} near-zero eigenvalues) "
                "on a complex that passed the duality check"
            )
        return IntersectionForm(m, sym, True, plus, minus, zero, plus - minus, None)

    skew = 0.5 * (Q - Q.T)
    if b == 0:
        return IntersectionForm(m, skew, False, None, None, None, None, 0)
    svals = np.linalg.svd(skew, compute_uv=False)
    cut = ZERO_EIGENVALUE_RTOL * float(svals[0]) if svals[0] > 0 else 0.0
    rank = int(np.count_nonzero(svals > cut))
    if rank != b:
        raise NumericalError(
            f"skew pairing has rank {rank} < b_{m} = {b} "
            "on a complex that passed the duality check"
        )
    return IntersectionForm(m, skew, False, None, None, None, None, rank)
