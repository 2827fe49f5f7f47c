"""How far a weighted complex is from having harmonic cup products.

For harmonic cochains a, b the probe measures

    residual(a, b) = ||a cup b - P_H (a cup b)||_w / ||a cup b||_w

where P_H is the w-orthogonal projection onto the harmonic subspace of the
target degree.  Residual 0 for every basis pair means the weight choice is
discretely formal for the tested basis; bilinearity reduces the quantifier
over all harmonic cochains to basis pairs.  The report records every
ordered basis pair whose degrees sum to at most dim K, sorted by
(degree_a, degree_b, index_a, index_b).  Products that vanish identically
are flagged instead of divided by zero.

Pairs involving a degree-0 harmonic cochain are resolved exactly: on a
connected complex the degree-0 harmonic space is the constants, a constant
acts as the ring unit, and unit * b = b stays harmonic, so the residual is
0 by arithmetic rather than by a float projection.

The probe tests pairwise products only.  Products of three or more harmonic
cochains need not lie in the tested set; extending the sweep to triples is a
possible follow-up, not implemented.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .complexes import SimplicialComplex
from .cup import cup
from .hodge import DEFAULT_TOL, MetricWeights, harmonic_basis, memoized, unit_weights

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "PairRecord",
    "NormRecord",
    "FormalityReport",
    "SearchConfig",
    "formality_residual",
    "search_formal_weights",
]

ZERO_PRODUCT_RTOL = 1e-12
FORMAL_AGGREGATE_THRESHOLD = 1e-8
# The aggregate lies in [0, 1]; evaluations that are equal algebraically
# differ by a few ulps, so the search counts only larger drops as progress.
_ROUND_OFF = 1e-12
# The search's fixed step schedule, described in search_formal_weights.
_STEP = 0.5
_MIN_STEP = 1e-3
_IMPROVEMENT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PairRecord:
    degree_a: int
    index_a: int
    degree_b: int
    index_b: int
    product_norm: float
    residual: float
    zero_product: bool
    unit_pair: bool


@dataclass(frozen=True, eq=False)
class NormRecord:
    degree: int
    index: int
    variation: float


@dataclass(eq=False)
class FormalityReport:
    aggregate: float
    tolerance: float
    pairs: list[PairRecord] = field(default_factory=list)
    norm_constancy: list[NormRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _row_norms(X: np.ndarray, wk: np.ndarray) -> np.ndarray:
    """The w-norm of every row of X.  einsum reduces each row along its own
    contiguous values, so a row's norm does not depend on how many rows X
    has; a BLAS product would not promise that."""
    return np.sqrt(np.einsum("pi,pi,i->p", X, X, wk))


def _pair_block(K, w, k, l, rows):
    """(product norms, residuals, zero-product flags) of a cup b for every
    basis row a of degree k and every basis row b of degree l, a-major.

    ``rows[p]`` holds the certified harmonic basis of degree p as rows.  The
    products form one block C = cup(K, A, k, B, l) with a row per pair,
    projected at once:
    C - (C W H^T) H with H = rows[k + l].  Every reduction runs per row, so
    a pair's results do not depend on the block it is in.  Unit pairs (k or
    l is 0) get residual 0 and no zero-product test.
    """
    A, B = rows[k], rows[l]
    target = k + l
    C = cup(K, A, k, B, l)
    wt = w.degree(target)
    product_norm = _row_norms(C, wt)
    residual = np.zeros(len(C))
    if k == 0 or l == 0:
        return product_norm, residual, np.zeros(len(C), dtype=bool)
    floor = (ZERO_PRODUCT_RTOL * _row_norms(A, w.degree(k)))[:, None] * _row_norms(B, w.degree(l))
    zero = product_norm <= floor.ravel()
    live = ~zero
    if live.any():
        H = rows[target]
        C = C[live]
        coeffs = np.einsum("pi,si->ps", wt * C, H)
        projected = np.einsum("ps,si->pi", coeffs, H)
        residual[live] = _row_norms(C - projected, wt) / product_norm[live]
    return product_norm, residual, zero


def _vertex_incidence(K: SimplicialComplex, k: int) -> sp.csc_matrix:
    import scipy.sparse as sp

    # column j marks the vertices of the j-th k-simplex
    vertices = np.array(K.simplices(k), dtype=np.int64).reshape(-1, k + 1)
    indptr = np.arange(0, vertices.size + 1, k + 1)
    ones = np.ones(vertices.size)
    shape = (K.vertex_count, len(vertices))
    return sp.csc_matrix((ones, vertices.ravel(), indptr), shape=shape)


def _norm_variation(K, w, k, A) -> np.ndarray:
    # The coefficient of variation over vertices of each row's localized
    # squared norm, one row of A (degree k) per reduction.  The localized
    # norm at a vertex averages w_sigma * a(sigma)^2 over the k-simplices
    # containing it, weight-normalized; 0 means the cochain has discretely
    # constant length.
    weights = w.degree(k)
    S = K.derived(f"vertex_incidence:{k}", lambda K: _vertex_incidence(K, k))
    local = (S @ (weights * A**2).T) / (S @ weights)[:, None]
    local = np.ascontiguousarray(local.T)
    return local.std(axis=1) / local.mean(axis=1)


def formality_residual(
    K: SimplicialComplex, w: MetricWeights, tol: float = DEFAULT_TOL
) -> FormalityReport:
    """Evaluate every ordered harmonic basis pair ((k, i), (l, j)) with
    k + l <= dim K, and the norm constancy of every basis cochain.

    Both orders of a pair are recorded, since the cochain product is not
    commutative.  Pair records are sorted by (degree_a, degree_b, index_a,
    index_b), norm records by (degree, index); the aggregate is the maximum
    residual over the pair records.  The pairs of each degree pair (k, l)
    are evaluated as one block, the norms of each degree in one product.

    Every basis is certified by :func:`harmonic_basis` on every call, and
    its transposed ``vectors`` are the rows multiplied, without a copy.  The
    norm records of degree k (which read w_k) and the pair records of (k, l)
    (which read w_k, w_l and w_{k+l}) then come from the per-complex memo of
    :mod:`hodgeform.hodge`, so a candidate that moves one degree recomputes
    only what reads that degree.  A degree without harmonic cochains has no
    rows, records or memo entry.
    """
    n = K.dimension
    rows = [harmonic_basis(K, w, k, tol).vectors.T for k in range(n + 1)]
    report = FormalityReport(aggregate=0.0, tolerance=tol)
    for k in range(n + 1):
        if not len(rows[k]):
            continue
        report.norm_constancy += memoized(
            K, w, "norms", (k,), lambda: _norm_records(K, w, k, rows[k])
        )
        for l in range(n + 1 - k):
            if len(rows[l]):
                report.pairs += memoized(
                    K, w, "pairs", (k, l, k + l), lambda: _pair_records(K, w, k, l, rows)
                )
    report.aggregate = max((p.residual for p in report.pairs), default=0.0)
    return report


def _norm_records(K, w, k, rows) -> tuple[NormRecord, ...]:
    # the norm records of the degree-k basis rows
    variation = _norm_variation(K, w, k, rows).tolist()
    return tuple(NormRecord(k, i, v) for i, v in enumerate(variation))


def _pair_records(K, w, k, l, rows) -> tuple[PairRecord, ...]:
    # the records of every pair of a degree-k and a degree-l basis row
    block = _pair_block(K, w, k, l, rows)
    indices = itertools.product(range(len(rows[k])), range(len(rows[l])))
    return tuple(
        PairRecord(k, i, l, j, nc, r, z, 0 in (k, l))
        for (i, j), nc, r, z in zip(indices, *(x.tolist() for x in block))
    )


@dataclass(frozen=True)
class SearchConfig:
    """Settings for the coordinate search over log-weights: at most
    ``max_iterations`` sweeps, the seed of the coordinate order, and the
    free degrees (by default 1..n, since degree-0 weights change no
    residual).  The step schedule is fixed: see search_formal_weights."""

    max_iterations: int = 20
    seed: int = 0
    free_degrees: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")


def search_formal_weights(
    K: SimplicialComplex,
    cfg: SearchConfig,
    initial: MetricWeights | None = None,
) -> tuple[MetricWeights, list[float]]:
    """Derivative-free coordinate descent on the aggregate residual.

    Multiplicative perturbations in log-weight space keep every weight
    strictly positive; a candidate is accepted only when it lowers the
    aggregate by more than round-off (_ROUND_OFF), so the returned trace is
    decreasing.  The log step starts at _STEP = 0.5 and halves after a sweep
    without improvement; the search stops when the step falls below
    _MIN_STEP = 1e-3 or a sweep gains less than _IMPROVEMENT_TOL = 1e-6.
    The free degrees are checked before the first evaluation.
    Deterministic for a fixed seed.
    """
    free = (
        tuple(range(1, K.dimension + 1))
        if cfg.free_degrees is None
        else tuple(cfg.free_degrees)
    )
    for k in free:
        if not 0 <= k <= K.dimension:
            raise ValueError(f"free degree {k} out of range 0..{K.dimension}")
    if len(set(free)) != len(free):
        raise ValueError(f"free degrees {free} repeat a degree")
    w = initial if initial is not None else unit_weights(K)
    aggregate = formality_residual(K, w).aggregate
    trace = [aggregate]
    rng = np.random.default_rng(cfg.seed)
    step = _STEP

    for _ in range(cfg.max_iterations):
        if aggregate <= FORMAL_AGGREGATE_THRESHOLD:
            break
        sweep_start = aggregate
        improved = False
        coords = [(k, i) for k in free for i in range(K.simplex_count(k))]
        rng.shuffle(coords)
        for k, i in coords:
            for direction in (1.0, -1.0):
                scaled = w.degree(k).copy()
                scaled[i] *= float(np.exp(direction * step))
                candidate = w.replace(k, scaled)
                value = formality_residual(K, candidate).aggregate
                if value < aggregate - _ROUND_OFF:
                    w, aggregate = candidate, value
                    trace.append(aggregate)
                    improved = True
                    break
        if not improved:
            step *= 0.5
            if step < _MIN_STEP:
                break
        elif sweep_start - aggregate < _IMPROVEMENT_TOL:
            break
    return w, trace
