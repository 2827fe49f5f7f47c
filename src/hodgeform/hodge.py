"""Weighted inner products, Hodge Laplacians, harmonic bases, spectral gaps.

The discrete metric is one strictly positive weight per simplex, i.e. a
diagonal inner product W_k per degree.  The coboundary d_k is the transpose
of the boundary operator; its adjoint under the weights is

    delta_k = W_{k-1}^{-1} d_{k-1}^T W_k

and the degree-k Laplacian is Delta_k = delta_{k+1} d_k + d_{k-1} delta_k.

Harmonic bases are built from exact cocycles, not from eigensolves.
Delta_k x = 0 holds exactly when d_k x = 0 and d_{k-1}^T W_k x = 0, so the
harmonic space is the W_k-orthogonal complement of im d_{k-1} inside
ker d_k, and it depends on w_k alone (the weighted Hodge split, as in Lim,
"Hodge Laplacians on graphs", SIAM Review 2020).  The exact reduction of
:mod:`hodgeform.homology` supplies, once per complex, integral cocycles X_k
(one per cohomology class, in class order) and an independent column set
J_{k-1} of d_{k-1}.  With D the columns J_{k-1} of d_{k-1}, the normal
matrix N_k = D^T W_k D is sparse and positive definite.  One factorization
of it projects X_k W_k-orthogonally off im d_{k-1}; a Cholesky factor of the
Gram matrix of the result then W_k-orthonormalizes it, keeping class order.
An N_k of at most _DENSE_ROWS rows is factored dense, by LAPACK's Cholesky
(``scipy.linalg.lapack.dpotrf``), where SuperLU's fixed cost per call would
exceed the whole factor; a larger one by SuperLU.  The Gram matrices, one
row per cohomology class, go to LAPACK directly too (dpotrf, dtrtri and
dsyevd), without numpy.linalg's per-call checks.

What does not depend on the weights is built once per complex and kept in
``_Operators``: the float coboundaries d_k, the exact-span columns D_k, the
transpose of each (a view sharing its arrays, so no product transposes
again), N_k as one sparse linear map T_k of w_k (its stored values are
T_k w_k, so N_k for new weights is one mat-vec, no sparse product), and the
cocycles X_k, all in the exact reduction's column order.  A sparse factor
of N_k runs in SuperLU's minimum-degree order (George & Liu, SIAM Rev. 31,
1989), which SuperLU computes per factor from the pattern of N_k, on the
natural supernodes of that order (``relax=1``).  SuperLU's default relaxed
supernodes pad small supernodes with explicit zeros (Demmel et al., SIAM
J. Matrix Anal. Appl. 20, 1999); the N_k built from the cliques of a
triangulation do not repay it, and on natural supernodes their factors
keep their L+U nonzero count and take less time.  What
depends on the weights is kept next to it, in two places, keyed by
``MetricWeights.keys``.  The factor of N_k is kept for the latest w_k of
each degree only, since it can be far larger than what it produces.
Everything else goes through one bounded LRU memo per complex,
:func:`memoized`, keyed by a tag, the degrees the value reads and those
degrees' keys.  The split of degree k is keyed by w_k; its certified
residual by (w_{k-1}, w_k, w_{k+1}), because ||Delta_k h||_w reads all
three, and the split keeps the products of that certificate which read
w_k alone, so a residual after a move of w_{k-1} or w_{k+1} costs two
sparse products.  :mod:`hodgeform.formality` keys its norm records by w_k
and its pair blocks by (w_k, w_l, w_{k+l}).  A degree without harmonic cochains
gets no entry: its empty basis has residual 0 and is built anew on each
call, at no cost.  A value enters the memo only when its build returned,
so only results that passed their certificates are kept, and each is
computed by the same code from the same inputs as without the memo.  The
memo holds at most _MEMO_SIZE entries; a search move changes one degree, so
the entries of the degrees it leaves alone are hits.

What ``tolerance`` certifies: :func:`harmonic_basis` raises
:class:`NumericalError` when the reciprocal condition of that Gram matrix is
at most ``tol`` (the projected cocycles are numerically dependent), and
when a basis vector's harmonicity residual ||Delta v||_w exceeds
RESIDUAL_LIMIT.  Far-apart weights can defeat the steps before those
certificates; a factor that finds N_k numerically singular and a Gram
matrix past the float range raise :class:`NumericalError` too, naming the
degree.  :func:`spectral_gaps` reports, per degree, the first
nonzero eigenvalue of S_k = W^{1/2} Delta_k W^{-1/2} over the Gershgorin
scale of S_k; the analysis pipeline raises when that gap is at most ``tol``.
The residual certificate takes no tolerance.  Every basis the module
projects with, :func:`spectral_gaps` included, comes from
:func:`harmonic_basis`, so it has passed both certificates.

scipy is imported by the functions that call it, not with the module, so
code that builds weights and never solves (``random_weights``) loads
numpy only.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .complexes import SimplicialComplex
from .errors import NumericalError
from .homology import cohomology_reduction

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "MetricWeights",
    "HarmonicBasis",
    "unit_weights",
    "random_weights",
    "weights_from_arrays",
    "laplacian",
    "harmonic_basis",
    "spectral_gaps",
]

DEFAULT_TOL = 1e-9
# Largest accepted harmonicity residual ||Delta v||_w of a unit basis vector.
RESIDUAL_LIMIT = 1e-8
# Entries of the per-complex memo.  One weight state of a dimension-4
# complex fills at most 30: 5 splits, 5 residuals, 5 norm-record entries and
# 15 pair blocks, fewer where a degree has no harmonic cochains.  64 holds
# two such states, the current weights and a candidate.
# Factors of N_k stay out of the memo, one per degree (for the latest w_k):
# an N_3 factor on torus:4 has 1.25 M fill.
_MEMO_SIZE = 64
# N_k of at most this many rows is factored dense by LAPACK's Cholesky,
# which costs less than SuperLU's fixed set-up at that size; a larger one
# by SuperLU, whose factor of a sparse N_k is far smaller and faster.
_DENSE_ROWS = 128


@dataclass(frozen=True, eq=False)
class MetricWeights:
    """One positive weight per simplex, per degree: read-only float64 copies,
    each checked once.  ``keys[k]`` is the bytes of degree k's vector, taken
    once; the memo and the factors of this module key on it."""

    by_degree: tuple[np.ndarray, ...]
    keys: tuple[bytes, ...] = field(init=False, repr=False)

    def __post_init__(self):
        parts = tuple(_checked(k, w) for k, w in enumerate(self.by_degree))
        object.__setattr__(self, "by_degree", parts)
        object.__setattr__(self, "keys", tuple(a.tobytes() for a in parts))

    def degree(self, k: int) -> np.ndarray:
        return self.by_degree[k]

    def replace(self, k: int, values: np.ndarray) -> "MetricWeights":
        """These weights with degree k's vector replaced by one of the same
        length.  Only the new vector is checked and copied; the other
        degrees keep their arrays and keys."""
        if not 0 <= k < len(self.by_degree):
            raise ValueError(f"degree {k} out of range 0..{len(self.by_degree) - 1}")
        new = _checked(k, values)
        if new.shape != self.by_degree[k].shape:
            raise ValueError(f"degree-{k} weights need {self.by_degree[k].size} entries")
        out = object.__new__(MetricWeights)
        object.__setattr__(out, "by_degree", self.by_degree[:k] + (new,) + self.by_degree[k + 1 :])
        object.__setattr__(out, "keys", self.keys[:k] + (new.tobytes(),) + self.keys[k + 1 :])
        return out


def _checked(k: int, values) -> np.ndarray:
    # a float64 copy, so that equal weights have equal keys and no caller
    # array can change a vector after its check; a subnormal weight counts
    # as zero, since its reciprocal overflows
    message = f"degree-{k} weights must be finite and strictly positive"
    try:
        w = np.array(values, dtype=np.float64)
    except OverflowError:  # an integer beyond the float64 range, e.g. 10**400
        raise ValueError(message) from None
    if w.size and (not np.all(np.isfinite(w)) or np.any(w < np.finfo(np.float64).tiny)):
        raise ValueError(message)
    w.flags.writeable = False
    return w


def weights_from_arrays(K: SimplicialComplex, arrays) -> MetricWeights:
    try:
        w = MetricWeights(tuple(arrays))
    except TypeError as exc:
        raise ValueError(f"expected one list of weights per degree ({exc})") from None
    _check_weights(K, w)
    return w


def unit_weights(K: SimplicialComplex) -> MetricWeights:
    return MetricWeights(
        tuple(np.ones(K.simplex_count(k)) for k in range(K.dimension + 1))
    )


def random_weights(K, rng) -> MetricWeights:
    """Log-uniform weights in [1e-2, 1e2]."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lo, hi = np.log(1e-2), np.log(1e2)
    return MetricWeights(
        tuple(
            np.exp(rng.uniform(lo, hi, size=K.simplex_count(k)))
            for k in range(K.dimension + 1)
        )
    )


def _check_weights(K: SimplicialComplex, w: MetricWeights) -> None:
    # one comparison for weights that fit; the messages only for those that do not
    if tuple(a.shape for a in w.by_degree) == tuple((c,) for c in K.f_vector):
        return
    if len(w.by_degree) != K.dimension + 1:
        raise ValueError(f"need {K.dimension + 1} weight vectors, got {len(w.by_degree)}")
    for k, a in enumerate(w.by_degree):
        count = K.simplex_count(k)
        if a.shape != (count,):
            raise ValueError(f"degree-{k} weights have shape {a.shape}, expected ({count},)")


class _NormalMatrix:
    """N_k = D^T W_k D for any w_k, as one linear map of w_k built once per
    complex: the stored values of N_k are ``T @ w_k``.

    T has one row per stored entry (i, j) of N_k, in CSC order, and one
    column per k-simplex r: T[(i, j), r] = D_ri D_rj, so column r is
    dN_k/dw_r.  Each row lists its r in increasing order, so the CSR product
    sums every entry's terms in the order of D^T (W_k D), and the values are
    bitwise that product's.  An N_k of at most _DENSE_ROWS rows also keeps
    the position j * size + i of each stored entry in a Fortran-ordered
    dense array (``dense_positions``, None for a larger N_k), so that
    :meth:`dense_at` is one scatter.
    """

    def __init__(self, D: sp.csc_matrix):
        import scipy.sparse as sp

        self.size = size = D.shape[1]
        R = D.tocsr()
        # every ordered pair (e, f) of stored entries in one row of D: each
        # entry e once per entry of its row, f running over that row
        row = np.repeat(np.arange(R.shape[0]), np.diff(R.indptr))
        m = np.diff(R.indptr)[row]
        e = np.repeat(np.arange(R.nnz), m)
        f = np.arange(len(e)) - np.repeat(np.cumsum(m) - m - R.indptr[row], m)
        # sorted by the position p of their entry (i, j) of N_k, then by r
        p = R.indices[f].astype(np.int64) * size + R.indices[e]
        order = np.argsort(p * R.shape[0] + row[e])
        p, first = np.unique(p[order], return_index=True)
        values, r = (R.data[e] * R.data[f])[order], row[e][order]
        self.T = sp.csr_matrix((values, r, np.append(first, len(r))), (len(p), R.shape[0]))
        self.indices = (p % size).astype(np.int32)
        self.indptr = np.searchsorted(p, np.arange(size + 1) * size).astype(np.int32)
        self.dense_positions = p if size <= _DENSE_ROWS else None

    def at(self, wk: np.ndarray) -> sp.csc_matrix:
        import scipy.sparse as sp

        return sp.csc_matrix((self.T @ wk, self.indices, self.indptr), shape=(self.size, self.size))

    def dense_at(self, wk: np.ndarray) -> np.ndarray:
        """N_k as a Fortran-ordered dense array (at most _DENSE_ROWS rows)."""
        out = np.zeros(self.size * self.size)
        out[self.dense_positions] = self.T @ wk
        return out.reshape((self.size, self.size), order="F")


class _Operators:
    """What one complex needs for every weight: float coboundaries, the
    exact-span columns D, both with their transposes, N_k as a linear map of
    w_k and the cocycles per degree, plus the memo entries of
    :func:`memoized` and the latest factor of N_k per degree."""

    def __init__(self, K: SimplicialComplex):
        import scipy.sparse as sp

        red = cohomology_reduction(K)
        self.d = tuple(d.tocsr().astype(np.float64) for d in red.coboundaries)
        # exact_span[k] = d_{k-1} restricted to its independent columns
        # J_{k-1} = red.independent[k - 1] (no columns at k = 0)
        self.exact_span = (sp.csc_matrix((K.simplex_count(0), 0)),) + tuple(
            d[:, J].tocsc() for d, J in zip(self.d, red.independent)
        )
        # transposes taken once; each shares the arrays of its matrix
        self.d_T = tuple(d.T for d in self.d)
        self.exact_span_T = tuple(D.T for D in self.exact_span)
        self.normal = tuple(_NormalMatrix(D) for D in self.exact_span)
        self.cocycles = tuple(X.astype(np.float64) for X in red.cocycles)
        self.entries: OrderedDict[tuple, object] = OrderedDict()
        # degree -> (key of w_k, solver of N_k from its factor for those weights)
        self.factors: dict[int, tuple[bytes, Callable[[np.ndarray], np.ndarray]]] = {}


def _operators(K: SimplicialComplex) -> _Operators:
    return K.derived("hodge_operators", _Operators)


def memoized(K: SimplicialComplex, w: MetricWeights, tag: str, degrees: tuple[int, ...], build):
    """The entry of K's memo under ``tag``, ``degrees`` and ``w.keys`` of
    those degrees, else ``build()``, kept only when it returns; the least
    recently used entry goes beyond _MEMO_SIZE.  ``degrees`` must name every
    weight vector the value reads."""
    entries = _operators(K).entries
    key = (tag, degrees) + tuple(w.keys[j] for j in degrees)
    if key in entries:
        entries.move_to_end(key)
        return entries[key]
    value = entries[key] = build()
    if len(entries) > _MEMO_SIZE:
        entries.popitem(last=False)
    return value


def laplacian(K: SimplicialComplex, w: MetricWeights, k: int) -> sp.csr_matrix:
    """Delta_k as a sparse matrix; self-adjoint under the weighted inner
    product and positive semidefinite (not symmetric as a plain matrix)."""
    import scipy.sparse as sp

    if not 0 <= k <= K.dimension:
        raise ValueError(f"degree {k} out of range 0..{K.dimension}")
    _check_weights(K, w)
    ops = _operators(K)
    m = len(w.degree(k))
    out = sp.csr_matrix((m, m))
    if k < len(ops.d):
        d, d_T = ops.d[k], ops.d_T[k]
        out = out + sp.diags(1.0 / w.degree(k)) @ d_T @ sp.diags(w.degree(k + 1)) @ d
    if k > 0:
        d, d_T = ops.d[k - 1], ops.d_T[k - 1]
        out = out + d @ sp.diags(1.0 / w.degree(k - 1)) @ d_T @ sp.diags(w.degree(k))
    return out.tocsr()


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """w-orthonormal basis of the harmonic k-cochains, in class order.

    ``vectors`` has one column per basis element (read-only; it is shared
    between calls with equal degree-k weights).  It is stored column-major,
    so ``vectors.T`` is a C-contiguous view with one basis element per row,
    the layout :func:`hodgeform.cup.cup` takes.  The cardinality always
    equals the Betti number.  ``residual`` is the worst harmonicity defect
    ||Delta v||_w over the (unit) basis vectors, and ``gram_rcond`` the
    reciprocal condition of the Gram matrix of the projected cocycles, the
    margin that the ``tol`` of :func:`harmonic_basis` certifies.
    """

    degree: int
    vectors: np.ndarray
    residual: float
    gram_rcond: float

    @property
    def cardinality(self) -> int:
        return self.vectors.shape[1]


def _normal_factor(
    ops: _Operators, w: MetricWeights, k: int
) -> Callable[[np.ndarray], np.ndarray] | None:
    """A solver of N_k x = b, for one right-hand side or a block of columns,
    from a factor of N_k = D^T W_k D; None when im d_{k-1} = 0.

    N_k is positive definite.  At most _DENSE_ROWS rows, it is made dense
    and factored by LAPACK's Cholesky (dpotrf, solves by dpotrs); larger,
    by SuperLU with diagonal pivots in its minimum-degree order of N_k, on
    natural supernodes (relax=1, no padding with explicit zeros).  Pass no
    other expert option: panel_size=40 corrupted memory in scipy 1.17.1.
    Raises NumericalError when either factor finds N_k numerically singular.
    Only the solver for the latest w_k of each degree is kept."""
    if not ops.exact_span[k].shape[1]:
        return None
    key = w.keys[k]
    held = ops.factors.get(k)
    if held is not None and held[0] == key:
        return held[1]
    ops.factors.pop(k, None)
    normal, wk = ops.normal[k], w.degree(k)
    singular = f"degree-{k} normal matrix is numerically singular"
    if normal.dense_positions is not None:
        from scipy.linalg.lapack import dpotrf, dpotrs

        L, info = dpotrf(normal.dense_at(wk), lower=1, clean=0, overwrite_a=1)
        if info:
            raise NumericalError(singular)

        def solve(b):
            return dpotrs(L, b, lower=1)[0]

    else:
        import scipy.sparse.linalg as spla

        try:
            solve = spla.splu(
                normal.at(wk),
                permc_spec="MMD_AT_PLUS_A",
                relax=1,
                options=dict(SymmetricMode=True, DiagPivotThresh=0.0),
            ).solve
        except RuntimeError:  # SuperLU's "Factor is exactly singular"
            raise NumericalError(singular) from None
    ops.factors[k] = (key, solve)
    return solve


def _exact_part(ops: _Operators, w: MetricWeights, k: int, X: np.ndarray) -> np.ndarray:
    """W_k-orthogonal projection of X (one cochain or a block of columns)
    onto im d_{k-1}, D N_k^{-1} D^T W_k X; zeros when im d_{k-1} = 0."""
    solve = _normal_factor(ops, w, k)
    if solve is None:
        return np.zeros_like(X)
    return ops.exact_span[k] @ solve(ops.exact_span_T[k] @ (w.degree(k) * X.T).T)


def _inverse_cholesky(gram: np.ndarray) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of ``gram``, by LAPACK dpotrf
    and dtrtri.  Raises LinAlgError when ``gram`` is not numerically
    positive definite."""
    from scipy.linalg.lapack import dpotrf, dtrtri

    L, info = dpotrf(gram, lower=1)
    if not info:
        L, info = dtrtri(L, lower=1, overwrite_c=1)
    if info:
        raise np.linalg.LinAlgError("Gram matrix is not positive definite")
    return L


def _orthonormalize(X: np.ndarray, wk: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """X L^{-T} with L L^T = ``gram``, the W-Gram matrix of X, then once
    more with the Gram matrix of the result, which brings the
    W-orthogonality defect to round-off for any certified X.  L has one row
    per cohomology class, so its inverse is cheap to form."""
    X = X @ _inverse_cholesky(gram).T
    return X @ _inverse_cholesky(X.T @ (wk[:, None] * X)).T


def _rcond(gram: np.ndarray) -> float:
    """Reciprocal condition of a nonempty, finite, symmetric positive
    semidefinite matrix, from LAPACK dsyevd; 0 when it does not converge.
    A smallest eigenvalue that round-off leaves below zero counts as 0, so
    the result is never negative."""
    from scipy.linalg.lapack import dsyevd

    eigs, _, info = dsyevd(gram, compute_v=0, lower=1)
    return float(max(eigs[0], 0.0) / eigs[-1]) if not info and eigs[-1] > 0 else 0.0


def _build_split(ops: _Operators, w: MetricWeights, k: int) -> tuple[np.ndarray, float, tuple]:
    """(vectors, gram_rcond, parts) of the nonempty degree-k harmonic basis H
    for w_k.  ``parts`` are what the residual certificate reads of w_k
    alone: d_k H, d_{k-1}^T (W_k H) (None where the operator does not exist)
    and the w-norms of the columns of H."""
    X, wk = ops.cocycles[k], w.degree(k)
    X = X - _exact_part(ops, w, k, X)
    # one Gram matrix for the condition and the first orthonormalization;
    # far-apart weights can carry it past the float range
    with np.errstate(over="ignore", invalid="ignore"):
        gram = X.T @ (wk[:, None] * X)
    if not np.all(np.isfinite(gram)):
        raise NumericalError(f"degree-{k} Gram matrix of the projected cocycles is not finite")
    rcond = _rcond(gram)
    try:
        H = _orthonormalize(X, wk, gram)
    except np.linalg.LinAlgError:
        raise NumericalError(
            f"projected degree-{k} cocycles are numerically dependent "
            f"(Gram reciprocal condition {rcond:.3e})"
        ) from None
    H = np.asfortranarray(H)
    H.flags.writeable = False
    wk = wk[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        up = ops.d[k] @ H if k < len(ops.d) else None
        down = ops.d_T[k - 1] @ (wk * H) if k > 0 else None
        size = np.linalg.norm(np.sqrt(wk) * H, axis=0)
    return H, rcond, (up, down, size)


def _certified_residual(
    ops: _Operators, w: MetricWeights, k: int, H: np.ndarray, parts: tuple
) -> float:
    """max_i ||Delta_k h_i||_w / ||h_i||_w without forming Delta_k, from the
    ``parts`` of :func:`_build_split`, so only the products that read
    w_{k+1} and w_{k-1} run here.  Raises NumericalError above
    RESIDUAL_LIMIT: the certificate takes no tolerance.

    Each w-norm is the plain norm of sqrt(w) x, which stays finite where x
    alone squares past the float range; a defect that still leaves it reads
    inf or nan and fails the certificate."""
    up, down, size = parts
    wk = w.degree(k)[:, None]
    out = np.zeros_like(H)
    with np.errstate(over="ignore", invalid="ignore"):
        if up is not None:
            out += (ops.d_T[k] @ (w.degree(k + 1)[:, None] * up)) / wk
        if down is not None:
            out += ops.d[k - 1] @ (down / w.degree(k - 1)[:, None])
        defect = np.linalg.norm(np.sqrt(wk) * out, axis=0)
        residual = float(np.max(defect / size))
    if not residual <= RESIDUAL_LIMIT:
        raise NumericalError(
            f"degree-{k} harmonic basis has residual {residual:.3e} "
            f"> {RESIDUAL_LIMIT:.1e}"
        )
    return residual


def harmonic_basis(
    K: SimplicialComplex, w: MetricWeights, k: int, tol: float = DEFAULT_TOL
) -> HarmonicBasis:
    """W_k-orthonormal basis of the harmonic k-cochains, in class order.

    Built from the integral cocycles of the exact reduction, so the vectors
    depend on w_k alone.  Fails loudly when the Gram matrix of the projected
    cocycles has reciprocal condition at most ``tol`` or a basis vector's
    harmonicity residual exceeds RESIDUAL_LIMIT.
    """
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not 0 <= k <= K.dimension:
        raise ValueError(f"degree {k} out of range 0..{K.dimension}")
    _check_weights(K, w)
    ops = _operators(K)
    if ops.cocycles[k].shape[1]:
        vectors, rcond, parts = memoized(K, w, "split", (k,), lambda: _build_split(ops, w, k))
    else:
        # a degree without harmonic cochains keeps nothing in the memo: its
        # empty basis costs nothing to build and has residual 0
        vectors, rcond, parts = np.zeros((K.simplex_count(k), 0)), 1.0, None
    if rcond <= tol:
        raise NumericalError(
            f"degree-{k} Gram matrix has reciprocal condition {rcond:.3e} <= tolerance {tol:.3e}"
        )
    if not vectors.shape[1]:
        return HarmonicBasis(k, vectors, 0.0, rcond)
    # the residual reads the weights of k and its neighbours, the split w_k
    near = tuple(range(max(k - 1, 0), min(k + 1, K.dimension) + 1))
    residual = memoized(
        K, w, "residual", near, lambda: _certified_residual(ops, w, k, vectors, parts)
    )
    return HarmonicBasis(k, vectors, residual, rcond)


def _smallest_nonzero(K: SimplicialComplex, w: MetricWeights, j: int, tol: float) -> float:
    """Smallest nonzero eigenvalue mu_j of the pencil
    (d_{j-1}^T W_j d_{j-1}, W_{j-1}), for 1 <= j <= dim K.  Every j-simplex
    has a nonzero boundary, so d_{j-1} has rank r >= 1.

    Its eigenvectors are the coexact (j-1)-cochains, which the columns J of
    d_{j-1} parametrize (the exact reduction's independent set, the columns
    of D_j): a coefficient vector c stands for the coexact part of the
    cochain with values c on J.  In those coordinates the pencil
    becomes (N_j, M) with M c = E^T W_{j-1} (Ec - P Ec), where P projects
    onto ker d_{j-1} = im d_{j-2} + harmonic, i.e. via the factor of N_{j-1}
    and the basis H_{j-1}, which comes from :func:`harmonic_basis` at
    ``tol``.  ARPACK finds the largest eigenvalue 1/mu_j of N_j^{-1} M with
    N_j from its linear map and the factor of N_j; no Laplacian is
    factorized.  Raises NumericalError when ARPACK fails.
    """
    import scipy.sparse.linalg as spla

    ops = _operators(K)
    J = cohomology_reduction(K).independent[j - 1]
    r = len(J)
    W = w.degree(j - 1)
    WJ = W[J]
    N = ops.normal[j].at(w.degree(j))
    solve_normal = _normal_factor(ops, w, j)
    H = harmonic_basis(K, w, j - 1, tol).vectors

    def coexact_mass(c):
        x = np.zeros(len(W))
        x[J] = c
        kernel_part = H @ (H.T @ (W * x)) + _exact_part(ops, w, j - 1, x)
        return WJ * c - (W * kernel_part)[J]

    if r == 1:
        return float(N[0, 0] / coexact_mass(np.ones(1))[0])
    try:
        theta = spla.eigsh(
            spla.LinearOperator((r, r), matvec=coexact_mass, dtype=np.float64),
            k=1,
            M=N,
            Minv=spla.LinearOperator((r, r), matvec=solve_normal, dtype=np.float64),
            which="LA",
            # the Ritz value's relative error is about the square of this
            # residual tolerance, far below what the gap is compared against
            tol=1e-10,
            v0=np.random.default_rng(0x5EED).standard_normal(r),
            return_eigenvectors=False,
        )
    except spla.ArpackError as exc:  # ArpackNoConvergence included
        raise NumericalError(f"degree-{j} pencil eigensolve failed: {exc}") from None
    return float(1.0 / theta[0])


def spectral_gaps(
    K: SimplicialComplex, w: MetricWeights, tol: float = DEFAULT_TOL
) -> tuple[float | None, ...]:
    """Per degree k, lambda_{b_k+1}(S_k) over the Gershgorin scale of S_k.

    S_k = W^{1/2} Delta_k W^{-1/2}.  The nonzero spectrum of Delta_k is that
    of its down part (mu_k) joined with that of its up part (mu_{k+1}), so
    the first nonzero eigenvalue is min(mu_k, mu_{k+1}); each mu_j comes from
    the pencil solve of :func:`_smallest_nonzero`.  None where Delta_k has no
    nonzero eigenvalue.  Reuses the factors and bases of
    :func:`harmonic_basis` for the same weights, and certifies those bases
    at ``tol``.
    """
    _check_weights(K, w)
    n = K.dimension
    mu = [None] + [_smallest_nonzero(K, w, j, tol) for j in range(1, n + 1)] + [None]
    gaps = []
    for k in range(n + 1):
        nonzero = [m for m in (mu[k], mu[k + 1]) if m is not None]
        L = abs(laplacian(K, w, k))
        sqrt_w = np.sqrt(w.degree(k))
        scale = float(np.max(sqrt_w * (L @ (1.0 / sqrt_w)), initial=0.0))
        gaps.append(min(nonzero) / scale if nonzero and scale > 0 else None)
    return tuple(gaps)
