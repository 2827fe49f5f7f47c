import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from hodgeform.cli import main
from hodgeform.complexes import (
    SimplicialComplex,
    build_complex,
    connected_sum,
    load_complex,
    product_complex,
    sphere,
    surface,
    torus,
)
from hodgeform import hodge
from hodgeform.formality import formality_residual
from hodgeform.errors import NumericalError
from hodgeform.hodge import (
    MetricWeights,
    harmonic_basis,
    laplacian,
    random_weights,
    spectral_gaps,
    unit_weights,
    weights_from_arrays,
)
from hodgeform.homology import betti_numbers, boundary_matrix

from test_formality import w_norm


def dense_laplacian(K, w, k):
    """Independent dense assembly straight from the adjoint formula."""
    n = K.dimension
    m = K.simplex_count(k)
    out = np.zeros((m, m))
    if k < n:
        d = boundary_matrix(K, k + 1).T.toarray().astype(float)
        out += np.diag(1.0 / w.degree(k)) @ d.T @ np.diag(w.degree(k + 1)) @ d
    if k > 0:
        d = boundary_matrix(K, k).T.toarray().astype(float)
        out += d @ np.diag(1.0 / w.degree(k - 1)) @ d.T @ np.diag(w.degree(k))
    return out


def test_unit_weights_shapes(tori, spheres):
    w = unit_weights(tori[2])
    assert tuple(len(v) for v in w.by_degree) == (9, 27, 18)
    assert all(np.all(v == 1.0) for v in w.by_degree)
    assert all(np.all(v == 1.0) for v in unit_weights(spheres[2]).by_degree)


def test_weights_validation(tori):
    with pytest.raises(ValueError):
        weights_from_arrays(tori[2], [np.ones(9), np.ones(27)])
    with pytest.raises(ValueError):
        weights_from_arrays(tori[2], [np.ones(9), np.ones(26), np.ones(18)])
    with pytest.raises(ValueError):
        MetricWeights((np.array([1.0, -1.0]),))
    with pytest.raises(ValueError):
        MetricWeights((np.array([1.0, 0.0]),))


def test_every_entry_point_checks_the_weights_against_the_complex(tori):
    # weights of another complex are refused by each public entry point,
    # with a message that names the mismatch
    K = tori[2]
    short = MetricWeights((np.ones(9), np.ones(27)))
    wrong = MetricWeights((np.ones(9), np.ones(26), np.ones(18)))
    entry_points = (
        lambda w: weights_from_arrays(K, w.by_degree),
        lambda w: laplacian(K, w, 1),
        lambda w: harmonic_basis(K, w, 1),
        lambda w: spectral_gaps(K, w),
        lambda w: formality_residual(K, w),
    )
    for call in entry_points:
        with pytest.raises(ValueError, match="need 3 weight vectors, got 2"):
            call(short)
        with pytest.raises(ValueError, match=r"degree-1 weights have shape \(26,\), expected \(27,\)"):
            call(wrong)


def test_weights_of_any_dtype_are_kept_as_float64(tori):
    # the per-complex caches key on the weights' bytes: an int64 vector with
    # the bytes of a float64 one must not be served the float vector's basis
    K = tori[2]
    wf = random_weights(K, 0)
    wi = MetricWeights(tuple(a.view(np.int64) for a in wf.by_degree))
    assert all(a.dtype == np.float64 for a in wi.by_degree)
    harmonic_basis(K, wf, 1)
    warm = harmonic_basis(K, wi, 1)
    fresh = harmonic_basis(torus(2), wi, 1)
    assert np.array_equal(warm.vectors, fresh.vectors)
    assert warm.residual == fresh.residual
    ints = MetricWeights(tuple(np.ones(K.simplex_count(k), dtype=np.int64) for k in range(3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        L = laplacian(K, ints, 1)
    assert np.allclose(L.toarray(), laplacian(K, unit_weights(K), 1).toarray())


def test_replace_checks_and_converts_only_the_new_vector(tori):
    K = tori[2]
    w = random_weights(K, 0)
    for bad in (np.nan, 0.0, -1.0):
        values = np.ones(K.simplex_count(1))
        values[3] = bad
        with pytest.raises(ValueError, match="degree-1 weights must be finite and strictly positive"):
            w.replace(1, values)
    moved = w.replace(1, np.arange(1, K.simplex_count(1) + 1))
    assert moved.degree(1).dtype == np.float64
    assert np.array_equal(moved.degree(1), np.arange(1.0, K.simplex_count(1) + 1))
    assert moved.degree(0) is w.degree(0) and moved.degree(2) is w.degree(2)


def test_weights_are_read_only_copies_of_the_callers_arrays(tori):
    K = tori[2]
    made = []
    for make in (MetricWeights, lambda arrays: weights_from_arrays(K, arrays)):
        arrays = tuple(np.ones(K.simplex_count(k)) for k in range(3))
        made.append(make(arrays))
        arrays[1][0] = -5.0
        arrays[2][:] = np.nan
        assert all(np.all(made[-1].degree(k) == 1.0) for k in range(3))
    values = np.ones(K.simplex_count(1))
    made.append(unit_weights(K).replace(1, values))
    values[0] = -5.0
    assert np.all(made[-1].degree(1) == 1.0)
    for w in made + [unit_weights(K), random_weights(K, 0)]:
        for k in range(3):
            with pytest.raises(ValueError, match="read-only"):
                w.degree(k)[0] = 2.0


def test_replace_shares_the_untouched_degrees_and_keys(tori):
    K = tori[2]
    w = random_weights(K, 0)
    moved = w.replace(1, 2.0 * w.degree(1))
    for k in (0, 2):
        assert moved.degree(k) is w.degree(k) and moved.keys[k] is w.keys[k]
    for weights in (w, moved):
        assert all(weights.keys[k] == weights.degree(k).tobytes() for k in range(3))


def test_replace_rejects_a_degree_or_length_that_does_not_fit(tori):
    K = tori[2]
    w = unit_weights(K)
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"degree {k} out of range 0..2"):
            w.replace(k, np.ones(K.simplex_count(2)))
    with pytest.raises(ValueError, match="degree-1 weights need 27 entries"):
        w.replace(1, np.ones(5))


def test_memo_hit_never_skips_the_residual_certificate(tori):
    # the degree-1 split is a memo hit (it reads w_1 alone), but its
    # residual reads w_2 too: with w_2 = 1e8 it is 2.99e-8, above the limit
    K = tori[2]
    w = unit_weights(K)
    harmonic_basis(K, w, 1)
    with pytest.raises(NumericalError, match="residual"):
        harmonic_basis(K, w.replace(2, 1e8 * np.ones(K.simplex_count(2))), 1)
    assert harmonic_basis(K, w, 1).residual <= hodge.RESIDUAL_LIMIT


def test_normal_matrix_pattern_matches_the_dense_product(small_zoo):
    # N_k is filled from a pattern built once per complex; it must equal
    # D^T W_k D for any weights
    for name, K in small_zoo.items():
        w = random_weights(K, 2)
        ops = hodge._operators(K)
        for k in range(K.dimension + 1):
            D = ops.exact_span[k]
            got = ops.normal[k].at(w.degree(k)).toarray()
            dense = D.toarray()
            want = dense.T @ (w.degree(k)[:, None] * dense)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0, err_msg=f"{name} {k}")
            # and bitwise the sparse product D^T (W D), same terms in the same order
            product = D.T @ (sp.diags(w.degree(k)) @ D)
            assert np.array_equal(got, product.toarray()), (name, k)
            # as is the dense matrix of an N_k at most the dense cut
            if ops.normal[k].size <= hodge._DENSE_ROWS:
                assert np.array_equal(ops.normal[k].dense_at(w.degree(k)), got), (name, k)
            else:
                assert ops.normal[k].dense_positions is None, (name, k)


def test_normal_matrix_is_one_linear_map_of_the_weights(small_zoo):
    # the stored values of N_k are T w_k, with T[(i, j), r] = D_ri D_rj:
    # one +-1 entry per ordered pair of stored entries in a row of D, and
    # N_k at the unit vector e_r is dN_k/dw_r, the outer product of row r
    for name, K in small_zoo.items():
        ops = hodge._operators(K)
        for k in range(K.dimension + 1):
            normal, D = ops.normal[k], ops.exact_span[k].tocsr()
            m = np.diff(D.indptr)
            assert normal.T.shape == (len(normal.indices), K.simplex_count(k)), (name, k)
            assert normal.T.nnz == int(np.sum(m * m)), (name, k)
            assert set(np.unique(normal.T.data)) <= {-1.0, 1.0}, (name, k)
            for r in np.linspace(0, K.simplex_count(k) - 1, 3).astype(int):
                e_r = np.zeros(K.simplex_count(k))
                e_r[r] = 1.0
                row = D[r].toarray().ravel()
                got = normal.at(e_r).toarray()
                assert np.array_equal(got, np.outer(row, row)), (name, k, r)


def spy_on_splu(monkeypatch, expert: list | None = None) -> list:
    """Record (rows, permc_spec) of every SuperLU factor from now on, and
    its (relax, panel_size) arguments into ``expert`` when given."""
    calls = []
    splu = scipy.sparse.linalg.splu

    def spy(A, permc_spec=None, **kwargs):
        calls.append((A.shape[0], permc_spec))
        if expert is not None:
            expert.append((kwargs.get("relax"), kwargs.get("panel_size")))
        return splu(A, permc_spec=permc_spec, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return calls


def candidate_stream(K, seed, count) -> list[tuple[int, int]]:
    """formality_residual at random weights, then at ``count`` moves of one
    coordinate each; returns the moved (degree, index) pairs."""
    base = random_weights(K, seed)
    coordinates = [(k, i) for k in range(1, K.dimension + 1) for i in range(K.simplex_count(k))]
    picks = np.random.default_rng(seed).choice(len(coordinates), size=count, replace=False)
    moved = [coordinates[p] for p in picks]
    formality_residual(K, base)
    for k, i in moved:
        scaled = base.degree(k).copy()
        scaled[i] *= 1.5
        formality_residual(K, base.replace(k, scaled))
    return moved


def test_small_normal_matrices_never_reach_superlu(s2xs2, monkeypatch):
    # N_2 and N_4 of S^2 x S^2 (69 and 95 rows) are factored dense; N_1 and
    # N_3 belong to degrees without harmonic cochains, which factor nothing
    calls = spy_on_splu(monkeypatch)
    candidate_stream(s2xs2, 3, 50)
    assert calls == []


def test_dense_factor_cut_is_at_128_rows(monkeypatch):
    # a cycle on n vertices has an N_1 of n - 1 rows
    calls = spy_on_splu(monkeypatch)
    for n, sparse in ((129, 0), (130, 1)):
        K = build_complex([(i, (i + 1) % n) for i in range(n)])
        assert hodge._operators(K).normal[1].size == n - 1
        harmonic_basis(K, unit_weights(K), 1)
        assert len(calls) == sparse, n
    assert calls == [(129, "MMD_AT_PLUS_A")]


def test_each_weight_state_factors_each_large_normal_matrix_once(tmp_path, monkeypatch):
    # every sparse factor of N_k runs in SuperLU's minimum-degree order, and
    # one weight state factors each N_k above the dense cut once.  On
    # T^3 # T^3 (Betti 1, 6, 6, 1) N_1 has 49 rows and is factored dense;
    # N_2 and N_3 have 317 and 321
    calls = spy_on_splu(monkeypatch)
    # a memo that holds the whole stream, on a complex of this test's own:
    # runs of moves in one degree would otherwise evict a base split, whose
    # rebuild factors again
    monkeypatch.setattr(hodge, "_MEMO_SIZE", 10_000)
    moved = candidate_stream(connected_sum(torus(3), torus(3)), 3, 30)
    path = tmp_path / "t3.json"
    assert main(["generate", "torus:3", "-o", str(path)]) == 0
    assert main(["analyze", str(path), "--all", "-o", str(tmp_path / "report.json")]) == 0
    # N_2 and N_3 for the base, then one factor per move of w_2 or w_3, and
    # for torus:3 N_2 and N_3 (160 and 161 rows) once for the whole analyze pass
    assert len(calls) == 2 + sum(k in (2, 3) for k, _ in moved) + 2
    assert {spec for _, spec in calls} == {"MMD_AT_PLUS_A"}
    assert min(rows for rows, _ in calls) > hodge._DENSE_ROWS


def test_every_sparse_factor_runs_on_natural_supernodes(tmp_path, monkeypatch):
    # relax=1 and no other expert option: with panel_size=40 added, fresh
    # processes that factored torus:4's N_2 and N_3, or ran the soak below,
    # crashed with a segmentation fault at exit under scipy 1.17.1
    expert = []
    calls = spy_on_splu(monkeypatch, expert)
    # T^3 # T^3 has an obstructed verdict, exit code 1
    for identifier, code in (("torus:3", 0), ("connsum:torus:3,torus:3", 1)):
        path = tmp_path / "complex.json"
        assert main(["generate", identifier, "-o", str(path)]) == 0
        assert main(["analyze", str(path), "--all", "-o", str(tmp_path / "report.json")]) == code
    # N_2 and N_3 of each complex, once per pass
    assert [rows for rows, _ in calls] == [160, 161, 317, 321]
    assert expert == [(1, None)] * 4


_SOAK = """
import numpy as np
from hodgeform import hodge
from hodgeform.complexes import connected_sum, torus
worst = 0.0
for K in (torus(3), connected_sum(torus(3), torus(3))):
    ops = hodge._operators(K)
    for seed in range(16):
        w = hodge.random_weights(K, seed)
        solve = hodge._normal_factor(ops, w, 2)
        N = ops.normal[2].at(w.degree(2))
        b = np.random.default_rng(seed).standard_normal((N.shape[0], 4))
        for rhs in (b, b[:, 0]):
            r = np.linalg.norm(N @ solve(rhs) - rhs) / np.linalg.norm(rhs)
            worst = max(worst, r)
        # the next seed's factor replaces this one, which SuperLU frees
        del solve
print(float(worst))
"""


def test_sparse_factors_survive_repeated_factor_solve_free_cycles():
    # 32 factor/solve/free cycles of N_2 (torus:3 and T^3 # T^3, both above
    # the dense cut) in a child process, which must exit cleanly: memory
    # corrupted by a factor shows as a crash, often only at exit
    env = dict(os.environ, PYTHONPATH=str(Path(hodge.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SOAK],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert float(child.stdout) <= 1e-10


def test_no_incomplete_factor_orders_the_normal_matrices(tmp_path, monkeypatch):
    # SuperLU orders each sparse factor itself; neither the operators nor an
    # analyze pass compute an incomplete factor
    calls = []
    spilu = scipy.sparse.linalg.spilu

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return spilu(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spilu", spy)
    # T^3 # T^3 has an obstructed verdict, exit code 1
    for identifier, code in (("torus:3", 0), ("connsum:torus:3,torus:3", 1)):
        path = tmp_path / "complex.json"
        assert main(["generate", identifier, "-o", str(path)]) == 0
        hodge._Operators(load_complex(path))
        assert main(["analyze", str(path), "--all", "-o", str(tmp_path / "report.json")]) == code
    assert calls == []


def test_rcond_is_never_negative():
    # X^T X of X = [v, 3v] is singular; dsyevd can return its smallest
    # eigenvalue slightly below zero
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.standard_normal(50)
        X = np.column_stack([v, 3 * v])
        assert hodge._rcond(X.T @ X) >= 0.0


def bases_with_cut(K, weights, rows, monkeypatch):
    """harmonic_basis vectors of every (weights, degree), None where a
    certificate fails, from fresh operators whose N_k of at most ``rows``
    rows are factored dense."""
    monkeypatch.setattr(hodge, "_DENSE_ROWS", rows)
    ops = hodge._Operators(K)
    monkeypatch.setattr(hodge, "_operators", lambda _: ops)
    out = {}
    for i, w in enumerate(weights):
        for k in range(K.dimension + 1):
            try:
                out[i, k] = harmonic_basis(K, w, k).vectors
            except NumericalError:
                out[i, k] = None
    return out


def test_dense_and_sparse_factors_give_the_same_bases(small_zoo, monkeypatch):
    # both factors solve with N_k, so the bases differ by round-off, which a
    # backward-stable solve bounds by a small multiple of eps * cond(N_k):
    # 1e-12 up to cond(N_k) of about 3e2, 1.2e-11 on torus:3 N_3 (2e5)
    eps = np.finfo(np.float64).eps
    for name, K in small_zoo.items():
        rng = np.random.default_rng(8)
        weights = [random_weights(K, 0), random_weights(K, 1)]
        # far-apart weights, which fail a certificate in some degrees
        weights.append(MetricWeights(tuple(10.0 ** rng.uniform(-6, 6, f) for f in K.f_vector)))
        with monkeypatch.context() as m:
            dense = bases_with_cut(K, weights, max(K.f_vector), m)
        with monkeypatch.context() as m:
            sparse = bases_with_cut(K, weights, 0, m)
        ops = hodge._operators(K)
        for (i, k), a in dense.items():
            b = sparse[i, k]
            assert (a is None) == (b is None), (name, i, k)
            if a is None or not a.size:
                continue
            cond = np.linalg.cond(ops.normal[k].at(weights[i].degree(k)).toarray()) if k else 1.0
            bound = max(1e-12, 16 * eps * cond)
            np.testing.assert_allclose(a, b, rtol=0, atol=bound, err_msg=f"{name} {i} {k}")


@pytest.mark.parametrize(
    "seed, span, k, failure",
    [
        # SuperLU finds the 317- and 321-row N_2 and N_3 singular
        (1, 50, 3, "^degree-3 normal matrix is numerically singular$"),
        (2, 150, 2, "^degree-2 normal matrix is numerically singular$"),
        (0, 150, 2, "^degree-2 normal matrix is numerically singular$"),
        # the Gram product overflows
        (1, 150, 2, "^degree-2 Gram matrix of the projected cocycles is not finite$"),
        # through the 49-row N_1, factored dense; which certificate catches
        # these first may depend on the LAPACK build
        (7, 150, 1, "^degree-1 "),
        (2, 150, 1, "^degree-1 "),
        (3, 300, 1, "^degree-1 "),
    ],
)
def test_far_apart_weights_fail_as_numerical_errors(torus3_sum, seed, span, k, failure):
    # weights 10**U(-span, span): a NumericalError that names the degree,
    # with no warning on the way
    rng = np.random.default_rng(seed)
    w = MetricWeights(tuple(10.0 ** rng.uniform(-span, span, f) for f in torus3_sum.f_vector))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=failure):
            harmonic_basis(torus3_sum, w, k)


def test_vertex_laplacian_of_circle_is_graph_laplacian(spheres):
    got = laplacian(spheres[1], unit_weights(spheres[1]), 0).toarray()
    expected = np.array([[2.0, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    assert np.array_equal(got, expected)


def test_constant_vertex_cochain_is_harmonic(tori):
    w = unit_weights(tori[2])
    L0 = laplacian(tori[2], w, 0)
    assert np.abs(L0 @ np.ones(9)).max() < 1e-14


def test_laplacian_matches_dense_assembly(tori, surfaces):
    for K in (tori[2], surfaces[2]):
        w = random_weights(K, 42)
        for k in range(K.dimension + 1):
            got = laplacian(K, w, k).toarray()
            assert np.allclose(got, dense_laplacian(K, w, k), atol=1e-12)


def test_self_adjoint_under_weights(tori):
    K = tori[2]
    w = random_weights(K, 5)
    rng = np.random.default_rng(6)
    for k in range(3):
        L = laplacian(K, w, k)
        m = K.simplex_count(k)
        for _ in range(5):
            x, y = rng.standard_normal(m), rng.standard_normal(m)
            lhs = np.dot(L @ x, w.degree(k) * y)
            rhs = np.dot(x, w.degree(k) * (L @ y))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_spectrum_nonnegative(small_zoo):
    for K in small_zoo.values():
        w = random_weights(K, 17)
        for k in range(K.dimension + 1):
            if not K.simplex_count(k):
                continue
            sqrt_w = np.sqrt(w.degree(k))
            S = np.diag(sqrt_w) @ laplacian(K, w, k).toarray() @ np.diag(1.0 / sqrt_w)
            eigs = scipy.linalg.eigvalsh(0.5 * (S + S.T))
            assert eigs[0] >= -1e-9 * max(eigs[-1], 1.0)


def test_laplacian_degree_out_of_range(tori):
    with pytest.raises(ValueError):
        laplacian(tori[2], unit_weights(tori[2]), 3)


# ---------------------------------------------------------------------------
# harmonic bases


def test_harmonic_dimensions_match_betti_random_draws(small_zoo):
    for K in small_zoo.values():
        betti = betti_numbers(K)
        for seed in range(3):
            w = random_weights(K, seed)
            dims = tuple(
                harmonic_basis(K, w, k).cardinality for k in range(K.dimension + 1)
            )
            assert dims == betti


def test_sphere_has_no_harmonic_one_cochains(spheres):
    basis = harmonic_basis(spheres[2], unit_weights(spheres[2]), 1)
    assert basis.cardinality == 0


def test_torus_harmonic_one_cochains(tori):
    basis = harmonic_basis(tori[2], unit_weights(tori[2]), 1)
    assert basis.cardinality == 2


def test_torus_top_harmonic_matches_dense_nullspace_oracle(tori):
    K = tori[2]
    w = unit_weights(K)
    # oracle: dense nullspace of the full 18x18 operator
    L = dense_laplacian(K, w, 2)
    null = scipy.linalg.null_space(L, rcond=1e-10)
    assert null.shape[1] == 1
    values = null[:, 0]
    assert np.allclose(np.abs(values), np.abs(values[0]))  # facet-constant
    basis = harmonic_basis(K, w, 2)
    assert basis.cardinality == 1
    # same span
    ours = basis.vectors[:, 0]
    cos = abs(np.dot(ours, values)) / (
        np.linalg.norm(ours) * np.linalg.norm(values)
    )
    assert cos > 1 - 1e-10


def test_basis_orthonormal_under_weights(surfaces):
    K = surfaces[2]
    w = random_weights(K, 9)
    basis = harmonic_basis(K, w, 1)
    X = basis.vectors
    gram = X.T @ np.diag(w.degree(1)) @ X
    assert np.abs(gram - np.eye(basis.cardinality)).max() < 1e-10


def test_basis_harmonicity_residual(surfaces):
    K = surfaces[2]
    w = random_weights(K, 10)
    basis = harmonic_basis(K, w, 1)
    assert basis.residual <= 1e-8
    L = laplacian(K, w, 1)
    for i in range(basis.cardinality):
        x = basis.vectors[:, i]
        assert w_norm(w, 1, L @ x) <= 1e-8 * w_norm(w, 1, x)


def test_absurd_tolerance_fails_loudly(tori, spheres):
    with pytest.raises(NumericalError):
        harmonic_basis(tori[2], unit_weights(tori[2]), 1, tol=10.0)
    # a degree without harmonic cochains is certified against tol too
    for tol in (1.0, 10.0):
        with pytest.raises(NumericalError):
            harmonic_basis(spheres[2], unit_weights(spheres[2]), 1, tol=tol)


def test_tolerance_must_be_positive(tori):
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            harmonic_basis(tori[2], unit_weights(tori[2]), 1, tol=tol)


def test_basis_depends_on_its_own_degree_weights_only(small_zoo):
    for name, K in small_zoo.items():
        n = K.dimension
        w = random_weights(K, 40)
        other = random_weights(K, 41)
        for k in range(n + 1):
            moved = w
            for j in (k - 1, k + 1):
                if 0 <= j <= n:
                    moved = moved.replace(j, other.degree(j))
            # a copy of the complex shares no cached basis with K
            copy = SimplicialComplex(K.vertex_count, K.simplices_by_dim, K.name)
            a = harmonic_basis(K, w, k).vectors
            b = harmonic_basis(copy, moved, k).vectors
            assert a.tobytes() == b.tobytes(), (name, k)


def test_spectral_gaps_match_dense_oracle(small_zoo):
    # the single edge has a one-column pencil
    for name, K in {**small_zoo, "edge": build_complex([(0, 1)])}.items():
        w = random_weights(K, 60)
        betti = betti_numbers(K)
        gaps = spectral_gaps(K, w)
        for k in range(K.dimension + 1):
            sqrt_w = np.sqrt(w.degree(k))
            S = np.diag(sqrt_w) @ dense_laplacian(K, w, k) @ np.diag(1.0 / sqrt_w)
            eigs = scipy.linalg.eigvalsh(0.5 * (S + S.T))
            scale = np.abs(S).sum(axis=1).max()
            if betti[k] == len(eigs):
                assert gaps[k] is None, (name, k)
                continue
            want = eigs[betti[k]] / scale
            assert abs(gaps[k] - want) <= 1e-8 * want, (name, k, gaps[k], want)


def test_large_surface_random_weights_certify():
    K = surface(32)
    for seed in (0, 2, 3):
        w = random_weights(K, seed)
        basis = harmonic_basis(K, w, 1)
        assert basis.cardinality == 64
        assert basis.residual <= 1e-8, seed
        L = laplacian(K, w, 1)
        for x in basis.vectors.T:
            assert w_norm(w, 1, L @ x) <= 1e-8 * w_norm(w, 1, x), seed


def test_spectral_gaps_refuse_an_uncertified_basis(tori):
    # a 1e12 weight spread leaves the degree-1 basis with residual 2.3e-7
    K = tori[2]
    rng = np.random.default_rng(1)
    w = MetricWeights(tuple(10.0 ** rng.uniform(-6, 6, K.simplex_count(k)) for k in range(3)))
    with pytest.raises(NumericalError, match="residual"):
        harmonic_basis(K, w, 1)
    with pytest.raises(NumericalError, match="residual"):
        spectral_gaps(K, w)


# ---------------------------------------------------------------------------
# projection: the W-orthogonal projection onto the harmonic space is
# P_H c = H (H^T W c) with H = harmonic_basis(...).vectors, as the pair
# sweep of formality_residual projects


def project(w, k, H, c):
    return H @ (H.T @ (w.degree(k) * c))


def test_projection_recovers_basis_vector(tori):
    # P_H H = H exactly when H^T W H = I
    K = tori[2]
    w = unit_weights(K)
    H = harmonic_basis(K, w, 1).vectors
    assert np.abs(H.T @ (w.degree(1)[:, None] * H) - np.eye(H.shape[1])).max() <= 1e-12
    assert np.allclose(project(w, 1, H, H[:, 1]), H[:, 1], atol=1e-12)


def test_projection_kills_exact_cochains(tori):
    # H^T W d c = 0: every exact cochain is W-orthogonal to the basis
    K = tori[2]
    w = unit_weights(K)
    rng = np.random.default_rng(20)
    d0 = boundary_matrix(K, 1).T.toarray().astype(float)
    c = d0 @ rng.standard_normal(9)
    H = harmonic_basis(K, w, 1).vectors
    assert np.linalg.norm(H.T @ (w.degree(1) * c)) <= 1e-10 * np.linalg.norm(c)


def test_projection_idempotent(surfaces):
    K = surfaces[2]
    w = random_weights(K, 21)
    rng = np.random.default_rng(22)
    c = rng.standard_normal(K.simplex_count(1))
    H = harmonic_basis(K, w, 1).vectors
    once = project(w, 1, H, c)
    twice = project(w, 1, H, once)
    assert np.allclose(once, twice, atol=1e-12)


def test_global_weight_scaling_leaves_harmonic_projector(tori):
    K = tori[2]
    base = random_weights(K, 30)
    scaled = MetricWeights(tuple(3.7 * arr for arr in base.by_degree))
    for k in range(3):
        b1 = harmonic_basis(K, base, k)
        b2 = harmonic_basis(K, scaled, k)
        P1 = b1.vectors @ (b1.vectors.T * base.degree(k))
        P2 = b2.vectors @ (b2.vectors.T * scaled.degree(k))
        assert np.abs(P1 - P2).max() < 1e-8


def test_projection_onto_an_empty_harmonic_space(spheres):
    K = spheres[2]
    w = random_weights(K, 5)
    H = harmonic_basis(K, w, 1).vectors
    assert H.shape == (K.simplex_count(1), 0)
    c = np.random.default_rng(5).standard_normal(K.simplex_count(1))
    h = project(w, 1, H, c)
    assert h.shape == (K.simplex_count(1),)
    assert not np.any(h)


def test_spectral_gaps_project_only_with_certified_bases(monkeypatch):
    # every Gram matrix now reads as singular, so no basis passes the
    # certificate and the gaps cannot be computed from one
    monkeypatch.setattr(hodge, "_rcond", lambda gram: 0.0)
    K = torus(2)
    with pytest.raises(NumericalError, match="Gram matrix"):
        spectral_gaps(K, unit_weights(K))


@pytest.mark.parametrize(
    "failure",
    (
        lambda: scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0))
        ),
        lambda: scipy.sparse.linalg.ArpackError(-9999),
    ),
    ids=("no-convergence", "error"),
)
def test_arpack_failure_is_a_numerical_error(monkeypatch, failure):
    # the pencil of degree 1 on torus:2 has rank 8, so it goes to ARPACK,
    # whose failures are RuntimeErrors that the CLI would not map
    def failing(*args, **kwargs):
        raise failure()

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", failing)
    K = torus(2)
    with pytest.raises(NumericalError, match="degree-1 pencil eigensolve failed"):
        spectral_gaps(K, unit_weights(K))


def test_spectral_gaps_certify_their_bases_at_the_given_tolerance(monkeypatch):
    # every Gram matrix reads 1e-10: a basis passes at 1e-12, not at 1e-9
    monkeypatch.setattr(hodge, "_rcond", lambda gram: 1e-10)
    K = torus(2)
    w = unit_weights(K)
    assert all(gap is not None for gap in spectral_gaps(K, w, 1e-12))
    with pytest.raises(NumericalError, match="reciprocal condition 1.000e-10"):
        spectral_gaps(K, w)


def four_product_residual(K, w, k, H) -> float:
    """max_i ||Delta_k h_i||_w / ||h_i||_w with all four sparse products of
    the residual certificate, in its order of operations."""
    ops = hodge._operators(K)
    wk = w.degree(k)[:, None]
    sqrt_wk = np.sqrt(wk)
    out = np.zeros_like(H)
    if k < K.dimension:
        out += (ops.d_T[k] @ (w.degree(k + 1)[:, None] * (ops.d[k] @ H))) / wk
    if k > 0:
        out += ops.d[k - 1] @ ((ops.d_T[k - 1] @ (wk * H)) / w.degree(k - 1)[:, None])
    defect = np.linalg.norm(sqrt_wk * out, axis=0)
    return float(np.max(defect / np.linalg.norm(sqrt_wk * H, axis=0)))


def test_residual_after_a_neighbour_move_is_the_four_product_residual(tori, s2xs2):
    # the split keeps the w_k-only products of the certificate; a residual
    # recomputed for moved w_{k-1} or w_{k+1} from them is bitwise the
    # residual of all four products
    for K in (tori[3], s2xs2):
        base = random_weights(K, 12)
        n = K.dimension
        for k in range(n + 1):
            if not betti_numbers(K)[k]:
                continue
            harmonic_basis(K, base, k)
            for j in range(max(k - 1, 0), min(k + 1, n) + 1):
                scaled = base.degree(j).copy()
                scaled[3] *= 1.7
                moved = base.replace(j, scaled)
                basis = harmonic_basis(K, moved, k)
                want = four_product_residual(K, moved, k, basis.vectors)
                assert basis.residual == want, (K.name, k, j)
